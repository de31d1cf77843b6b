"""TRC001: trace kinds are append-only (ring encodings stay stable).

The flight recorder (:mod:`repro.obs.ring`) stores each event's kind
as its **position** in ``repro.obs.tracing.ALL_KINDS``; an exported
ring (JSONL, Chrome trace) is only decodable as long as that mapping
never changes for existing kinds.  PR 8 appended the three checkpoint
kinds at the end by hand-discipline; this rule makes the discipline a
build failure:

* ``ALL_KINDS`` must start with the exact pinned prefix in
  :data:`repro.lint.config.PINNED_TRACE_KINDS` -- no removal, no
  reorder, no insertion before the end;
* a *new* kind appended after the prefix is flagged too, until it is
  also appended to the pinned manifest -- the manifest append is the
  explicit acknowledgment that the encoding grew;
* duplicate kinds are flagged (two positions, one name: undecodable).

The rule resolves name constants (``SEND = "send"``; ``ALL_KINDS =
(SEND, ...)``) statically, so the check needs no import of the module
under lint.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.rules.base import ModuleUnderLint, Rule


class TRC001(Rule):
    """``ALL_KINDS`` may only grow by appending, acknowledged in the
    pinned manifest."""

    id = "TRC001"
    title = "trace kinds must be append-only"

    def applies(self, path: str, config: LintConfig) -> bool:
        return path == config.trace_kinds_module

    def check(
        self, module: ModuleUnderLint, config: LintConfig
    ) -> Iterator[Finding]:
        assignment = _find_all_kinds(module.tree)
        if assignment is None:
            yield self.finding(
                module.path,
                1,
                "module defines no module-level ALL_KINDS tuple; the "
                "ring encoding manifest must stay discoverable",
            )
            return
        node, kinds = assignment
        pinned = config.pinned_trace_kinds
        seen: Dict[str, int] = {}
        for position, kind in enumerate(kinds):
            if kind in seen:
                yield self.finding(
                    module.path,
                    node,
                    f"trace kind {kind!r} appears twice in ALL_KINDS "
                    f"(positions {seen[kind]} and {position}); ring "
                    "codes must be unique",
                )
            seen.setdefault(kind, position)
        for position, expected in enumerate(pinned):
            actual = kinds[position] if position < len(kinds) else None
            if actual != expected:
                yield self.finding(
                    module.path,
                    node,
                    f"ALL_KINDS[{position}] is "
                    f"{actual!r} but the pinned manifest requires "
                    f"{expected!r}; kinds may only be APPENDED at the "
                    "end (ring exports encode kinds by position)",
                )
                return
        for position in range(len(pinned), len(kinds)):
            yield self.finding(
                module.path,
                node,
                f"new trace kind {kinds[position]!r} is not in the "
                "pinned manifest; append it to PINNED_TRACE_KINDS in "
                "repro/lint/config.py to acknowledge the encoding "
                "change",
            )


def _find_all_kinds(
    tree: ast.Module,
) -> Optional[Tuple[ast.Assign, List[Optional[str]]]]:
    """The module-level ``ALL_KINDS`` assignment, with resolved values.

    Elements that cannot be resolved to a string constant come back as
    ``None`` (they then mismatch whatever the manifest pins, which is
    the safe direction).
    """
    constants: Dict[str, str] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            constants[stmt.targets[0].id] = stmt.value.value
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "ALL_KINDS"
            for t in stmt.targets
        ):
            continue
        if not isinstance(stmt.value, (ast.Tuple, ast.List)):
            return stmt, []
        kinds: List[Optional[str]] = []
        for element in stmt.value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                kinds.append(element.value)
            elif isinstance(element, ast.Name):
                kinds.append(constants.get(element.id))
            else:
                kinds.append(None)
        return stmt, kinds
    return None
