"""Rule plumbing: the visitor contract and shared AST helpers.

A rule is one stateless object with an ``id``, a human ``title``, an
``applies(path)`` scope test and a ``check(module) ->
findings`` pass over a parsed file.  The engine parses each file once
into a :class:`ModuleUnderLint` and hands the same object to every
applicable rule, so adding a rule never adds a parse.

``EngineRule`` marks rules the engine itself produces (suppression
hygiene) -- they carry documentation and registry presence but no AST
pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.lint.findings import Finding


@dataclass(frozen=True)
class ModuleUnderLint:
    """One parsed source file, shared by every rule that checks it.

    ``path`` is the *effective* repo-relative path: the real location,
    or the fixture's ``# repro-lint: pretend`` target, so scoped rules
    treat a fixture exactly like the module it impersonates.
    """

    path: str
    tree: ast.Module
    lines: Sequence[str]


class Rule:
    """One lint rule: a scope test plus an AST pass."""

    id: str = "?"
    title: str = "?"

    def applies(self, path: str) -> bool:
        """Whether this rule runs on the module at ``path`` at all."""
        return True

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        """Yield every violation in ``module``."""
        raise NotImplementedError

    def finding(self, path: str, node_or_line, message: str) -> Finding:
        """Build a finding for an AST node (or explicit line number)."""
        line = getattr(node_or_line, "lineno", node_or_line)
        return Finding(rule=self.id, path=path, line=line, message=message)


class EngineRule(Rule):
    """A rule produced by the engine, not by an AST pass."""

    def applies(self, path: str) -> bool:
        return False

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        return iter(())


# -- shared AST helpers ----------------------------------------------------


def call_name(node: ast.AST) -> str:
    """Dotted name of a call/attribute target, best effort.

    ``random.Random`` -> ``"random.Random"``; ``uuid.uuid4()``'s func
    -> ``"uuid.uuid4"``; unresolvable shapes -> ``""``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def module_imports(tree: ast.Module) -> dict:
    """Local name -> imported dotted origin, for the whole module.

    ``import random`` -> ``{"random": "random"}``; ``import numpy.random
    as npr`` -> ``{"npr": "numpy.random"}``; ``from random import
    shuffle as mix`` -> ``{"mix": "random.shuffle"}``.
    """
    origins = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                origins[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                origins[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return origins


def resolved_name(node: ast.AST, origins: dict) -> str:
    """A name or attribute chain as an import-resolved dotted name.

    ``mix`` where ``mix`` was imported from ``random`` resolves to
    ``"random.shuffle"``; ``npr.choice`` under ``import numpy.random
    as npr`` resolves to ``"numpy.random.choice"``.
    """
    dotted = call_name(node)
    if not dotted:
        return ""
    head, _, rest = dotted.partition(".")
    origin = origins.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin

