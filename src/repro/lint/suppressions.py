"""Inline suppression comments: ``# repro: allow[RULE] reason``.

A finding is suppressed by an allow comment naming the rule id and a
non-empty reason, on the flagged line itself or anywhere in the
contiguous comment block directly above it::

    # repro: allow[DET002] wall_s is observational timing, reported
    # outside the fingerprint
    started = time.perf_counter()

Several rules may share one comment (``allow[DET002,DET003]``).  The
discipline is enforced by the engine, not convention:

* an allow **without a reason** is itself a finding (``LINT001``) --
  suppressions must say *why* the contract does not apply;
* an allow whose rule **no longer fires** on that line is stale and is
  reported by ``repro lint --check-stale`` (``LINT002``), so dead
  annotations cannot accumulate and quietly blanket future
  regressions.

This module only parses; the pairing of allows against raw findings
lives in :mod:`repro.lint.engine`.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

#: The allow directive: one or more comma-separated rule ids in the
#: brackets, the reason as trailing free text.
_ALLOW = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)\]"
    r"(?P<reason>[^#]*)"
)

#: Fixture-only directive: lint this file as if it lived at the given
#: repo-relative path (so tests/data/lint_fixtures/ snippets can
#: exercise module-scoped rules without touching the real modules).
PRETEND = re.compile(r"#\s*repro-lint:\s*pretend\s+(?P<path>\S+)")


def iter_comments(lines: Sequence[str]) -> Iterator[Tuple[int, str]]:
    """``(1-based line, comment text)`` for every *real* comment.

    Tokenizes instead of regexing raw lines, so directive-shaped text
    inside docstrings or string literals (this module's own examples,
    say) is never mistaken for a live directive.  Tokenization errors
    (possible on fixture snippets) end the scan at the error point.
    """
    reader = io.StringIO("\n".join(lines) + "\n").readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


@dataclass(frozen=True)
class Allow:
    """One parsed allow comment, for one rule id."""

    rule: str
    line: int
    reason: str

    @property
    def has_reason(self) -> bool:
        return bool(self.reason)


def parse_allows(lines: Sequence[str]) -> List[Allow]:
    """Every allow in ``lines`` (1-based line numbers), one per rule id."""
    allows: List[Allow] = []
    for lineno, text in iter_comments(lines):
        match = _ALLOW.search(text)
        if match is None:
            continue
        reason = match.group("reason").strip()
        for rule in re.split(r"\s*,\s*", match.group("rules")):
            allows.append(Allow(rule=rule, line=lineno, reason=reason))
    return allows


def allows_by_line(allows: Sequence[Allow]) -> Dict[Tuple[int, str], Allow]:
    """Index allows as ``(line, rule) -> Allow`` for O(1) pairing."""
    return {(allow.line, allow.rule): allow for allow in allows}


def pretend_path(lines: Sequence[str]) -> str:
    """The fixture's declared pretend path, or ``""`` when absent."""
    for _, text in iter_comments(lines):
        match = PRETEND.search(text)
        if match is not None:
            return match.group("path")
    return ""
