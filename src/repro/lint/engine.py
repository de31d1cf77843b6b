"""The lint engine: parse once, dispatch rules, apply suppressions.

One :func:`lint_paths` call is one lint run: every file is parsed into
a single AST shared by all applicable rules, raw findings are paired
against inline ``# repro: allow[RULE] reason`` comments (same line, or
anywhere in the contiguous comment block directly above the flagged
line, so long reasons can wrap across comment lines), and the
suppression hygiene rules are produced here:

* ``LINT001`` -- an allow without a reason, or naming an unknown rule
  (reasonless allows do **not** suppress; the original finding stays);
* ``LINT002`` -- an allow whose rule did not fire on that line (stale),
  reported only under ``check_stale=True`` so the default run stays
  quiet while a fix is in flight.

:func:`lint_tree` walks the configured roots (``src/repro``) -- that
is what ``repro lint`` and the tier-1 cleanliness test run.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.lint.config import REPO_ROOT, ROOTS
from repro.lint.findings import Finding
from repro.lint.rules import RULES, all_rule_ids
from repro.lint.rules.base import ModuleUnderLint
from repro.lint.suppressions import allows_by_line, parse_allows, pretend_path


class LintError(Exception):
    """A file could not be linted at all (unreadable / unparsable)."""


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressions_used: int = 0
    rules_run: List[str] = field(default_factory=list)
    check_stale: bool = False

    @property
    def clean(self) -> bool:
        return not self.findings

    def format_text(self) -> str:
        lines = [str(finding) for finding in self.findings]
        verdict = "clean" if self.clean else f"{len(self.findings)} finding(s)"
        lines.append(
            f"repro lint: {verdict} -- {self.files_checked} files, "
            f"{len(self.rules_run)} rules, "
            f"{self.suppressions_used} suppression(s) honored"
            + (" [stale check on]" if self.check_stale else "")
        )
        return "\n".join(lines)

    def format_json(self) -> str:
        return json.dumps(
            {
                "clean": self.clean,
                "files_checked": self.files_checked,
                "rules_run": self.rules_run,
                "suppressions_used": self.suppressions_used,
                "check_stale": self.check_stale,
                "findings": [finding.as_dict() for finding in self.findings],
            },
            indent=2,
        )


def _select_rules(rule_ids: Optional[Sequence[str]]) -> List[str]:
    if rule_ids is None:
        return all_rule_ids()
    selected = []
    for rule_id in rule_ids:
        if rule_id not in RULES:
            raise LintError(
                f"unknown lint rule {rule_id!r} (known: "
                f"{', '.join(all_rule_ids())})"
            )
        selected.append(rule_id)
    return selected


def _relpath(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(
    path: Path,
    rule_ids: Optional[Sequence[str]] = None,
    check_stale: bool = False,
) -> List[Finding]:
    """Lint one file; returns its findings (already suppression-paired)."""
    findings, _ = _lint_file(path, _select_rules(rule_ids), check_stale)
    return findings


def _lint_file(path: Path, selected: Sequence[str], check_stale: bool):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    return _lint_source(text, _relpath(Path(path)), selected, check_stale)


def _find_allow(by_line, lines, line, rule):
    """The allow covering ``(line, rule)``, or ``None``.

    Checks the flagged line itself, then walks upward through the
    contiguous block of comment-only lines directly above it, so an
    allow whose reason wraps across several comment lines still pairs.
    """
    allow = by_line.get((line, rule))
    if allow is not None:
        return allow
    probe = line - 1
    while probe >= 1 and lines[probe - 1].lstrip().startswith("#"):
        allow = by_line.get((probe, rule))
        if allow is not None:
            return allow
        probe -= 1
    return None


def _lint_source(
    text: str,
    real_path: str,
    selected: Sequence[str],
    check_stale: bool,
) -> List[Finding]:
    lines = text.splitlines()
    effective = pretend_path(lines) or real_path
    try:
        tree = ast.parse(text, filename=real_path)
    except SyntaxError as exc:
        raise LintError(f"{real_path}:{exc.lineno}: syntax error: {exc.msg}")
    module = ModuleUnderLint(path=effective, tree=tree, lines=lines)

    raw: List[Finding] = []
    for rule_id in selected:
        rule = RULES[rule_id]
        if not rule.applies(effective):
            continue
        for finding in rule.check(module):
            # Report findings at the file's *real* path so they are
            # clickable, even when a fixture pretends elsewhere.
            raw.append(
                Finding(finding.rule, real_path, finding.line, finding.message)
            )

    allows = parse_allows(lines)
    by_line = allows_by_line(allows)
    used = set()
    findings: List[Finding] = []
    for finding in raw:
        allow = _find_allow(by_line, lines, finding.line, finding.rule)
        if allow is not None and allow.has_reason:
            used.add((allow.line, allow.rule))
            continue
        findings.append(finding)

    lint001 = "LINT001" in selected
    lint002 = "LINT002" in selected and check_stale
    for allow in allows:
        if allow.rule not in RULES:
            if lint001:
                findings.append(
                    Finding(
                        "LINT001",
                        real_path,
                        allow.line,
                        f"allow[{allow.rule}] names an unknown rule "
                        f"(known: {', '.join(all_rule_ids())})",
                    )
                )
            continue
        if not allow.has_reason:
            if lint001:
                findings.append(
                    Finding(
                        "LINT001",
                        real_path,
                        allow.line,
                        f"allow[{allow.rule}] has no reason; a "
                        "suppression must say why the contract does "
                        "not apply here",
                    )
                )
            continue
        if (
            lint002
            and allow.rule in selected
            and (allow.line, allow.rule) not in used
        ):
            findings.append(
                Finding(
                    "LINT002",
                    real_path,
                    allow.line,
                    f"stale suppression: allow[{allow.rule}] but the "
                    "rule no longer fires on this line; delete the "
                    "annotation",
                )
            )
    findings.sort(key=Finding.sort_key)
    return findings, len(used)


def lint_paths(
    paths: Iterable[Path],
    rule_ids: Optional[Sequence[str]] = None,
    check_stale: bool = False,
) -> LintReport:
    """Lint an explicit set of files into one report."""
    selected = _select_rules(rule_ids)
    report = LintReport(rules_run=list(selected), check_stale=check_stale)
    for path in sorted(Path(p) for p in paths):
        findings, used = _lint_file(path, selected, check_stale)
        report.findings.extend(findings)
        report.files_checked += 1
        report.suppressions_used += used
    report.findings.sort(key=Finding.sort_key)
    return report


def lint_tree(
    rule_ids: Optional[Sequence[str]] = None,
    check_stale: bool = False,
) -> LintReport:
    """Lint every ``*.py`` under the configured roots."""
    paths: List[Path] = []
    for root in ROOTS:
        paths.extend(sorted((REPO_ROOT / root).rglob("*.py")))
    return lint_paths(paths, rule_ids=rule_ids, check_stale=check_stale)
