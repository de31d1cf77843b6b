"""The rule registry: every lint rule id, mapped to its implementation.

``RULES`` is the single source of truth for which rules exist; the
CLI's ``--rule`` filter, the docs cross-check in
``tools/check_docs.py`` and the fixture coverage test in
``tests/unit/test_lint.py`` all read it.  Rules DET are AST
visitors (:class:`~repro.lint.rules.base.Rule` subclasses);
LINT001/LINT002 are *engine-level* -- they are produced by the
suppression machinery in :mod:`repro.lint.engine` rather than by an
AST pass, but they are registered here so they are documented,
filterable and fixture-covered like any other rule.
"""

from __future__ import annotations

from typing import Dict, List

from repro.lint.rules.base import EngineRule, Rule
from repro.lint.rules.determinism import DET001, DET002, DET003

__all__ = ["LINT001", "LINT002", "RULES", "all_rule_ids"]


class LINT001(EngineRule):
    """An inline ``# repro: allow[RULE]`` suppression has no reason."""

    id = "LINT001"
    title = "suppression without a reason"


class LINT002(EngineRule):
    """An allow's rule no longer fires on that line (stale suppression).

    Reported by ``repro lint --check-stale`` only, so a transiently
    clean line does not fail the default run while it is being fixed.
    """

    id = "LINT002"
    title = "stale suppression"


#: rule id -> rule instance, the registry.
RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        DET001(),
        DET002(),
        DET003(),
        LINT001(),
        LINT002(),
    )
}


def all_rule_ids() -> List[str]:
    """Every registered rule id, sorted."""
    return sorted(RULES)
