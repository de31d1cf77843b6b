"""The determinism & contract linter: clean tree, firing rules.

Two halves, both load-bearing:

* the repo's own tree must lint clean (the static contract holds on
  every commit, not just on the seeds the golden transcripts sample);
* every registered rule must *fire* on its fixture under
  ``tests/data/lint_fixtures/`` -- a rule that never fires is a rule
  that silently stopped guarding anything.
"""

import json
from pathlib import Path

import pytest

from repro.cli import CommandFailed, run
from repro.lint import (
    DEFAULT_CONFIG,
    LintError,
    all_rule_ids,
    lint_file,
    lint_paths,
    lint_tree,
)
from repro.lint.config import PINNED_TRACE_KINDS
from repro.obs.tracing import ALL_KINDS

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "data" / "lint_fixtures"

#: rule id -> (fixture that must trip it, whether stale-check is needed).
RULE_FIXTURES = {
    "DET001": ("det001_unseeded.py", False),
    "DET002": ("det002_wall_clock.py", False),
    "DET003": ("det003_set_iteration.py", False),
    "TRC001": ("trc001_unpinned_kind.py", False),
    "HOT001": ("hot001_unguarded.py", False),
    "API001": ("api001_undeclared_verb.py", False),
    "POOL001": ("pool001_mutable_spec.py", False),
    "LINT001": ("lint001_reasonless_allow.py", False),
    "LINT002": ("lint002_stale_allow.py", True),
}


def test_repo_tree_is_clean():
    report = lint_tree()
    assert report.clean, report.format_text()
    assert report.files_checked > 50


def test_repo_tree_has_no_stale_suppressions():
    report = lint_tree(check_stale=True)
    assert report.clean, report.format_text()


def test_every_registered_rule_has_a_fixture():
    assert sorted(RULE_FIXTURES) == sorted(all_rule_ids())


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_fires_on_its_fixture(rule_id):
    fixture, needs_stale = RULE_FIXTURES[rule_id]
    findings = lint_file(FIXTURES / fixture, check_stale=needs_stale)
    assert rule_id in {f.rule for f in findings}, (
        f"{rule_id} did not fire on {fixture}: {findings}"
    )


def test_clean_fixture_has_no_findings():
    assert lint_file(FIXTURES / "clean.py", check_stale=True) == []


def test_findings_carry_real_path_and_line():
    findings = lint_file(FIXTURES / "det002_wall_clock.py")
    (finding,) = findings
    # Reported at the file's real location, not the pretend path.
    assert finding.path.endswith("tests/data/lint_fixtures/det002_wall_clock.py")
    assert finding.line == 9
    assert str(finding).startswith(f"{finding.path}:{finding.line}: DET002")


def test_reasonless_allow_does_not_suppress():
    findings = lint_file(FIXTURES / "lint001_reasonless_allow.py")
    rules = {f.rule for f in findings}
    # The original finding survives AND the hygiene finding is added.
    assert rules == {"DET002", "LINT001"}


def test_stale_allow_is_quiet_by_default():
    assert lint_file(FIXTURES / "lint002_stale_allow.py") == []
    findings = lint_file(FIXTURES / "lint002_stale_allow.py", check_stale=True)
    assert {f.rule for f in findings} == {"LINT002"}


def _lint_source(tmp_path, source, **kwargs):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_paths([path], **kwargs)


def test_reasoned_allow_suppresses_and_is_counted(tmp_path):
    report = _lint_source(
        tmp_path,
        '"""Snippet."""\n'
        "# repro-lint: pretend src/repro/sim/clockless.py\n"
        "import time\n"
        "T = time.time()  # repro: allow[DET002] boot stamp, not simulated\n",
    )
    assert report.clean
    assert report.suppressions_used == 1


def test_allow_in_comment_block_above_pairs(tmp_path):
    report = _lint_source(
        tmp_path,
        '"""Snippet."""\n'
        "# repro-lint: pretend src/repro/sim/clockless.py\n"
        "import time\n"
        "# repro: allow[DET002] the reason for this one wraps across\n"
        "# two comment lines directly above the flagged statement\n"
        "T = time.time()\n",
        check_stale=True,
    )
    assert report.clean, report.format_text()
    assert report.suppressions_used == 1


def test_directives_inside_strings_are_ignored(tmp_path):
    report = _lint_source(
        tmp_path,
        '"""Docs quoting a directive: # repro: allow[DET002] example."""\n'
        'EXAMPLE = "# repro: allow[DET001] also not a real comment"\n',
        check_stale=True,
    )
    assert report.clean, report.format_text()


def test_unknown_rule_id_is_rejected():
    with pytest.raises(LintError, match="NOPE999"):
        lint_tree(rule_ids=["NOPE999"])


def test_rule_selection_limits_findings():
    path = FIXTURES / "lint001_reasonless_allow.py"
    only_det = lint_file(path, rule_ids=["DET002"])
    assert {f.rule for f in only_det} == {"DET002"}


def test_pinned_manifest_is_a_prefix_of_all_kinds():
    assert tuple(ALL_KINDS[: len(PINNED_TRACE_KINDS)]) == PINNED_TRACE_KINDS
    assert DEFAULT_CONFIG.pinned_trace_kinds == PINNED_TRACE_KINDS


def test_cli_lint_clean_and_json():
    text = run(["lint", str(FIXTURES / "clean.py")])
    assert "clean" in text
    payload = json.loads(
        run(["lint", "--format", "json", str(FIXTURES / "clean.py")])
    )
    assert payload["clean"] is True
    assert payload["files_checked"] == 1


def test_cli_lint_fails_on_findings():
    with pytest.raises(CommandFailed) as excinfo:
        run(["lint", str(FIXTURES / "det001_unseeded.py")])
    assert "DET001" in excinfo.value.output


def test_cli_lint_whole_tree_is_clean():
    text = run(["lint", "--check-stale"])
    assert "clean" in text
