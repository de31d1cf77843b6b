"""Unit: the documentation stays link-clean and pydoc-renderable.

Runs the same gates as the CI docs job (``tools/check_docs.py``):
every relative link in README/docs resolves, every public module
under ``src/repro`` imports cleanly with a module docstring, and every
backticked ``repro.x.y`` name in README/docs resolves.  Keeping
this in the tier-1 suite means a broken doc link fails locally, not
just on the docs job.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_intra_repo_links_resolve():
    checker = load_checker()
    assert checker.check_links() == []


def test_public_modules_import_with_docstrings():
    checker = load_checker()
    assert checker.check_modules() == []


def test_docs_tree_is_complete():
    docs = REPO_ROOT / "docs"
    for name in (
        "architecture.md", "protocols.md", "checking.md",
        "benchmarks.md", "scenarios.md", "determinism.md",
    ):
        assert (docs / name).is_file(), f"docs/{name} is missing"


def test_rule_ids_match_the_contract_test():
    checker = load_checker()
    assert checker.check_rule_ids() == []


def test_dotted_names_resolve():
    checker = load_checker()
    assert checker.check_dotted_names() == []


def test_dotted_name_resolution():
    checker = load_checker()
    assert checker.resolve_dotted_name("repro.api")
    assert checker.resolve_dotted_name("repro.api.sim.SimBackend.check")
    assert not checker.resolve_dotted_name("repro.no_such_module")
    assert not checker.resolve_dotted_name("repro.api.sim.NoSuchName")


def test_checker_cli_exit_status():
    checker = load_checker()
    assert checker.main() == 0
