#!/usr/bin/env python
"""Documentation health check: links, modules, rule ids, dotted names.

Four gates, all cheap enough for every CI run and the tier-1 suite
(``tests/unit/test_docs.py`` calls the same functions):

1. **Links** -- every relative markdown link in ``README.md`` and the
   ``docs/`` tree must point at a file (or directory) that exists in
   the repo.  External (``http``/``https``/``mailto``) links are not
   checked.
2. **Modules** -- every public module under ``src/repro`` must import
   cleanly (what ``python -m pydoc repro.x`` requires) and carry a
   module docstring, so the API documentation pydoc renders never goes
   stale or breaks.
3. **Rule ids** -- the determinism rules the tier-1 contract test
   states (the ``RULES`` tuple of
   ``tests/unit/test_determinism_contract.py``, read without importing
   it) and the docs must agree in both directions: every rule id is
   documented in ``docs/determinism.md``, and every rule id mentioned
   in ``README.md`` or ``docs/*.md`` is one of them (a doc that cites a
   deleted or mistyped rule is lying about what is enforced).
4. **Dotted names** -- every backticked ``repro.x.y`` name in
   ``README.md`` and ``docs/*.md`` must resolve: the longest importable
   module prefix, then ``getattr`` for the rest.  A doc naming a
   deleted module, class or function fails here.

Exit status is non-zero with a readable report when any gate fails::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path
from typing import List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose relative links must resolve.
DOC_GLOBS = ("README.md", "ROADMAP.md", "CHANGES.md", "docs/*.md")

#: The documents whose rule ids and backticked ``repro.`` names
#: must match the code (the roadmap and changelog describe code that
#: is gone on purpose).
NAME_DOC_GLOBS = ("README.md", "docs/*.md")

#: ``[text](target)`` -- good enough for the hand-written docs here
#: (no nested brackets, no angle-bracket targets).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_EXTERNAL = ("http://", "https://", "mailto:")


def iter_doc_files(globs=DOC_GLOBS) -> List[Path]:
    files: List[Path] = []
    for pattern in globs:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return files


def check_links() -> List[str]:
    """Broken relative links, as ``file: target`` strings."""
    problems = []
    for doc in iter_doc_files():
        for target in _LINK.findall(doc.read_text()):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link -> {target}"
                )
    return problems


def iter_public_modules() -> List[str]:
    """Every importable module name under ``src/repro``, no privates."""
    src = REPO_ROOT / "src"
    names = ["repro"]
    for info in pkgutil.walk_packages([str(src / "repro")], prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        names.append(info.name)
    return sorted(names)


def check_modules() -> List[str]:
    """Modules that fail to import or lack a docstring."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = []
    for name in iter_public_modules():
        try:
            module = importlib.import_module(name)
        except Exception as exc:  # pydoc would fail identically
            problems.append(f"{name}: import failed -- {exc!r}")
            continue
        doc = (module.__doc__ or "").strip()
        if not doc:
            problems.append(f"{name}: missing module docstring")
    return problems


#: Rule-id tokens worth cross-checking: the rules' prefix with a
#: three-digit number.  Keeping the prefix explicit avoids false
#: positives on other ALLCAPS+digits tokens in prose.
_RULE_ID = re.compile(r"\bDET[0-9]{3}\b")

#: The test module that states the rules, in its ``RULES`` tuple.
RULES_MODULE = "tests/unit/test_determinism_contract.py"

#: The document that must describe every rule.
RULES_DOC = "docs/determinism.md"


def rule_ids() -> Set[str]:
    """The rule ids of :data:`RULES_MODULE`'s ``RULES`` literal."""
    tree = ast.parse((REPO_ROOT / RULES_MODULE).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "RULES"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise LookupError(f"{RULES_MODULE} defines no RULES tuple")


def check_rule_ids() -> List[str]:
    """Contract-test/docs rule-id drift, in both directions."""
    registered = rule_ids()
    problems = []

    rules_doc = REPO_ROOT / RULES_DOC
    documented = (
        set(_RULE_ID.findall(rules_doc.read_text()))
        if rules_doc.is_file()
        else set()
    )
    for rule_id in sorted(registered - documented):
        problems.append(
            f"{RULES_DOC}: rule {rule_id} is not documented"
        )

    for doc in iter_doc_files(NAME_DOC_GLOBS):
        for rule_id in sorted(set(_RULE_ID.findall(doc.read_text()))):
            if rule_id not in registered:
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: mentions rule "
                    f"{rule_id}, which {RULES_MODULE} does not state"
                )
    return problems


#: A backticked span's leading dotted ``repro.`` name.
_DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def resolve_dotted_name(name: str) -> bool:
    """Whether ``name`` is an importable module or an attribute path in one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def check_dotted_names() -> List[str]:
    """Backticked ``repro.x.y`` names in the docs that do not resolve."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = []
    for doc in iter_doc_files(NAME_DOC_GLOBS):
        for number, line in enumerate(doc.read_text().splitlines(), 1):
            for name in _DOTTED_NAME.findall(line):
                if not resolve_dotted_name(name):
                    problems.append(
                        f"{doc.relative_to(REPO_ROOT)}:{number}: "
                        f"{name} does not resolve"
                    )
    return problems


def main() -> int:
    problems = (
        check_links() + check_modules() + check_rule_ids()
        + check_dotted_names()
    )
    for problem in problems:
        print(problem)
    checked = len(iter_doc_files())
    modules = len(iter_public_modules())
    if problems:
        print(f"\nFAILED: {len(problems)} problem(s)")
        return 1
    print(
        f"ok: {checked} doc files link-clean, {modules} modules "
        "documented, rule ids in sync, dotted names resolve"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
