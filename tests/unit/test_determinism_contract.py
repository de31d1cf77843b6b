"""The determinism contract: three AST scans over ``src/repro``.

A simulated run is a pure function of (program, seed): same seed, same
transcript, fingerprint and verdict, byte for byte.  The golden
transcripts and the fleet's parity canaries *sample* that promise on
the seeds a run happens to execute.  The scans here reject, on every
commit, the code shapes that could break it on some other seed, some
other machine or some other hash-randomization draw:

* **DET001** -- no unseeded randomness outside the declared RNG owners;
* **DET002** -- no wall-clock read in virtual-time code;
* **DET003** -- no unordered-set iteration in fingerprint scope.

Every rule must fire on its fixture under ``tests/data/lint_fixtures/``
(scanned as the policy path :data:`RULE_FIXTURES` gives it): a rule
that never fires has silently stopped guarding anything.  The sites
that read the wall clock on purpose are listed, with their reasons, in
:data:`ALLOWANCES`; an allowance that no longer matches its findings
fails too, so dead entries cannot blanket a future regression.  See
``docs/determinism.md``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "data" / "lint_fixtures"

#: Every rule id (``tools/check_docs.py`` reads this literal to check
#: that ``docs/determinism.md`` documents exactly these rules).
RULES = ("DET001", "DET002", "DET003")

#: What each rule rejects and what to write instead, for the report.
HINTS = {
    "DET001": "unseeded randomness; construct a private "
    "random.Random(seed) derived from the run's seeded stream",
    "DET002": "wall-clock read in virtual-time code; simulated code runs "
    "on kernel.now -- only the live runtime may measure real time",
    "DET003": "set iteration in fingerprint scope; iterate sorted(...) or "
    "feed an order-free consumer",
}

#: ``(rule, line)``: one violation in one module.
Finding = Tuple[str, int]

# -- policy: which modules each rule covers, and the names it knows ----------

#: DET001 -- modules that own private RNGs / seed derivation and may
#: therefore touch module-level :mod:`random` state (the fleet's
#: worker reseed).  ``os.urandom`` / ``uuid.uuid4`` / ``SystemRandom``
#: are never seedable and stay flagged even here.
RNG_OWNER_MODULES = frozenset({"src/repro/scenarios/pool.py"})

#: Entropy sources no seed can pin; flagged everywhere, even in
#: modules that own private RNGs.
_NEVER_SEEDED = {
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "random.SystemRandom",
}

#: DET002 -- module prefixes allowed to read the wall clock: the live
#: runtime (real sockets, real time) and its facade adapter.  The
#: paper-figure harnesses under ``experiments/`` use virtual time only
#: and are checked like the rest of the simulator; wall-clock
#: measurement lives in ``bench/``, outside ``src/``.
WALL_CLOCK_ALLOWED_PREFIXES = (
    "src/repro/runtime/",
    "src/repro/api/live.py",
)

#: Wall-clock reads (DET002).
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: DET003 -- modules reachable from ``fingerprint()`` / transcript
#: emission, where iteration order leaks into the determinism
#: contract's byte-identical payloads.
FINGERPRINT_SCOPE = frozenset(
    {
        "src/repro/scenarios/runner.py",
        "src/repro/scenarios/spec.py",
        "src/repro/scenarios/library.py",
        "src/repro/scenarios/fleet.py",
        "src/repro/obs/tracing.py",
        "src/repro/obs/ring.py",
        "src/repro/history/history.py",
        "src/repro/history/partition.py",
        # The shard pipelines' drain order decides which operations
        # issue together, so it moves every KV fingerprint.
        "src/repro/kv/store.py",
        "src/repro/api/kv.py",
    }
)

#: Builtins that consume an iterable order-insensitively (DET003).
_ORDER_FREE_CONSUMERS = {
    "sorted",
    "set",
    "frozenset",
    "len",
    "sum",
    "min",
    "max",
    "any",
    "all",
}

#: Call targets that serialize their argument's order (DET003).
_ORDER_SENSITIVE_CONSUMERS = {"list", "tuple"}


class Allowance(NamedTuple):
    """Findings of ``rule`` in one function that break no contract."""

    module: str
    function: str
    rule: str
    #: How many findings the entry covers: exactly these, no more.
    sites: int
    reason: str


ALLOWANCES = (
    Allowance(
        "src/repro/scenarios/runner.py", "_check", "DET002", 2,
        "CheckOutcome.wall_s is observational check timing, excluded "
        "from the fingerprint",
    ),
    Allowance(
        "src/repro/scenarios/runner.py", "run_scenario", "DET002", 2,
        "ScenarioResult.wall_s is observational wall timing, excluded "
        "from the fingerprint",
    ),
    Allowance(
        "src/repro/scenarios/fleet.py", "run_fleet", "DET002", 4,
        "FleetReport.wall_s is observational wall timing, and the pool "
        "deadline guards CI wall time: it cancels runs, never alters a "
        "completed run's fingerprint",
    ),
    Allowance(
        "src/repro/scenarios/fleet.py", "run_fleet", "DET003", 1,
        "cancelling the pending futures is an order-free side effect on "
        "an abandoned run; no fingerprint survives it",
    ),
)

# -- the scans ---------------------------------------------------------------


def scan(tree: ast.Module, path: str) -> List[Finding]:
    """Every finding in ``tree``, scanned as the module at ``path``."""
    findings = list(_det001(tree, path))
    if not path.startswith(WALL_CLOCK_ALLOWED_PREFIXES):
        findings += _det002(tree)
    if path in FINGERPRINT_SCOPE:
        for scope in _scopes(tree):
            findings += _det003(scope)
    return sorted(findings)


def _det001(tree: ast.Module, path: str) -> Iterator[Finding]:
    origins = _module_imports(tree)
    rng_owner = path in RNG_OWNER_MODULES
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolved_name(node.func, origins)
        if target in _NEVER_SEEDED or target.startswith("secrets."):
            yield "DET001", node.lineno
        elif target == "random.Random":
            if not node.args and not node.keywords:
                yield "DET001", node.lineno
        elif target.startswith("random.") and not rng_owner:
            yield "DET001", node.lineno


def _det002(tree: ast.Module) -> Iterator[Finding]:
    origins = _module_imports(tree)
    for node in ast.walk(tree):
        # Every load of a wall-clock function, called or passed by
        # reference (the kernel takes its clock as an argument); a
        # call's ``func`` is the one site it reports.
        if (
            isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
            and _resolved_name(node, origins) in _WALL_CLOCK
        ):
            yield "DET002", node.lineno


def _det003(scope: ast.AST) -> Iterator[Finding]:
    unordered = _unordered_vars(scope)
    blessed = _blessed_nodes(scope)

    def offending(expr: ast.AST) -> bool:
        if id(expr) in blessed:
            return False
        if isinstance(expr, ast.Call) and _call_name(expr.func) in (
            "enumerate",
            "reversed",
            "iter",
        ):
            return bool(expr.args) and offending(expr.args[0])
        return _is_unordered(expr, unordered)

    for node in _walk_scope(scope):
        if isinstance(node, (ast.For, ast.AsyncFor)) and offending(node.iter):
            yield "DET003", node.lineno
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            if id(node) in blessed:
                continue
            first = node.generators[0].iter if node.generators else None
            if first is not None and offending(first):
                yield "DET003", node.lineno
        elif isinstance(node, ast.Call):
            name = _call_name(node.func)
            if (
                name in _ORDER_SENSITIVE_CONSUMERS
                and node.args
                and offending(node.args[0])
            ):
                yield "DET003", node.lineno
            elif (
                name.endswith("join")
                and isinstance(node.func, ast.Attribute)
                and node.args
                and offending(node.args[0])
            ):
                yield "DET003", node.lineno


# -- name resolution -----------------------------------------------------------


def _call_name(node: ast.AST) -> str:
    """Dotted name of a call/attribute target, or ``""``.

    ``random.Random`` -> ``"random.Random"``; ``uuid.uuid4()``'s func
    -> ``"uuid.uuid4"``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _module_imports(tree: ast.Module) -> Dict[str, str]:
    """Local name -> imported dotted origin, for the whole module.

    ``import numpy.random as npr`` -> ``{"npr": "numpy.random"}``;
    ``from random import shuffle as mix`` -> ``{"mix": "random.shuffle"}``.
    """
    origins = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                origins[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                origins[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return origins


def _resolved_name(node: ast.AST, origins: Dict[str, str]) -> str:
    """A name or attribute chain as an import-resolved dotted name."""
    dotted = _call_name(node)
    head, _, rest = dotted.partition(".")
    origin = origins.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


# -- DET003's scope analysis ---------------------------------------------------


def _scopes(tree: ast.Module):
    """The module and every (async) function, shallowest first."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_scope(scope: ast.AST):
    """Every node belonging to ``scope``, pre-order, in document order.

    Does not descend into nested (async) functions -- those are their
    own scopes and are checked separately.
    """
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        yield from _walk_scope(child)


def _unordered_vars(scope: ast.AST) -> Set[str]:
    """Names that are only ever assigned known-unordered values."""
    flags: Dict[str, bool] = {}
    for node in _walk_scope(scope):
        if isinstance(node, ast.Assign):
            value = node.value
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif (
            isinstance(node, ast.AnnAssign)
            and node.value is not None
            and isinstance(node.target, ast.Name)
        ):
            value = node.value
            names = [node.target.id]
        else:
            continue
        current = {name for name, flag in flags.items() if flag}
        unordered = _is_unordered(value, current)
        for name in names:
            prev = flags.get(name)
            flags[name] = unordered if prev is None else (prev and unordered)
    return {name for name, flag in flags.items() if flag}


def _is_unordered(node: ast.AST, unordered_vars: Set[str]) -> bool:
    """Whether ``node`` statically evaluates to an unordered collection."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in unordered_vars
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_unordered(node.left, unordered_vars) or _is_unordered(
            node.right, unordered_vars
        )
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        if name in ("set", "frozenset"):
            return True
        if name == "dict.fromkeys" and node.args:
            # A dict built from a set inherits the set's arbitrary order.
            return _is_unordered(node.args[0], unordered_vars)
        if isinstance(node.func, ast.Attribute):
            base = node.func.value
            if node.func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
                "copy",
            ) and _is_unordered(base, unordered_vars):
                return True
            if node.func.attr in ("keys", "values", "items") and _is_unordered(
                base, unordered_vars
            ):
                return True
    return False


def _blessed_nodes(scope: ast.AST) -> Set[int]:
    """ids of expressions consumed order-insensitively (or sorted)."""
    blessed: Set[int] = set()
    for node in _walk_scope(scope):
        if isinstance(node, ast.Call):
            if _call_name(node.func) in _ORDER_FREE_CONSUMERS:
                for arg in node.args:
                    blessed.add(id(arg))
    return blessed


# -- the tree ----------------------------------------------------------------


class Site(NamedTuple):
    """One finding in the tree, with the function it sits in."""

    module: str
    function: str
    rule: str
    line: int

    def __str__(self) -> str:
        return (
            f"{self.module}:{self.line} (in {self.function}): {self.rule} "
            f"{HINTS[self.rule]}"
        )


def _enclosing_function(tree: ast.Module, line: int) -> str:
    """The innermost function around ``line``, or ``"<module>"``."""
    name, start = "<module>", 0
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and start < node.lineno <= line <= node.end_lineno
        ):
            name, start = node.name, node.lineno
    return name


@pytest.fixture(scope="module")
def tree_sites() -> List[Site]:
    """Every finding under ``src/repro``, allowed or not."""
    files = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    assert len(files) > 50
    sites = []
    for file in files:
        path = file.relative_to(REPO_ROOT).as_posix()
        tree = ast.parse(file.read_text(), filename=path)
        for rule, line in scan(tree, path):
            sites.append(Site(path, _enclosing_function(tree, line), rule, line))
    return sites


def test_tree_is_clean_but_for_the_allowances(tree_sites):
    allowed = {allowance[:3] for allowance in ALLOWANCES}
    unallowed = [site for site in tree_sites if site[:3] not in allowed]
    assert not unallowed, "\n".join(map(str, unallowed))


def test_every_allowance_matches_exactly_its_sites(tree_sites):
    found = Counter(site[:3] for site in tree_sites)
    wrong = [
        f"{allowance.module} {allowance.function} {allowance.rule}: "
        f"{found[allowance[:3]]} finding(s), the entry allows {allowance.sites}"
        for allowance in ALLOWANCES
        if found[allowance[:3]] != allowance.sites
    ]
    assert not wrong, "\n".join(wrong)


# -- the rules fire ------------------------------------------------------------

#: rule -> (fixture, the policy path it is scanned as, its findings).
RULE_FIXTURES = {
    "DET001": (
        "det001_unseeded.py",
        "src/repro/protocol/jitter.py",
        [("DET001", 9), ("DET001", 10), ("DET001", 11), ("DET001", 12)],
    ),
    "DET002": (
        "det002_wall_clock.py",
        "src/repro/sim/clockless.py",
        [("DET002", 9)],
    ),
    "DET003": (
        "det003_set_iteration.py",
        "src/repro/history/history.py",
        [("DET003", 9)],
    ),
}


def _scan_fixture(name: str, path: str) -> List[Finding]:
    return scan(ast.parse((FIXTURES / name).read_text()), path)


@pytest.mark.parametrize("rule", RULES)
def test_rule_fires_on_its_fixture(rule):
    fixture, path, findings = RULE_FIXTURES[rule]
    assert _scan_fixture(fixture, path) == findings


def test_clean_fixture_has_no_findings():
    # history.py is in every rule's scope.
    assert _scan_fixture("clean.py", "src/repro/history/history.py") == []


def test_scopes_exempt_only_what_they_name():
    # The RNG owner may reseed the global stream, but never draw OS
    # entropy or build an unseeded Random().
    assert _scan_fixture("det001_unseeded.py", "src/repro/scenarios/pool.py") == [
        ("DET001", 9),
        ("DET001", 10),
        ("DET001", 12),
    ]
    assert _scan_fixture("det002_wall_clock.py", "src/repro/runtime/clock.py") == []
    assert _scan_fixture("det003_set_iteration.py", "src/repro/sim/node.py") == []


def test_wall_clock_reference_is_flagged_once_per_site():
    # Since the clock is a Kernel argument, a wall-clock function passed
    # by reference leaks real time as surely as a call does.
    source = (
        "import time\n"
        "from time import perf_counter\n"
        "from repro.common.kernel import Kernel\n"
        "KERNEL = Kernel(clock=time.monotonic)\n"
        "STAMP = perf_counter\n"
        "T = time.time()\n"
    )
    assert scan(ast.parse(source), "src/repro/sim/leaky.py") == [
        ("DET002", 4),
        ("DET002", 5),
        ("DET002", 6),
    ]
