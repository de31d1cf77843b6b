"""Determinism rules: DET001 (randomness), DET002 (wall clock), DET003
(unordered iteration).

These three rules statically close the nondeterminism holes the golden
transcripts can only sample:

* **DET001** -- the kernel owns the seeded random stream; everything
  else must construct a private ``random.Random(seed)``.  Process-global
  :mod:`random` functions, unseeded ``Random()``, ``os.urandom``,
  ``uuid.uuid4`` and friends make a run depend on interpreter state or
  the OS entropy pool, which no seed can pin.
* **DET002** -- simulated code runs on virtual time; a wall-clock read
  (``time.time``/``monotonic``/``perf_counter``, ``datetime.now``)
  inside sim/protocol/scenario/history code leaks real time into a
  seeded run.  Every reference counts, called or not: the kernel takes
  its clock as an argument, so ``Kernel(clock=time.monotonic)`` leaks
  as surely as ``time.monotonic()``.  The live runtime is scoped out
  in :mod:`repro.lint.config` -- measuring wall time is its job.
* **DET003** -- iterating a ``set``/``frozenset`` (or a dict built
  from one) has no deterministic order under hash randomization; in
  code reachable from ``fingerprint()``/transcript emission the order
  leaks straight into the bytes the determinism contract compares.
  Wrap the iterable in ``sorted(...)``, or feed an order-insensitive
  consumer (``set``/``sum``/``len``/``min``/``max``/``any``/``all``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.lint.config import (
    FINGERPRINT_SCOPE,
    RNG_OWNER_MODULES,
    allows_wall_clock,
)
from repro.lint.findings import Finding
from repro.lint.rules.base import (
    ModuleUnderLint,
    Rule,
    call_name,
    module_imports,
    resolved_name,
)

#: Entropy sources no seed can pin; flagged everywhere, even in
#: modules that own private RNGs.
_NEVER_SEEDED = {
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "random.SystemRandom",
}

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


class DET001(Rule):
    """No unseeded randomness outside the declared RNG owners."""

    id = "DET001"
    title = "unseeded randomness"

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        origins = module_imports(module.tree)
        rng_owner = module.path in RNG_OWNER_MODULES
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolved_name(node.func, origins)
            if not target:
                continue
            if target in _NEVER_SEEDED or target.startswith("secrets."):
                yield self.finding(
                    module.path,
                    node,
                    f"{target} draws OS entropy no seed can pin; derive "
                    "from the run's seeded stream instead",
                )
            elif target == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module.path,
                        node,
                        "random.Random() without a seed argument is "
                        "seeded from OS entropy; pass an explicit seed",
                    )
            elif target.startswith("random.") and not rng_owner:
                yield self.finding(
                    module.path,
                    node,
                    f"{target} mutates/reads the process-global RNG; "
                    "construct a private random.Random(seed) (only the "
                    "declared RNG-owner modules may touch the global "
                    "stream)",
                )


class DET002(Rule):
    """No wall-clock reads in virtual-time code."""

    id = "DET002"
    title = "wall-clock read in virtual-time code"

    def applies(self, path: str) -> bool:
        return not allows_wall_clock(path)

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        origins = module_imports(module.tree)
        for node in ast.walk(module.tree):
            # Every load of a wall-clock function, called or passed by
            # reference; a call's ``func`` is the one site it reports.
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            target = resolved_name(node, origins)
            if target in _WALL_CLOCK:
                yield self.finding(
                    module.path,
                    node,
                    f"{target} reads the wall clock; simulated code "
                    "runs on virtual time (kernel.now) -- only the live "
                    "runtime and bench harnesses may measure real time",
                )


class DET003(Rule):
    """No unordered-set iteration in fingerprint scope."""

    id = "DET003"
    title = "unordered iteration in fingerprint scope"

    def applies(self, path: str) -> bool:
        return path in FINGERPRINT_SCOPE

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for scope in _scopes(module.tree):
            yield from _check_scope(self, module.path, scope)


# -- DET003 machinery ------------------------------------------------------


def _scopes(tree: ast.Module):
    """The module and every (async) function, shallowest first."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_scope(scope: ast.AST):
    """Every node belonging to ``scope``, pre-order, in document order.

    Does not descend into nested (async) functions -- those are their
    own scopes and are checked separately by :func:`_scopes`.
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
        name = call_name(node.func)
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
            if call_name(node.func) in _ORDER_FREE_CONSUMERS:
                for arg in node.args:
                    blessed.add(id(arg))
    return blessed


def _check_scope(rule: Rule, path: str, scope: ast.AST) -> Iterator[Finding]:
    unordered = _unordered_vars(scope)
    blessed = _blessed_nodes(scope)

    def offending(expr: ast.AST) -> bool:
        if id(expr) in blessed:
            return False
        if isinstance(expr, ast.Call) and call_name(expr.func) in (
            "enumerate",
            "reversed",
            "iter",
        ):
            return bool(expr.args) and offending(expr.args[0])
        return _is_unordered(expr, unordered)

    for node in _walk_scope(scope):
        if isinstance(node, (ast.For, ast.AsyncFor)) and offending(node.iter):
            yield rule.finding(
                path,
                node,
                "for-loop over a set has no deterministic order in "
                "fingerprint scope; iterate sorted(...) instead",
            )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            if id(node) in blessed:
                continue
            first = node.generators[0].iter if node.generators else None
            if first is not None and offending(first):
                yield rule.finding(
                    path,
                    node,
                    "comprehension over a set produces nondeterministic "
                    "order in fingerprint scope; wrap the iterable in "
                    "sorted(...) or feed an order-free consumer",
                )
        elif isinstance(node, ast.Call):
            name = call_name(node.func)
            if (
                name in _ORDER_SENSITIVE_CONSUMERS
                and node.args
                and offending(node.args[0])
            ):
                yield rule.finding(
                    path,
                    node,
                    f"{name}(...) over a set freezes an arbitrary order "
                    "into fingerprint scope; use sorted(...)",
                )
            elif (
                name.endswith("join")
                and isinstance(node.func, ast.Attribute)
                and node.args
                and offending(node.args[0])
            ):
                yield rule.finding(
                    path,
                    node,
                    "str.join over a set serializes a nondeterministic "
                    "order into fingerprint scope; use sorted(...)",
                )
