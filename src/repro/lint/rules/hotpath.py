"""HOT001: hot-path emitters must guard event construction.

The PR 2 fast path (and the PR 6 ring numbers) depend on one emitter
discipline: on the per-event path, a :class:`TraceEvent` (a dataclass
plus a detail dict) is only built when somebody will actually see it::

    if trace.wants(tracing.SEND):
        trace.emit(TraceEvent(...))      # slow path, someone listens
    else:
        trace.tick(tracing.SEND, ...)    # allocation-free

A module opts into enforcement with a ``# repro: hot-path`` marker
line (``src/repro/protocol/host.py``,
``src/repro/sim/{network,node,storage}.py`` and
``src/repro/runtime/{transport,node}.py`` carry it).  In a
marked module, every ``.emit(...)`` call and every ``TraceEvent(...)``
construction must sit inside the *body* of an ``if`` whose test calls
``.wants(...)`` (or reads ``.capturing``) -- an emit in the ``else``
branch, or with no guard at all, silently reintroduces the per-event
allocations the benchmarks retired.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.rules.base import ModuleUnderLint, Rule, call_name


def _test_is_guard(test: ast.AST) -> bool:
    """Whether an ``if`` test consults ``.wants(...)``/``.capturing``."""
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "wants":
                return True
        if isinstance(node, ast.Attribute) and node.attr == "capturing":
            return True
    return False


class HOT001(Rule):
    """No unguarded ``TraceEvent``/``emit`` in hot-path modules."""

    id = "HOT001"
    title = "unguarded event construction on a hot path"

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        # Applicability is by marker, not path: the rule runs on every
        # module and checks the marker itself, so a module becomes
        # hot-path by declaring it.
        if not module.hot_path:
            return
        yield from self._walk(module.path, module.tree.body, guarded=False)

    def _walk(self, path: str, body, guarded: bool) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, ast.If):
                inner = guarded or _test_is_guard(stmt.test)
                yield from self._walk(path, stmt.body, inner)
                # The else branch is the tick path: still unguarded
                # unless an enclosing if already proved wants().
                yield from self._walk(path, stmt.orelse, guarded)
                continue
            if not guarded:
                yield from self._check_own_expressions(path, stmt)
            # A nested def's body runs later, outside this guard; it
            # must re-establish its own wants() discipline.
            child_guard = (
                False
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                else guarded
            )
            for attr in ("body", "orelse", "finalbody"):
                child = getattr(stmt, attr, None)
                if child:
                    yield from self._walk(path, child, child_guard)
            for handler in getattr(stmt, "handlers", ()):
                yield from self._walk(path, handler.body, child_guard)

    def _check_own_expressions(
        self, path: str, stmt: ast.stmt
    ) -> Iterator[Finding]:
        """Check the statement's own expressions, not child statements."""
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                continue
            for node in ast.walk(child):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node.func)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                ):
                    yield self.finding(
                        path,
                        node,
                        f"{name or 'trace.emit'}(...) outside a "
                        "trace.wants() guard builds an event even when "
                        "nobody listens; guard it and tick() on the "
                        "fast path",
                    )
                elif name.endswith("TraceEvent"):
                    yield self.finding(
                        path,
                        node,
                        "TraceEvent construction outside a "
                        "trace.wants() guard allocates on the hot "
                        "path; guard it and tick() on the fast path",
                    )
