"""Spawn-safe process-pool plumbing for the scenario fleet.

Seeded scenario runs are fully deterministic, which makes a soak sweep
embarrassingly parallel: no two runs share state, so the only real
work is getting a run *into* a fresh interpreter safely and its result
back out.  This module owns exactly that boundary:

* :class:`RunSpec` -- a frozen, picklable description of one run
  (scenario **name**, protocol, seed, operation budget).  Workers
  re-hydrate through :func:`repro.scenarios.library.get_scenario` and
  :func:`repro.api.open_cluster`; cluster objects, kernels and sockets
  never cross the process boundary.
* :func:`execute_spec` -- the module-level worker entrypoint.  Being a
  plain top-level function makes it picklable under the ``spawn``
  start method (no closures, no lambdas), and it re-seeds the worker's
  process-global :mod:`random` state from the spec so every worker is
  deterministically isolated no matter which pool slot it lands in.
* :func:`fleet_pool` -- a ``ProcessPoolExecutor`` configured the one
  correct way: ``spawn`` start method (fork would duplicate the
  parent's kernel state and is unsafe under threads) and an
  initializer that re-installs this checkout's ``src`` directory on
  ``sys.path``, so workers import :mod:`repro` even when the parent
  was launched via ``PYTHONPATH`` tricks the child does not inherit.

The determinism contract carries over verbatim: a spec executed in a
pool worker yields a :meth:`~repro.scenarios.runner.ScenarioResult
.fingerprint` byte-identical to the same spec executed serially in the
parent -- the fleet driver (:mod:`repro.scenarios.fleet`) asserts that
on every invocation, not just in tests.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.scenarios.library import get_scenario
from repro.scenarios.runner import ScenarioResult, run_scenario

__all__ = [
    "RunSpec",
    "execute_spec",
    "fleet_pool",
    "resolve_spec",
]

#: Where this checkout's importable tree lives (``.../src``); shipped
#: to workers so they can import ``repro`` without inheriting
#: ``PYTHONPATH`` from the parent environment.
SRC_ROOT = str(Path(__file__).resolve().parents[2])


@dataclass(frozen=True)
class RunSpec:
    """One fleet run, as pure picklable data.

    ``None`` fields mean "the scenario's default"; :func:`resolve_spec`
    pins them so a spec that crosses the process boundary is always
    fully concrete (workers must never consult ambient state to fill
    gaps).  ``quick`` trims the budget to the CI smoke size exactly
    like ``repro soak --quick``.
    """

    scenario: str
    protocol: Optional[str] = None
    seed: Optional[int] = None
    ops: Optional[int] = None
    quick: bool = False
    capture_trace: Optional[bool] = None

    def label(self) -> str:
        """A short human-readable run id for progress lines."""
        parts = [self.scenario]
        if self.protocol is not None:
            parts.append(self.protocol)
        parts.append(f"seed={self.seed}" if self.seed is not None else "seed=default")
        if self.ops is not None:
            parts.append(f"ops={self.ops}")
        return " ".join(parts)

    def rng_seed(self) -> int:
        """A deterministic, spec-derived seed for the worker's RNG.

        Stable across interpreters and hash randomization (it hashes
        the canonical spec string with blake2b, not Python ``hash``),
        and distinct for distinct specs, so two workers never share a
        process-global random stream.
        """
        key = (
            f"{self.scenario}|{self.protocol}|{self.seed}|"
            f"{self.ops}|{self.capture_trace}"
        )
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big")


def resolve_spec(spec: RunSpec) -> RunSpec:
    """Pin every defaulted field to its concrete library value.

    Raises :class:`~repro.common.errors.ConfigurationError` for
    unknown scenario names *in the parent*, before any process is
    spawned on a doomed spec.
    """
    scenario = get_scenario(spec.scenario)
    ops = spec.ops
    if ops is None:
        ops = scenario.quick_ops if spec.quick else scenario.default_ops
    if ops < len(scenario.phases):
        raise ConfigurationError(
            f"spec {spec.label()!r} needs >= {len(scenario.phases)} operations"
        )
    return replace(
        spec,
        protocol=spec.protocol or scenario.default_protocol,
        seed=scenario.default_seed if spec.seed is None else spec.seed,
        ops=ops,
        quick=False,
    )


def execute_spec(spec: RunSpec) -> ScenarioResult:
    """Run one spec to completion; the pool's (and canary's) entrypoint.

    Deterministic in, deterministic out: the process-global
    :mod:`random` state is re-seeded from the spec (isolation against
    any library code that touches the shared RNG -- the scenario
    runner itself only uses per-phase private ``random.Random``
    instances), and the result is stripped of its flight-recorder ring
    before it is returned, because rings hold backend internals that
    have no business being pickled across the boundary.
    """
    spec = resolve_spec(spec)
    random.seed(spec.rng_seed())
    result = run_scenario(
        get_scenario(spec.scenario),
        protocol=spec.protocol,
        seed=spec.seed,
        ops=spec.ops,
        capture_trace=spec.capture_trace,
    )
    result.flight_recorder = None
    return result


def _worker_init(src_root: str) -> None:
    """Pool initializer: make this checkout importable in the worker.

    ``spawn`` ships the parent's ``sys.path`` for the import of the
    entrypoint itself, but re-installing ``src`` first keeps workers
    pinned to *this* checkout even if a different ``repro`` is
    installed site-wide or the parent's path entries were relative to
    a working directory the child does not share.
    """
    if src_root not in sys.path:
        sys.path.insert(0, src_root)


def fleet_pool(workers: int) -> ProcessPoolExecutor:
    """A ``spawn``-start process pool wired for scenario execution."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_worker_init,
        initargs=(SRC_ROOT,),
    )
