"""Per-rule scopes, allowlists and pinned manifests for the linter.

Everything here is *policy*: which modules legitimately own a private
RNG, which are allowed to read the wall clock, which are in the
fingerprint's blast radius, and the pinned trace-kind manifest that
makes ring encodings append-only.  The rule implementations in
:mod:`repro.lint.rules` stay policy-free and read their scope from a
:class:`LintConfig`, so tests (and fixtures) can lint snippets under
any policy they like.

All paths are repo-relative POSIX strings (``src/repro/...``); fixture
files impersonate a policy path with a ``# repro-lint: pretend`` line
(see :mod:`repro.lint.suppressions`).

**PINNED_TRACE_KINDS is the append-only manifest** behind rule TRC001:
the flight-recorder ring encodes kinds positionally, so
``repro.obs.tracing.ALL_KINDS`` must keep this exact prefix forever.
Adding a trace kind means appending it to ``ALL_KINDS`` *and* here --
the second append is the explicit acknowledgment that old exported
rings stay decodable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, Mapping, Tuple

#: The repository root (``config.py`` lives at src/repro/lint/).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: The append-only prefix of ``repro.obs.tracing.ALL_KINDS`` (TRC001).
#: PR 8 appended the three ckpt kinds by hand-discipline; from here on
#: the linter enforces it.
PINNED_TRACE_KINDS: Tuple[str, ...] = (
    "send",
    "deliver",
    "drop",
    "duplicate",
    "store_begin",
    "store_end",
    "invoke",
    "reply",
    "crash",
    "recover",
    "recovery_done",
    "timer",
    "ckpt_begin",
    "ckpt_tentative",
    "ckpt_commit",
)

#: Façade fault verb -> capability flag that must gate it (API001).
#: ``crash``/``recover`` need crash injection; ``partition``/``heal``
#: ride on the simulated network (docs/api.md: "exactly where
#: virtual_time does"); the storage verbs need ``storage_faults``.
FAULT_VERB_CAPABILITIES: Mapping[str, str] = {
    "crash": "crash_injection",
    "recover": "crash_injection",
    "partition": "virtual_time",
    "heal": "virtual_time",
    "corrupt_record": "storage_faults",
    "lose_stores": "storage_faults",
    "slow_storage": "storage_faults",
}

#: Capability constant names (repro.api.types) -> their string values,
#: so API001 can resolve ``frozenset({VIRTUAL_TIME, ...})`` statically.
CAPABILITY_NAMES: Mapping[str, str] = {
    "VIRTUAL_TIME": "virtual_time",
    "SHARDING": "sharding",
    "CRASH_INJECTION": "crash_injection",
    "TRACE": "trace",
    "STORAGE_FAULTS": "storage_faults",
}


def _paths(*relpaths: str) -> FrozenSet[str]:
    return frozenset(relpaths)


@dataclass(frozen=True)
class LintConfig:
    """One linting policy: scopes and allowlists, as pure data."""

    #: Directory trees ``lint_tree`` walks, repo-relative.
    roots: Tuple[str, ...] = ("src/repro",)

    #: DET001 -- modules that own private RNGs / seed derivation and
    #: may therefore touch module-level :mod:`random` state (the
    #: fleet's worker reseed; fault primitives' seeded generators).
    #: ``os.urandom`` / ``uuid.uuid4`` / ``SystemRandom`` are never
    #: seedable and stay flagged even here.
    rng_owner_modules: FrozenSet[str] = _paths(
        "src/repro/scenarios/faults.py",
        "src/repro/scenarios/pool.py",
    )

    #: DET002 -- module prefixes allowed to read the wall clock: the
    #: live runtime (real sockets, real time) and its façade adapter.
    #: The paper-figure harnesses under ``experiments/`` use virtual
    #: time only and are checked like the rest of the simulator;
    #: wall-clock measurement lives in ``bench/``, outside ``src/``.
    wall_clock_allowed_prefixes: Tuple[str, ...] = (
        "src/repro/runtime/",
        "src/repro/api/live.py",
    )

    #: DET003 -- modules reachable from ``fingerprint()`` / transcript
    #: emission, where iteration order leaks into the determinism
    #: contract's byte-identical payloads.
    fingerprint_scope: FrozenSet[str] = _paths(
        "src/repro/scenarios/runner.py",
        "src/repro/scenarios/spec.py",
        "src/repro/scenarios/library.py",
        "src/repro/scenarios/soak.py",
        "src/repro/scenarios/fleet.py",
        "src/repro/obs/tracing.py",
        "src/repro/obs/ring.py",
        "src/repro/history/history.py",
        "src/repro/history/partition.py",
    )

    #: TRC001 -- the module that owns ``ALL_KINDS``.
    trace_kinds_module: str = "src/repro/obs/tracing.py"

    #: TRC001 -- the append-only manifest (see module docstring).
    pinned_trace_kinds: Tuple[str, ...] = PINNED_TRACE_KINDS

    #: API001 -- where façade backends live.
    api_prefix: str = "src/repro/api/"

    #: API001 -- fault verb -> required capability string.
    fault_verb_capabilities: Mapping[str, str] = field(
        default_factory=lambda: dict(FAULT_VERB_CAPABILITIES)
    )

    #: API001 -- capability constant name -> string value.
    capability_names: Mapping[str, str] = field(
        default_factory=lambda: dict(CAPABILITY_NAMES)
    )

    #: POOL001 -- modules whose dataclasses cross the spawn-pool
    #: boundary (must stay frozen and picklable).
    pool_modules: FrozenSet[str] = _paths(
        "src/repro/scenarios/pool.py",
        "src/repro/scenarios/faults.py",
    )

    def is_rng_owner(self, path: str) -> bool:
        return path in self.rng_owner_modules

    def allows_wall_clock(self, path: str) -> bool:
        return any(
            path.startswith(prefix) or path == prefix.rstrip("/")
            for prefix in self.wall_clock_allowed_prefixes
        )

    def in_fingerprint_scope(self, path: str) -> bool:
        return path in self.fingerprint_scope

    def is_api_module(self, path: str) -> bool:
        return path.startswith(self.api_prefix)

    def is_pool_module(self, path: str) -> bool:
        return path in self.pool_modules


#: The repository's own policy, used by ``repro lint`` and the tests.
DEFAULT_CONFIG = LintConfig()
