"""Per-rule scopes and allowlists for the linter.

Everything here is *policy*: which directory trees are linted, which
modules legitimately own a private RNG, which are allowed to read the
wall clock, and which are in the fingerprint's blast radius.  The rule
implementations in :mod:`repro.lint.rules` read these constants and
hold no paths of their own.

All paths are repo-relative POSIX strings (``src/repro/...``); fixture
files impersonate a policy path with a ``# repro-lint: pretend`` line
(see :mod:`repro.lint.suppressions`).
"""

from __future__ import annotations

from pathlib import Path

#: The repository root (``config.py`` lives at src/repro/lint/).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Directory trees ``lint_tree`` walks, repo-relative.
ROOTS = ("src/repro",)

#: DET001 -- modules that own private RNGs / seed derivation and may
#: therefore touch module-level :mod:`random` state (the fleet's
#: worker reseed).  ``os.urandom`` / ``uuid.uuid4`` / ``SystemRandom``
#: are never seedable and stay flagged even here.
RNG_OWNER_MODULES = frozenset({"src/repro/scenarios/pool.py"})

#: DET002 -- module prefixes allowed to read the wall clock: the live
#: runtime (real sockets, real time) and its façade adapter.  The
#: paper-figure harnesses under ``experiments/`` use virtual time only
#: and are checked like the rest of the simulator; wall-clock
#: measurement lives in ``bench/``, outside ``src/``.
WALL_CLOCK_ALLOWED_PREFIXES = (
    "src/repro/runtime/",
    "src/repro/api/live.py",
)

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


def allows_wall_clock(path: str) -> bool:
    """Whether the module at ``path`` may read the wall clock (DET002)."""
    return any(
        path.startswith(prefix) or path == prefix.rstrip("/")
        for prefix in WALL_CLOCK_ALLOWED_PREFIXES
    )
