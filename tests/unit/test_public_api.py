"""The ``repro.api`` public surface, pinned.

Two contracts guard the façade:

* **snapshot**: the exported names and the signatures of the core
  entry points are spelled out here verbatim.  Changing the public
  surface must change this file -- a deliberate, reviewable act, not a
  side effect of a refactor.
* **cross-backend contract**: the same Session program (write / read /
  crash / recover / check) runs unmodified against every backend, and
  the capability declarations match what each backend actually
  raises/supports.  The live backend's half of that contract lives in
  ``tests/integration/test_api_contract.py`` (real sockets are
  integration-speed).
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from functools import partial

import pytest

import repro
import repro.api as api
from repro.api import (
    CRASH_INJECTION,
    LINK_FAULTS,
    SHARDING,
    STORAGE_FAULTS,
    TRACE,
    VIRTUAL_TIME,
    Verdict,
    open_cluster,
)
from repro.api.types import FAULT_VERB_CAPABILITIES
from repro.common.errors import CapabilityError, ConfigurationError

#: Exactly what ``repro.api`` exports.  Additions are fine -- add them
#: here too; removals and renames are breaking changes.
EXPORTED_NAMES = [
    "ALL_CAPABILITIES",
    "BACKENDS",
    "BACKEND_NAMES",
    "CHECK_CRITERIA",
    "CHECK_METHODS",
    "CRASH_INJECTION",
    "Cluster",
    "ClusterStats",
    "DEFAULT_KEY",
    "KVBackend",
    "LINK_FAULTS",
    "LiveBackend",
    "MetricsSnapshot",
    "OpHandle",
    "SHARDING",
    "STORAGE_FAULTS",
    "Session",
    "SimBackend",
    "TRACE",
    "VIRTUAL_TIME",
    "Verdict",
    "open_cluster",
]

#: Signatures of the façade's core entry points, as
#: ``str(inspect.signature(...))`` renders them.
EXPECTED_SIGNATURES = {
    "open_cluster": "(backend: 'str' = 'sim', protocol: 'str' = 'persistent', "
    "num_processes: 'Optional[int]' = None, seed: 'Optional[int]' = None, "
    "**options: 'Any') -> 'Cluster'",
    "Cluster.session": "(self, pid: 'Optional[int]' = None) -> 'Session'",
    "Cluster.check": "(self, criterion: 'str' = 'atomic', "
    "method: 'str' = 'auto') -> 'Verdict'",
    "Cluster.crash": "(self, pid: 'int') -> 'None'",
    "Cluster.recover": "(self, pid: 'int', wait: 'bool' = True, "
    "timeout: 'float' = 5.0) -> 'None'",
    "Cluster.partition": "(self, group_a: 'Sequence[int]', "
    "group_b: 'Sequence[int]') -> 'None'",
    "Cluster.heal": "(self, group_a: 'Optional[Sequence[int]]' = None, "
    "group_b: 'Optional[Sequence[int]]' = None) -> 'None'",
    "Cluster.lose": "(self, probability: 'float', seed: 'int' = 0) -> 'None'",
    "Cluster.slow_link": "(self, links: 'Sequence[Sequence[int]]', "
    "extra_delay: 'float') -> 'None'",
    "Cluster.on_event": "(self, kind: 'str', source_pid: 'Optional[int]', "
    "count: 'int', fn: 'Callable', *args: 'Any') -> 'None'",
    "Cluster.run": "(self, duration: 'Optional[float]' = None, "
    "max_events: 'int' = 1000000) -> 'None'",
    "Cluster.run_until": "(self, predicate: 'Callable[[], bool]', "
    "timeout: 'Optional[float]' = None, poll_every: 'int' = 1, "
    "max_events: 'int' = 1000000) -> 'bool'",
    "Cluster.wait": "(self, handle: 'OpHandle', timeout: 'float' = 5.0, "
    "expect_done: 'bool' = False) -> 'OpHandle'",
    "Cluster.ensure_key": "(self, key: 'str', timeout: 'float' = 10.0) -> 'None'",
    "Cluster.preload": "(self, keys: 'Sequence[str]', "
    "timeout: 'float' = 10.0) -> 'None'",
    "Cluster.defer": "(self, delay: 'float', fn: 'Callable', "
    "*args: 'Any') -> 'None'",
    "Cluster.metrics": "(self) -> 'MetricsSnapshot'",
    "Session.write": "(self, value: 'Any', key: 'Optional[str]' = None) "
    "-> 'OpHandle'",
    "Session.read": "(self, key: 'Optional[str]' = None) -> 'OpHandle'",
    "Session.write_sync": "(self, value: 'Any', key: 'Optional[str]' = None, "
    "timeout: 'float' = 5.0) -> 'OpHandle'",
    "Session.read_sync": "(self, key: 'Optional[str]' = None, "
    "timeout: 'float' = 5.0) -> 'Any'",
    "OpHandle.add_callback": "(self, callback: \"Callable[['OpHandle'], None]\")"
    " -> 'None'",
}


class TestSnapshot:
    def test_exported_names(self):
        assert api.__all__ == EXPORTED_NAMES
        for name in EXPORTED_NAMES:
            assert hasattr(api, name), name

    def test_core_signatures(self):
        for dotted, expected in EXPECTED_SIGNATURES.items():
            target = api
            for part in dotted.split("."):
                target = getattr(target, part)
            assert str(inspect.signature(target)) == expected, dotted

    def test_facade_is_reexported_at_top_level(self):
        for name in ("open_cluster", "Cluster", "Session",
                     "OpHandle", "Verdict", "CapabilityError"):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_every_top_level_name_resolves(self):
        # The scenario names are served lazily (PEP 562); they must
        # still be there for ``from repro import run_scenario``.
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        from repro import run_scenario
        from repro.scenarios import run_scenario as the_real_one

        assert run_scenario is the_real_one
        with pytest.raises(AttributeError):
            repro.no_such_name

    def test_opening_a_cluster_does_not_import_the_process_pool(self):
        program = (
            "import sys, repro\n"
            "with repro.open_cluster(backend='sim', protocol='persistent', seed=7) as c:\n"
            "    c.session(0).write_sync('v')\n"
            "heavy = ('repro.scenarios', 'multiprocessing', 'concurrent.futures.process')\n"
            "print([name for name in heavy if name in sys.modules])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", program],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_a_live_run_does_not_import_asyncio(self):
        program = (
            "import sys, repro\n"
            "with repro.open_cluster(backend='live', num_processes=3) as c:\n"
            "    c.session(0).write_sync('v')\n"
            "    assert c.session(1).read_sync() == 'v'\n"
            "print('asyncio' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", program],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_a_quiet_live_run_imports_neither_logging_nor_socket(self):
        """Set-up pays only for what runs: each costs thousands of calls to import.

        ``logging`` arrives with the first error reported, and the
        transport speaks through ``_socket`` itself.
        """
        program = (
            "import sys, repro\n"
            "with repro.open_cluster(backend='live', num_processes=3) as c:\n"
            "    c.session(0).write_sync('v')\n"
            "    assert c.session(1).read_sync() == 'v'\n"
            "print([name for name in ('logging', 'socket') if name in sys.modules])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", program],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_capability_matrix(self):
        assert api.SimBackend.capabilities == frozenset(
            {VIRTUAL_TIME, CRASH_INJECTION, TRACE, STORAGE_FAULTS, LINK_FAULTS}
        )
        assert api.KVBackend.capabilities == frozenset(
            {VIRTUAL_TIME, SHARDING, CRASH_INJECTION, TRACE, STORAGE_FAULTS,
             LINK_FAULTS}
        )
        assert api.LiveBackend.capabilities == frozenset({CRASH_INJECTION})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            open_cluster(backend="raft")

    @pytest.mark.parametrize("name", api.BACKEND_NAMES)
    def test_resolved_fault_verbs_match_capabilities(self, name):
        # On a started cluster, a verb outside the backend's
        # capabilities raises CapabilityError and changes nothing; a
        # verb inside them runs.
        assert FAULT_VERB_CALLS.keys() == FAULT_VERB_CAPABILITIES.keys()
        seed = None if name == "live" else 3
        with open_cluster(backend=name, num_processes=3, seed=seed) as c:
            c.session(0).write_sync("x")
            for verb, capability in FAULT_VERB_CAPABILITIES.items():
                call = partial(getattr(c, verb), *FAULT_VERB_CALLS[verb])
                if capability in c.capabilities:
                    call()
                    continue
                before = observable_state(c)
                with pytest.raises(CapabilityError, match=verb):
                    call()
                assert observable_state(c) == before, (name, verb)

    def test_sim_backend_options(self):
        assert list(inspect.signature(api.SimBackend).parameters) == [
            "protocol", "num_processes", "seed", "config", "include_broken",
            "capture_trace", "batch_window", "checkpoint_interval",
            "recovery_scan",
        ]

    def test_kv_backend_options(self):
        assert list(inspect.signature(api.KVBackend).parameters) == [
            "protocol", "num_processes", "num_shards", "batch_window",
            "config", "seed", "capture_trace", "checkpoint_interval",
            "recovery_scan",
        ]

    def test_live_backend_options(self):
        assert list(inspect.signature(api.LiveBackend).parameters) == [
            "protocol", "num_processes", "seed", "storage_root", "op_timeout",
        ]


#: A well-formed call of each fault verb on a 3-process cluster, in
#: ``FAULT_VERB_CAPABILITIES`` order (``recover`` follows ``crash``).
FAULT_VERB_CALLS = {
    "crash": (2,),
    "recover": (2,),
    "partition": ([0], [1, 2]),
    "heal": ([0], [1, 2]),
    "lose": (0.0,),
    "slow_link": ([(0, 1)], 0.0),
    "corrupt_record": (0, "no-such-key"),
    "lose_stores": (0, 0),
    "slow_storage": (0, 0.0),
    "on_event": ("send", None, 1, lambda: None),
}


def observable_state(cluster):
    """What a fault verb could change, read without advancing the clock."""
    return (
        dataclasses.replace(cluster.stats(), clock=0.0),
        [(node.crashed, node.crash_count) for node in cluster.nodes],
        len(cluster.history),
    )


def session_program(cluster):
    """The one Session program every backend must run unmodified."""
    with cluster as c:
        alice, bob = c.session(0), c.session(1)
        alice.write_sync("alpha")
        assert bob.read_sync() == "alpha"

        handle = bob.write("beta")
        c.wait(handle)
        assert handle.settled and handle.done and not handle.aborted
        assert handle.latency is not None and handle.latency >= 0.0

        seen = []
        handle.add_callback(lambda h: seen.append(h.kind))
        assert seen == ["write"]  # settled handles fire immediately

        c.crash(0)
        c.recover(0)
        bob.write_sync("gamma")
        assert alice.read_sync() == "gamma"

        c.ensure_key("contract-key")
        alice.write_sync(42, key="contract-key")
        assert bob.read_sync(key="contract-key") == 42
        assert "contract-key" in c.keys()

        verdict = c.check(criterion="atomic")
        assert isinstance(verdict, Verdict)
        assert verdict.ok and bool(verdict)
        return verdict


class TestContractSimBackends:
    """The program against the deterministic backends (live: integration)."""

    def test_sim(self):
        verdict = session_program(
            open_cluster(backend="sim", protocol="persistent", seed=3)
        )
        assert verdict.consistency == "persistent"
        assert verdict.method in ("black-box", "white-box")

    def test_kv(self):
        verdict = session_program(
            open_cluster(backend="kv", protocol="persistent", seed=3)
        )
        assert verdict.method == "per-key"
        assert verdict.per_key and set(verdict.per_key) >= {"contract-key"}

    def test_transient_protocol_resolves_atomic(self):
        with open_cluster(backend="sim", protocol="transient", seed=1) as c:
            c.session(0).write_sync("x")
            assert c.check().consistency == "transient"

    def test_reported_method_round_trips(self):
        with open_cluster(backend="sim", seed=1) as c:
            c.session(0).write_sync("x")
            first = c.check()
            again = c.check(method=first.method)  # "black-box" accepted back
            assert again.method == first.method and again.ok

    def test_regular_criterion(self):
        with open_cluster(backend="sim", seed=1) as c:
            c.session(0).write_sync("x")
            assert c.session(1).read_sync() == "x"
            verdict = c.check(criterion="regular")
            assert verdict.ok and verdict.consistency == "regular"


class TestCapabilityGating:
    def test_sim_partition_stalls_and_heals(self):
        with open_cluster(backend="sim", num_processes=3, seed=2) as c:
            c.partition([0], [1, 2])
            handle = c.session(0).write("stuck")
            c.run(0.05)
            assert not handle.settled  # minority side cannot reach quorum
            c.heal()
            c.wait(handle)
            assert handle.done

    def test_kv_round_robin_session(self):
        with open_cluster(backend="kv", seed=4) as c:
            anon = c.session()  # no pid: the store routes
            anon.write_sync("v")
            assert anon.read_sync() == "v"

    def test_kv_empty_key_rejected_not_remapped(self):
        # Only None aliases the default key; "" must hit the store's
        # own validation instead of silently becoming "default".
        with open_cluster(backend="kv", seed=1) as c:
            with pytest.raises(ConfigurationError):
                c.session(0).write("v", key="")

    def test_sim_session_requires_pid(self):
        with open_cluster(backend="sim", seed=0) as c:
            with pytest.raises(ConfigurationError):
                c.session()

    def test_live_backend_rejects_seed(self):
        with pytest.raises(ConfigurationError):
            open_cluster(backend="live", seed=1)

    def test_stats_uniform_shape(self):
        with open_cluster(backend="sim", seed=6) as c:
            c.session(0).write_sync("x")
            stats = c.stats()
            assert stats.kernel_events > 0
            assert stats.messages_sent > 0
            assert stats.crashes == 0


class TestVerdictShape:
    def test_verdict_failures_and_bool(self):
        verdict = Verdict(
            ok=False,
            criterion="atomic",
            consistency="persistent",
            method="per-key",
            reason="k: broken",
            per_key={
                "k": Verdict(
                    ok=False, criterion="atomic", consistency="persistent",
                    method="white-box", reason="broken",
                )
            },
        )
        assert not verdict
        assert verdict.failures == {"k": "broken"}

    def test_capability_error_is_repro_error(self):
        from repro import ReproError

        assert issubclass(CapabilityError, ReproError)
