"""Property-based tests of the sharded KV store.

Two layers of randomized assurance:

* a **stateful sequential** test: Hypothesis drives an arbitrary
  sequence of write/read/crash/recover commands against the store and
  a model dict.  With one sequential client, per-key atomicity
  collapses to "a read returns the model's value", checked exactly --
  through any interleaving of crashes and recoveries that keeps a
  majority up;
* a **concurrent randomized** test: a zipfian closed-loop workload
  with a random crash/recovery schedule running underneath, judged
  afterwards by partitioning the history per key and running the
  paper's atomicity checkers on every projection (the satellite
  guarantee of the whole KV layer).
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import open_cluster
from repro.common.config import ClusterConfig, NetworkConfig
from repro.scenarios.faults import RandomCrashPlan
from repro.workloads.kv import run_kv_closed_loop

NUM_PROCESSES = 3
KEYS = ("alpha", "beta", "gamma", "delta")

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- stateful sequential test ------------------------------------------------

#: One command of the sequential driver.
commands = st.one_of(
    st.tuples(
        st.just("write"),
        st.sampled_from(KEYS),
        st.integers(min_value=0, max_value=2),  # coordinator preference
    ),
    st.tuples(st.just("read"), st.sampled_from(KEYS), st.integers(0, 2)),
    st.tuples(st.just("crash"), st.just(""), st.integers(0, 2)),
    st.tuples(st.just("recover"), st.just(""), st.integers(0, 2)),
)


@SLOW
@given(
    script=st.lists(commands, min_size=1, max_size=25),
    num_shards=st.sampled_from([1, 2, 4]),
    batch_window=st.sampled_from([0.0, 2e-5]),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_sequential_commands_match_model(script, num_shards, batch_window, seed):
    kv = open_cluster(
        backend="kv",
        protocol="persistent",
        num_processes=NUM_PROCESSES,
        num_shards=num_shards,
        batch_window=batch_window,
        seed=seed,
    ).start()
    model = {}
    crashed = set()
    counter = 0
    majority = NUM_PROCESSES // 2 + 1

    def live_pid(preferred):
        live = [p for p in range(NUM_PROCESSES) if p not in crashed]
        return live[preferred % len(live)]

    for kind, key, pid in script:
        if kind == "crash":
            # Keep a majority up so operations terminate.
            if pid not in crashed and len(crashed) + 1 <= NUM_PROCESSES - majority:
                kv.crash(pid)
                crashed.add(pid)
        elif kind == "recover":
            if pid in crashed:
                kv.recover(pid, wait=True, timeout=10.0)
                crashed.discard(pid)
        elif kind == "write":
            counter += 1
            value = f"{key}={counter}"
            kv.session(live_pid(pid)).write_sync(value, key, timeout=30.0)
            model[key] = value
        else:
            result = kv.session(live_pid(pid)).read_sync(key, timeout=30.0)
            assert result == model.get(key), (
                f"read of {key!r} returned {result!r}, model says "
                f"{model.get(key)!r}"
            )

    # The run as a whole must also pass the per-key checkers.
    verdict = kv.check()
    assert verdict.ok, verdict.failures


# -- concurrent randomized test ----------------------------------------------


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_shards=st.sampled_from([1, 4]),
    batch_window=st.sampled_from([0.0, 5e-5]),
    read_fraction=st.sampled_from([0.3, 0.7]),
    crashes=st.booleans(),
)
def test_concurrent_zipfian_runs_are_per_key_atomic(
    seed, num_shards, batch_window, read_fraction, crashes
):
    config = ClusterConfig(
        num_processes=NUM_PROCESSES,
        network=NetworkConfig(drop_probability=0.01),
        retransmit_interval=1e-3,
        seed=seed,
    )
    kv = open_cluster(
        backend="kv",
        protocol="persistent",
        num_shards=num_shards,
        batch_window=batch_window,
        config=config,
    )
    kv.start()
    if crashes:
        RandomCrashPlan(
            horizon=0.05,
            seed=seed + 1,
            crash_rate=0.4,
            mean_downtime=0.01,
        ).arm(kv)
    report = run_kv_closed_loop(
        kv,
        num_clients=6,
        operations_per_client=4,
        read_fraction=read_fraction,
        num_keys=8,
        zipf_s=0.99,
        seed=seed,
        timeout=240.0,
    )
    assert report.completed + report.aborted + report.unissued == 24
    assert report.completed > 0
    verdict = kv.check()
    assert verdict.ok, verdict.failures
    for history in kv.per_register_histories().values():
        history.assert_well_formed()
