"""Unit tests of the shard map and history partitioning."""

import zlib
from collections import Counter

import pytest

from repro.common.errors import ConfigurationError
from repro.common.ids import OperationId
from repro.history.events import Crash, Invoke, Recover, Reply
from repro.history.history import History
from repro.history.partition import partition_history
from repro.kv.sharding import HashShardMap


class TestHashShardMap:
    def test_stable_across_instances(self):
        a, b = HashShardMap(8), HashShardMap(8)
        for i in range(100):
            key = f"key-{i}"
            assert a.shard_of(key) == b.shard_of(key)

    def test_in_range(self):
        m = HashShardMap(5)
        assert all(0 <= m.shard_of(f"k{i}") < 5 for i in range(1000))

    def test_single_shard(self):
        m = HashShardMap(1)
        assert all(m.shard_of(f"k{i}") == 0 for i in range(50))

    def test_balanced(self):
        m = HashShardMap(8)
        counts = Counter(m.shard_of(f"user:{i}") for i in range(8000))
        assert len(counts) == 8
        assert min(counts.values()) > 500

    def test_shard_is_crc32_of_the_utf8_key_mod_num_shards(self):
        """The pinned KV fingerprints depend on this exact formula."""
        m = HashShardMap(7)
        for key in ("k", "k0", "k5", "user:42", "ключ"):
            assert m.shard_of(key) == zlib.crc32(key.encode("utf-8")) % 7

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            HashShardMap(0)


def _op(pid, seq):
    return OperationId(pid=pid, seq=seq)


class TestPartitionHistory:
    def test_splits_by_register_and_replicates_failures(self):
        a, b = _op(0, 1), _op(1, 2)
        history = History(
            [
                Invoke(time=0.0, pid=0, op=a, kind="write", value="x"),
                Crash(time=1.0, pid=2),
                Invoke(time=2.0, pid=1, op=b, kind="read"),
                Recover(time=3.0, pid=2),
                Reply(time=4.0, pid=0, op=a, kind="write"),
                Reply(time=5.0, pid=1, op=b, kind="read", result="x"),
            ]
        )
        registers = {a: "alpha", b: "beta"}
        parts = partition_history(history, registers.get)
        assert set(parts) == {"alpha", "beta"}
        assert len(parts["alpha"]) == 4  # invoke, crash, recover, reply
        assert len(parts["beta"]) == 4
        for part in parts.values():
            part.assert_well_formed()

    def test_forced_registers_get_failure_only_histories(self):
        history = History([Crash(time=0.0, pid=0), Recover(time=1.0, pid=0)])
        parts = partition_history(history, lambda op: None, registers=["quiet"])
        assert len(parts["quiet"]) == 2
        parts["quiet"].assert_well_formed()

    def test_interleaved_per_process_ops_become_well_formed(self):
        """A process with two registers open at once is ill-formed as a
        single history but well-formed per register."""
        a, b = _op(0, 1), _op(0, 2)
        history = History(
            [
                Invoke(time=0.0, pid=0, op=a, kind="write", value="x"),
                Invoke(time=1.0, pid=0, op=b, kind="write", value="y"),
                Reply(time=2.0, pid=0, op=b, kind="write"),
                Reply(time=3.0, pid=0, op=a, kind="write"),
            ]
        )
        assert not history.is_well_formed()
        registers = {a: "alpha", b: "beta"}
        parts = partition_history(history, registers.get)
        for part in parts.values():
            part.assert_well_formed()
