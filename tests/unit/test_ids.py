"""Unit tests for process and operation identifiers."""

import pickle
import threading

import pytest

from repro.common.ids import OperationId, make_operation_id


class TestOperationIds:
    def test_ids_are_unique(self):
        ids = {make_operation_id(0) for _ in range(100)}
        assert len(ids) == 100

    def test_id_carries_invoking_pid(self):
        assert make_operation_id(3).pid == 3

    def test_ids_are_ordered(self):
        first = make_operation_id(1)
        second = make_operation_id(1)
        assert first < second

    def test_equality_is_structural(self):
        assert OperationId(pid=1, seq=5) == OperationId(pid=1, seq=5)
        assert OperationId(pid=1, seq=5) != OperationId(pid=2, seq=5)

    def test_str_names_process_and_sequence(self):
        assert str(OperationId(pid=2, seq=9)) == "op(p2#9)"

    def test_repr_names_the_fields(self):
        # The golden transcripts print ids both ways.
        assert repr(OperationId(2, 9)) == "OperationId(pid=2, seq=9)"

    def test_orders_by_pid_then_sequence(self):
        ids = [OperationId(1, 0), OperationId(0, 7), OperationId(0, 2)]
        assert sorted(ids) == [OperationId(0, 2), OperationId(0, 7), OperationId(1, 0)]

    def test_is_the_pair_it_holds(self):
        op = OperationId(pid=3, seq=4)
        assert op == (3, 4) and hash(op) == hash((3, 4))
        assert {op: "x"}[OperationId(3, 4)] == "x"
        assert not hasattr(op, "__dict__")
        with pytest.raises(AttributeError):
            op.seq = 5

    def test_pickle_round_trip(self):
        op = OperationId(pid=3, seq=4)
        clone = pickle.loads(pickle.dumps(op))
        assert clone == op and type(clone) is OperationId

    def test_concurrent_minting_stays_unique(self):
        results = []
        lock = threading.Lock()

        def mint():
            local = [make_operation_id(0) for _ in range(200)]
            with lock:
                results.extend(local)

        threads = [threading.Thread(target=mint) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(results)) == len(results)
