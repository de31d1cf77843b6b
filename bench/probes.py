"""Layer probes: tight loops over one public function per layer.

``python bench/run.py --probes`` reports ``probe.<layer>.ns_per_call``.
The traced run ranks layers with a profiler attached, which inflates
call-heavy code; the probes time the same layers' primitives with no
profiler, so a share that the profile claims and no probe supports is
profiler distortion.  Unlike the workloads these import the layers
directly -- a refactor that moves a primitive has to move its probe.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from typing import Callable, Dict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: Each probe repeats its loop this often and keeps the fastest.
REPEATS = 3
CHECKER_OPS = 100_000


def _best(loop: Callable[[], float]) -> float:
    return min(loop() for _ in range(REPEATS))


def probe_kernel(n: int = 200_000) -> float:
    from repro.sim.kernel import Kernel

    def noop() -> None:
        pass

    def loop() -> float:
        kernel = Kernel(seed=0)
        started = time.perf_counter()
        for i in range(n):
            kernel.schedule(i * 1e-6, noop)
        kernel.run()
        return time.perf_counter() - started

    return _best(loop) / n * 1e9


def probe_network(n: int = 100_000) -> float:
    from repro.common.config import NetworkConfig
    from repro.protocol.messages import SnQuery
    from repro.sim.kernel import Kernel
    from repro.sim.network import SimNetwork

    message = SnQuery(op=None, round_no=1)

    def loop() -> float:
        kernel = Kernel(seed=0)
        network = SimNetwork(kernel, 2, NetworkConfig())
        network.attach(0, lambda envelope: None)
        network.attach(1, lambda envelope: None)
        started = time.perf_counter()
        for _ in range(n):
            network.send(0, 1, message, 0)
        kernel.run()
        return time.perf_counter() - started

    return _best(loop) / n * 1e9


def probe_sim_storage(n: int = 100_000) -> float:
    from repro.common.config import StorageConfig
    from repro.sim.kernel import Kernel
    from repro.sim.storage import SimStableStorage

    def durable() -> None:
        pass

    def loop() -> float:
        kernel = Kernel(seed=0)
        storage = SimStableStorage(kernel, 0, StorageConfig())
        started = time.perf_counter()
        for i in range(n):
            storage.store("written", (i, "v"), 8, durable)
        kernel.run()
        return time.perf_counter() - started

    return _best(loop) / n * 1e9


def _tagged_history(ops: int):
    """A sequential history: writes alternate with reads of the latest."""
    from repro.common.ids import OperationId
    from repro.common.timestamps import Tag
    from repro.history.recorder import HistoryRecorder

    clock = iter(range(1 << 62))
    recorder = HistoryRecorder(clock=lambda: float(next(clock)))
    tag, value = None, None
    for seq in range(ops):
        op = OperationId(pid=seq % 5, seq=seq)
        if seq % 2 == 0:
            tag, value = Tag(seq // 2 + 1, op.pid), f"v{seq}"
            recorder.record_invoke(op, op.pid, "write", value)
            recorder.record_tag(op, tag)
            recorder.record_reply(op, op.pid, "write")
        else:
            recorder.record_invoke(op, op.pid, "read")
            recorder.record_tag(op, tag)
            recorder.record_reply(op, op.pid, "read", value)
    return recorder


def probe_recorder(n: int = 60_000) -> float:
    def loop() -> float:
        started = time.perf_counter()
        _tagged_history(n)
        return time.perf_counter() - started

    return _best(loop) / (3 * n) * 1e9


def probe_checker() -> float:
    """White-box checker, cold, on a fresh tagged history; ns per op."""
    from repro.history.register_checker import check_tagged_history

    recorder = _tagged_history(CHECKER_OPS)
    started = time.perf_counter()
    result = check_tagged_history(recorder.history, recorder)
    elapsed = time.perf_counter() - started
    if not result.ok:
        raise RuntimeError(f"probe history rejected: {result.violations[:1]}")
    return elapsed / CHECKER_OPS * 1e9


def probe_message_size(n: int = 100_000) -> float:
    from repro.common.timestamps import Tag
    from repro.protocol.messages import WriteRequest

    def loop() -> float:
        tag = Tag(1, 0)
        fresh = [WriteRequest(op=None, round_no=2, tag=tag, value="v")
                 for _ in range(n)]
        started = time.perf_counter()
        for message in fresh:
            message.size
        return time.perf_counter() - started

    return _best(loop) / n * 1e9


def probe_muxbatch_size(n: int = 30_000, frames: int = 4) -> float:
    from repro.common.timestamps import Tag
    from repro.protocol.messages import MuxBatch, RegisterFrame, WriteRequest

    def loop() -> float:
        tag = Tag(1, 0)
        fresh = [
            MuxBatch(op=None, round_no=0, frames=tuple(
                RegisterFrame(
                    register=f"k{i:03d}", depth=0,
                    message=WriteRequest(op=None, round_no=2, tag=tag, value="v"),
                )
                for i in range(frames)
            ))
            for _ in range(n)
        ]
        started = time.perf_counter()
        for batch in fresh:
            batch.size
        return time.perf_counter() - started

    return _best(loop) / n * 1e9


def probe_ring(n: int = 500_000) -> float:
    from repro.obs.ring import RingTrace

    def loop() -> float:
        ring = RingTrace(kinds=("send",))
        started = time.perf_counter()
        for i in range(n):
            ring.record(0.0, 0, 1, None)
        return time.perf_counter() - started

    return _best(loop) / n * 1e9


def probe_file_storage(n: int = 150) -> float:
    from pathlib import Path

    from repro.runtime.storage import FileStableStorage

    root = os.path.join(BENCH_DIR, "out", f"probe-store-{os.getpid()}")

    def loop() -> float:
        os.makedirs(root)
        try:
            storage = FileStableStorage(Path(root))
            started = time.perf_counter()
            for i in range(n):
                storage.store("written", (i, "v"), 8)
            return time.perf_counter() - started
        finally:
            shutil.rmtree(root, ignore_errors=True)

    return _best(loop) / n * 1e9


PROBES: Dict[str, Callable[[], float]] = {
    "probe.sim.kernel.ns_per_call": probe_kernel,
    "probe.sim.network.ns_per_call": probe_network,
    "probe.sim.storage.ns_per_call": probe_sim_storage,
    "probe.history.recorder.ns_per_call": probe_recorder,
    "probe.history.checker.ns_per_call": probe_checker,
    "probe.protocol.messages.ns_per_call": probe_message_size,
    "probe.protocol.messages.muxbatch.ns_per_call": probe_muxbatch_size,
    "probe.obs.ns_per_call": probe_ring,
    "probe.runtime.storage.ns_per_call": probe_file_storage,
}


def run_probes() -> Dict[str, float]:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return {name: probe() for name, probe in PROBES.items()}
