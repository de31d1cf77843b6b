"""One round of one workload, run in a fresh process.

``python bench/driver.py '<json>'`` opens a cluster through
:mod:`repro.api`, drives exactly the requested number of operations
with the benchmark's own closed-loop driver, checks the history, and
prints one JSON object (the round report) as its last line.  The
orchestrator (``bench/run.py``) runs rounds back to back and reports
medians; nothing here looks at the clock to decide how much work to do,
so a simulated round is deterministic per seed.

Only the facade is used -- ``open_cluster``, ``Cluster``, ``Session``,
``OpHandle``, ``Verdict``, ``stats()``, ``metrics()`` -- so refactors
below it cannot break the benchmark.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import heapq
import itertools
import json
import os
import random
import resource
import shutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    # The program under test is the checkout's src/, nothing installed.
    sys.path[:0] = [SRC, ROOT]

from bench.spec import WORKLOADS, Workload  # noqa: E402

#: Virtual seconds a client waits before re-checking a process that is
#: down or still recovering.
RETRY_INTERVAL = 2e-4

#: ``run_until`` budget: far above any healthy run, so hitting it means
#: the cluster stalled and operations are left unissued.
VIRTUAL_TIMEOUT = 600.0
MAX_EVENTS = 1 << 40
POLL_EVERY = 64

LIVE_OP_TIMEOUT = 30.0

#: Calibration.  This shared box moves between a fast, a middle and a
#: slow state (interpreter work, fsync and syscalls all up to x2 slower
#: together), sometimes for minutes, sometimes for a second.  A round
#: therefore cuts its timed work into chunks of ``Workload.chunk``
#: operations and times a short fixed probe (2-5 ms) of the kind of work
#: its workload is made of at every chunk boundary; each chunk's timings
#: are scaled to what they would have read at the reference speed.
#: References are what one probe pass takes on the box this benchmark was
#: defined on, in its fast state.
SPIN_ITERATIONS = 4_000
REFERENCE_SPIN_S = 0.0020
PROBE_STORES = 3
REFERENCE_STORES_S = 0.0019


def clock_of(workload: Workload) -> Callable[[], float]:
    """The clock a workload's host timings (and its probe) are read off.

    A simulated workload is one thread that never waits, so its seconds
    are the process's CPU seconds: on an idle box the same as wall
    seconds, on this shared one free of the time the process sat
    descheduled (which the probe, hit or missed by such a gap, cannot
    bill fairly: with two busy loops beside it sim-write-churn took 65 %
    more wall but 10 % more CPU per operation).  live-loopback waits
    for the disk and for its own threads: wall seconds.
    """
    return time.perf_counter if workload.backend == "live" else time.process_time


def spin_s(clock: Callable[[], float] = time.perf_counter) -> float:
    """One pass of a fixed loop of the interpreter work the simulator is
    made of (heap, dict, small allocations)."""
    started = clock()
    heap: List[Any] = []
    table: Dict[int, Any] = {}
    for i in range(SPIN_ITERATIONS):
        key = (i * 7919) & 1023
        table[key] = [i, key]
        heapq.heappush(heap, (key, i))
        if i & 3 == 3:
            heapq.heappop(heap)
    return clock() - started


def stores_s(directory: str) -> float:
    """One pass of what a durable store asks of the OS: write a small
    file, fsync it, rename it over the record, fsync the directory."""
    tmp, record = os.path.join(directory, "r.tmp"), os.path.join(directory, "r.rec")
    started = time.perf_counter()
    for _store in range(PROBE_STORES):
        with open(tmp, "wb") as handle:
            handle.write(b"x" * 100)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, record)
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return time.perf_counter() - started


class HostProbe:
    """The box's slowness right now for one workload's kind of work:
    1.0 is the reference box in its fast state, 2.0 takes twice as long.

    ``spin`` (the simulated workloads) is the interpreter loop alone;
    ``spin+stores`` (live) is half that and half fsynced stores -- on a
    2 000-chunk series of live-loopback that mix tracked write latency,
    read latency and throughput better than either half or than loopback
    datagram round trips.
    """

    def __init__(self, workload: Workload, scratch: str):
        self.clock = clock_of(workload)
        self.directory = None
        if workload.probe == "spin+stores":
            self.directory = os.path.join(scratch, f"probe-{os.getpid()}")
            os.makedirs(self.directory, exist_ok=True)

    def slowness(self) -> float:
        spin = spin_s(self.clock) / REFERENCE_SPIN_S
        if self.directory is None:
            return spin
        return (spin + stores_s(self.directory) / REFERENCE_STORES_S) / 2

    def close(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


class Calibration:
    """Chunk boundaries of one round's timed window.

    ``mark`` is called before the first operation, every
    ``Workload.chunk`` settled operations, after the last one and after
    the final ``check()``; it times the probe and remembers how many
    samples had been taken.  Chunk *i* runs between marks *i* and
    *i* + 1 and is billed the mean slowness of the two.  A traced round
    has no probe (a profile wants shares, not timings) and slowness 1.
    """

    def __init__(
        self,
        probe: Optional[HostProbe],
        samples: "Samples",
        clock: Callable[[], float],
    ):
        self.probe = probe
        self.samples = samples
        self.clock = clock
        #: Seconds on ``clock``, and CPU seconds, spent in probes so far:
        #: whoever times operations or the run leaves them out.
        self.paused = 0.0
        self.cpu_paused = 0.0
        #: (entered, left, slowness, reads so far, writes so far)
        self.marks: List[Any] = []

    def mark(self) -> None:
        entered, cpu = self.clock(), time.process_time()
        slowness = self.probe.slowness() if self.probe is not None else 1.0
        left = self.clock()
        self.paused += left - entered
        self.cpu_paused += time.process_time() - cpu
        wall = self.samples.wall
        self.marks.append(
            (entered, left, slowness, len(wall["read"]), len(wall["write"]))
        )

    def chunks(self):
        """(raw seconds, slowness, read slice, write slice) per chunk."""
        for a, b in zip(self.marks, self.marks[1:]):
            yield (b[0] - a[1], (a[2] + b[2]) / 2,
                   slice(a[3], b[3]), slice(a[4], b[4]))


def percentile(ordered: List[float], q: int) -> float:
    """Exact nearest-rank percentile of a non-empty ascending list."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[rank - 1]


class ZipfKeys:
    """``count`` keys drawn with probability proportional to rank**-s."""

    def __init__(self, count: int, s: float):
        self.keys = [f"k{i:03d}" for i in range(count)]
        self._cumulative = list(
            itertools.accumulate(1.0 / (rank ** s) for rank in range(1, count + 1))
        )

    def draw(self, rng: random.Random) -> str:
        point = rng.random() * self._cumulative[-1]
        return self.keys[bisect.bisect_left(self._cumulative, point)]


class Samples:
    """Per-operation outcomes of one timed window."""

    def __init__(self) -> None:
        self.completed = 0
        self.aborted = 0
        self.wall: Dict[str, List[float]] = {"read": [], "write": []}
        self.virtual: Dict[str, List[float]] = {"read": [], "write": []}
        self.causal_logs: Dict[str, List[int]] = {"read": [], "write": []}

    @property
    def settled(self) -> int:
        return self.completed + self.aborted

    def settle(self, handle, wall: float, virtual_time: bool) -> None:
        if not handle.done:
            self.aborted += 1
            return
        self.completed += 1
        self.wall[handle.kind].append(wall)
        if virtual_time:
            self.virtual[handle.kind].append(handle.latency)
            logs = getattr(handle, "causal_logs", None)
            if logs is not None:
                self.causal_logs[handle.kind].append(logs)


class ClosedLoop:
    """Closed-loop clients on a virtual-time cluster.

    Each client issues its next operation only after the previous one
    settled, from a fresh kernel event.  ``ops`` is one budget shared by
    all clients.  ``pause(pid, hook)`` asks the client on ``pid`` to
    call ``hook(pid)`` the next time it is between operations -- the
    fault injector crashes a process there, so no operation is ever cut
    off by the benchmark itself; the client then polls ``Session.ready``
    until the process is back.

    The run stops at every ``workload.chunk`` settled operations for
    ``calibration.mark()``; ``run_until`` schedules nothing, so the
    stops leave the simulation as it was, and the wall clock operations
    are timed with skips the pauses.
    """

    def __init__(
        self,
        cluster,
        workload: Workload,
        rng: random.Random,
        ops: int,
        calibration: Calibration,
    ):
        self.cluster = cluster
        self.rng = rng
        self.remaining = ops
        self.calibration = calibration
        self.samples = calibration.samples
        self.chunk = workload.chunk
        self.read_fraction = workload.read_fraction
        self.keys = (
            ZipfKeys(workload.keys, workload.zipf_s) if workload.keys else None
        )
        # Client i is pinned to process i mod N, like a connection to
        # its nearest replica.
        self.sessions = [
            cluster.session(client % workload.num_processes)
            for client in range(workload.clients)
        ]
        self.active = 0
        self._written = 0
        self._hooks: Dict[int, Callable[[int], None]] = {}

    def pause(self, pid: int, hook: Callable[[int], None]) -> None:
        self._hooks[pid] = hook

    def run(self) -> int:
        """Drive every client until the budget is spent; returns unissued."""
        self.active = len(self.sessions)
        self.calibration.mark()
        for client in range(len(self.sessions)):
            self._issue(client)
        advancing = True
        while advancing and self.active:
            target = self.samples.settled + self.chunk
            advancing = self.cluster.run_until(
                lambda: self.active == 0 or self.samples.settled >= target,
                timeout=VIRTUAL_TIMEOUT,
                poll_every=POLL_EVERY,
                max_events=MAX_EVENTS,
            )
            self.calibration.mark()
        return self.remaining

    def _clock(self) -> float:
        return self.calibration.clock() - self.calibration.paused

    def _issue(self, client: int) -> None:
        if self.remaining == 0:
            self.active -= 1
            return
        session = self.sessions[client]
        hook = self._hooks.pop(session.pid, None)
        if hook is not None:
            hook(session.pid)
        if not session.ready:
            self.cluster.defer(RETRY_INTERVAL, self._issue, client)
            return
        self.remaining -= 1
        key = self.keys.draw(self.rng) if self.keys else None
        started = self._clock()
        if self.rng.random() < self.read_fraction:
            handle = session.read(key)
        else:
            self._written += 1
            handle = session.write(f"v{self._written}-c{client}", key)
        handle.add_callback(lambda h: self._settled(client, h, started))

    def _settled(self, client: int, handle, started: float) -> None:
        self.samples.settle(handle, self._clock() - started, True)
        self.cluster.defer(0.0, self._issue, client)


class CrashRotation:
    """Every ``interval`` the next process crashes, down for ``downtime``.

    Driven through the facade only (``defer`` / ``crash`` /
    ``recover(wait=False)``) and deterministic per seed.
    """

    def __init__(self, cluster, loop: ClosedLoop, workload: Workload):
        self.cluster = cluster
        self.loop = loop
        self.interval = workload.fault_interval
        self.downtime = workload.fault_downtime
        self.pids = itertools.cycle(range(workload.num_processes))

    def start(self) -> None:
        self.cluster.defer(self.interval, self._tick)

    def _tick(self) -> None:
        if self.loop.remaining == 0:
            return
        self.loop.pause(next(self.pids), self._crash)
        self.cluster.defer(self.interval, self._tick)

    def _crash(self, pid: int) -> None:
        self.cluster.crash(pid)
        self.cluster.defer(self.downtime, self.cluster.recover, pid, False)


def run_live(
    cluster, workload: Workload, ops: int, calibration: Calibration
) -> int:
    """One client thread beside the loop thread: alternate write/read
    with ``*_sync`` over the sessions in rotation.  Returns unissued."""
    sessions = [cluster.session(pid) for pid in range(workload.num_processes)]
    calibration.mark()
    for index in range(ops):
        session = sessions[index % len(sessions)]
        started = calibration.clock()
        if index % 2 == 0:
            handle = session.write(f"v{index}")
        else:
            handle = session.read()
        # A wait that times out raises: the round fails as a whole.
        cluster.wait(handle, timeout=LIVE_OP_TIMEOUT)
        calibration.samples.settle(handle, calibration.clock() - started, False)
        if (index + 1) % workload.chunk == 0 or index + 1 == ops:
            calibration.mark()
    return 0


def storage_fs(path: str) -> str:
    """Filesystem type holding ``path`` (longest mount-point match)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _dev, mount, kind = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def summarize(
    samples: Samples, wall: Dict[str, List[float]], virtual_time: bool
) -> Dict[str, Any]:
    """Percentiles of what completed; a kind with no sample is omitted.

    ``wall`` holds the calibrated host seconds per kind, ``samples`` the
    virtual ones."""
    report: Dict[str, Any] = {}
    wall_all = sorted(wall["read"] + wall["write"])
    for kind in ("write", "read"):
        ordered = sorted(wall[kind])
        if not ordered:
            continue
        report[f"wall_{kind}_p50_us"] = percentile(ordered, 50) * 1e6
        if virtual_time:
            virtual = sorted(samples.virtual[kind])
            report[f"sim_{kind}_p50_us"] = percentile(virtual, 50) * 1e6
            report[f"sim_{kind}_p99_us"] = percentile(virtual, 99) * 1e6
    if wall_all:
        report["wall_op_p95_us"] = percentile(wall_all, 95) * 1e6
        report["wall_op_p99_us"] = percentile(wall_all, 99) * 1e6
    report["samples"] = {kind: len(wall[kind]) for kind in ("write", "read")}
    return report


def run_round(request: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, run ``request['ops']`` operations, check, and report."""
    workload = WORKLOADS[request["workload"]]
    ops, seed, traced = request["ops"], request["seed"], request["traced"]
    live = workload.backend == "live"

    # Traced rounds supply shares, not timings: they take no probe.
    probe = None if traced else HostProbe(workload, request["scratch"])
    samples = Samples()
    clock = clock_of(workload)
    calibration = Calibration(probe, samples, clock)
    calibration.mark()

    from repro.api import open_cluster

    options = dict(workload.options)
    store_dir = None
    if live:
        store_dir = os.path.join(request["scratch"], f"live-store-{os.getpid()}")
        os.makedirs(store_dir)
        options["storage_root"] = store_dir

    collector = None
    if traced:
        from bench.trace import Collector

        collector = Collector(
            {os.path.join(SRC, "repro"): "repro", BENCH_DIR: "bench"}
        )
        if live:
            # Threads are profiled from their first call, so the hook
            # must precede the loop thread; set-up rides along (small).
            collector.start()

    cluster = open_cluster(
        backend=workload.backend,
        protocol="persistent",
        num_processes=workload.num_processes,
        seed=None if live else seed,
        **options,
    )
    try:
        cluster.start()
        rng = random.Random(seed)
        if live:
            # Traced rounds profile everything they run, so they skip
            # the warm-up instead of billing it to the timed operations.
            warmup = 0 if traced else workload.warmup
            run_live(
                cluster, workload, warmup, Calibration(None, Samples(), clock)
            )
            drive = functools.partial(run_live, cluster, workload, ops, calibration)
        else:
            loop = ClosedLoop(cluster, workload, rng, ops, calibration)
            if loop.keys is not None:
                cluster.preload(loop.keys.keys)
            if workload.fault_interval:
                CrashRotation(cluster, loop, workload).start()
            drive = loop.run
        # Child start -> first operation issuable, the start-up probe
        # left out; ``drive`` begins with the mark that bills it.  The
        # CPU clock started with the process.
        since_start = time.time() - request["spawned_at"] if live else clock()
        setup_s = since_start - calibration.paused

        before = cluster.metrics()
        cpu0 = time.process_time() - calibration.cpu_paused
        if collector is not None and not live:
            collector.start()
        t0 = clock()
        unissued = drive()
        t1 = clock()
        verdict = cluster.check()
        t2 = clock()
        if collector is not None:
            collector.stop()
        cpu_s = time.process_time() - calibration.cpu_paused - cpu0
        calibration.mark()
        window = cluster.metrics().diff(before)
        stats = cluster.stats()
    finally:
        cluster.close()
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
        if probe is not None:
            probe.close()

    # Marks: start-up, then one per chunk boundary of the run (first
    # before any operation), then after check().  So the first chunk is
    # the set-up, the last is the check, the rest are the operations.
    chunks = list(calibration.chunks())
    setup_s /= chunks[0][1]
    run_chunks, (check_raw, check_slowness, _r, _w) = chunks[1:-1], chunks[-1]
    wall: Dict[str, List[float]] = {"read": [], "write": []}
    calibrated_s = check_raw / check_slowness
    for raw, slowness, reads, writes in run_chunks:
        calibrated_s += raw / slowness
        wall["read"] += [t / slowness for t in samples.wall["read"][reads]]
        wall["write"] += [t / slowness for t in samples.wall["write"][writes]]
    raw_s = (t2 - t0) - sum(m[1] - m[0] for m in calibration.marks[1:-1])

    report: Dict[str, Any] = {
        "attempted": ops,
        "completed": samples.completed,
        "aborted": samples.aborted,
        "unissued": unissued,
        "ok": bool(verdict.ok),
        "reason": verdict.reason,
        "run_s": raw_s - (t2 - t1),
        "check_s": t2 - t1,
        "setup_s": setup_s,
        "host_speed": calibrated_s / raw_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": samples.completed / calibrated_s,
        "raw_ops_per_s": samples.completed / raw_s,
    }
    report.update(summarize(samples, wall, not live))
    recoveries = window.histograms.get("node.recovery_time")
    if workload.fault_interval and recoveries is not None and recoveries.total:
        report["recovery_mean_ms"] = recoveries.sum / recoveries.total * 1e3
    if live:
        report["storage_fs"] = storage_fs(os.path.realpath(request["scratch"]))
    else:
        # Totals since boot, so the digest also pins set-up.
        report["fingerprint"] = hashlib.sha256(repr((
            samples.completed, samples.aborted, stats.kernel_events,
            stats.messages_sent, stats.stores_completed, stats.clock,
        )).encode()).hexdigest()[:16]
    report["counts"] = layer_counts(
        window.scalars, samples, live, cpu_s, t2 - t1, verdict.operations
    )
    if collector is not None:
        report["profile"] = collector.table(max(samples.completed, 1))
    return report


def layer_counts(
    scalars: Dict[str, float],
    samples: Samples,
    live: bool,
    cpu_s: float,
    check_s: float,
    checked_ops: int,
) -> Dict[str, float]:
    """The per-layer counts of one round (``bench.spec.COUNT_METRICS``).

    The facade's gauges carry the same names on every backend; a
    message is a simulated send on sim/kv and a datagram on live, so
    each lands under the layer that did the work and reads 0 under the
    other.
    """
    done = max(samples.completed, 1)

    def per_op(gauge: str, applies: bool = True) -> float:
        return scalars.get(gauge, 0) / done if applies else 0.0

    def mean(values: List[int]) -> float:
        return sum(values) / len(values) if values else 0.0

    sim = not live
    return {
        "sim.kernel.events_per_op": per_op("kernel.events", sim),
        "sim.network.msgs_per_op": per_op("net.messages_sent", sim),
        "sim.network.bytes_per_op": per_op("net.bytes_sent", sim),
        "sim.network.dropped_per_op": per_op("net.messages_dropped", sim),
        "sim.storage.stores_per_op": per_op("storage.stores_completed", sim),
        "sim.storage.bytes_logged_per_op": per_op("storage.bytes_logged", sim),
        "sim.storage.footprint_bytes":
            scalars.get("storage.footprint_bytes", 0) if sim else 0,
        "sim.node.crashes": scalars.get("node.crashes", 0) if sim else 0,
        "sim.node.recoveries": scalars.get("node.recoveries", 0) if sim else 0,
        "protocol.causal_logs_per_write": mean(samples.causal_logs["write"]),
        "protocol.causal_logs_per_read": mean(samples.causal_logs["read"]),
        "obs.ring_records_per_op": per_op("trace.flight_recorded"),
        "history.checker.wall_s": check_s,
        "history.checker.ops_per_s": checked_ops / check_s,
        "kv.completed": scalars.get("kv.completed", 0),
        "kv.aborted": scalars.get("kv.aborted", 0),
        "runtime.transport.datagrams_per_op": per_op("net.messages_sent", live),
        "runtime.storage.stores_per_op": per_op("storage.stores_completed", live),
        "host.cpu_us_per_op": cpu_s / done * 1e6,
    }


def main(argv: Optional[List[str]] = None) -> int:
    request = json.loads((sys.argv[1:] if argv is None else argv)[0])
    print(json.dumps(run_round(request)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
