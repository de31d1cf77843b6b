"""Figure 6: write latency vs. cluster size and vs. payload size.

The paper's first experiment (Figure 6, top) writes a 4-byte integer 50
times on N = 3..9 workstations and plots the average write time for
three algorithms: atomic crash-stop, transient atomic crash-recovery
and persistent atomic crash-recovery.  At N = 5 it reports roughly
500 / 700 / 900 microseconds: the transient algorithm pays one log
latency (lambda ~ 0.2 ms) over the crash-stop baseline and the
persistent algorithm two, while latency is essentially flat in N
(majority round trips run in parallel).

The second experiment (Figure 6, bottom) fixes N = 5 and sweeps the
payload size up to the 64 KB UDP limit; write time grows linearly
because both network transmission and disk logging are linear in size.

These harnesses reproduce both sweeps on the simulator with the
calibrated delta/lambda.  Only reads would be uninteresting: "in a run
without any crashes a read does not log, meaning that the execution
times would be the same for each algorithm" -- which
:func:`read_latency_check` verifies instead of plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster import SimCluster
from repro.common.config import UDP_MAX_PAYLOAD
from repro.obs.summary import LatencyStats

#: The three algorithms of Figure 6, in the paper's legend order.
FIGURE6_ALGORITHMS = ("crash-stop", "transient", "persistent")

#: Cluster sizes of the top graph (odd sizes; a majority quorum only
#: changes at odd N).
FIGURE6_SIZES = (3, 5, 7, 9)

#: Payload sweep of the bottom graph, bytes.  The top end leaves room
#: for the 32-byte message header within the 64 KB UDP datagram limit.
FIGURE6_PAYLOADS = (4, 1024, 4096, 8192, 16384, 32768, 49152, 65000)

#: Writes per configuration, as in the paper's experiment.
FIGURE6_REPEATS = 50


@dataclass(frozen=True)
class Figure6Point:
    """One point of either graph."""

    algorithm: str
    num_processes: int
    payload: int
    write_latency: LatencyStats

    @property
    def mean_us(self) -> float:
        return self.write_latency.mean_us


def _measure_writes(
    algorithm: str,
    num_processes: int,
    payload: int,
    repeats: int,
    seed: int,
) -> Figure6Point:
    """Run ``repeats`` sequential writes and collect latency stats."""
    cluster = SimCluster(
        protocol=algorithm, num_processes=num_processes, seed=seed, capture_trace=False
    )
    cluster.start()
    samples: List[float] = []
    for i in range(repeats):
        handle = cluster.write_sync(0, b"x" * payload)
        assert handle.latency is not None
        samples.append(handle.latency)
    return Figure6Point(
        algorithm=algorithm,
        num_processes=num_processes,
        payload=payload,
        write_latency=LatencyStats.from_samples(samples),
    )


def figure6_top(
    sizes: Sequence[int] = FIGURE6_SIZES,
    algorithms: Sequence[str] = FIGURE6_ALGORITHMS,
    repeats: int = FIGURE6_REPEATS,
    payload: int = 4,
    seed: int = 0,
) -> Dict[str, List[Figure6Point]]:
    """Average write time vs. number of workstations (Figure 6, top)."""
    series: Dict[str, List[Figure6Point]] = {}
    for algorithm in algorithms:
        series[algorithm] = [
            _measure_writes(algorithm, n, payload, repeats, seed) for n in sizes
        ]
    return series


def figure6_bottom(
    payloads: Sequence[int] = FIGURE6_PAYLOADS,
    algorithms: Sequence[str] = FIGURE6_ALGORITHMS,
    num_processes: int = 5,
    repeats: int = FIGURE6_REPEATS,
    seed: int = 0,
) -> Dict[str, List[Figure6Point]]:
    """Average write time vs. payload size at N = 5 (Figure 6, bottom)."""
    for payload in payloads:
        if payload > UDP_MAX_PAYLOAD:
            raise ValueError(
                f"payload {payload} exceeds the 64 KB UDP limit the paper "
                f"identifies as the maximum write size"
            )
    series: Dict[str, List[Figure6Point]] = {}
    for algorithm in algorithms:
        series[algorithm] = [
            _measure_writes(algorithm, num_processes, payload, repeats, seed)
            for payload in payloads
        ]
    return series


def read_latency_check(
    algorithms: Sequence[str] = FIGURE6_ALGORITHMS,
    num_processes: int = 5,
    repeats: int = 20,
    seed: int = 0,
) -> Dict[str, LatencyStats]:
    """Average crash-free read latency per algorithm.

    Supports the paper's remark that read times are identical across
    the three algorithms because crash-free reads never log.
    """
    results: Dict[str, LatencyStats] = {}
    for algorithm in algorithms:
        cluster = SimCluster(
            protocol=algorithm,
            num_processes=num_processes,
            seed=seed,
            capture_trace=False,
        )
        cluster.start()
        cluster.write_sync(0, b"seed")
        samples: List[float] = []
        for _ in range(repeats):
            handle = cluster.wait(cluster.read(1))
            assert handle.latency is not None
            samples.append(handle.latency)
        results[algorithm] = LatencyStats.from_samples(samples)
    return results


# -- formatting ---------------------------------------------------------------


def format_figure6_top(series: Dict[str, List[Figure6Point]]) -> str:
    """Render the top graph as the table of its data points."""
    algorithms = list(series)
    sizes = [point.num_processes for point in series[algorithms[0]]]
    header = "N (workstations) | " + " | ".join(
        f"{name:>12s} (us)" for name in algorithms
    )
    rows = [header, "-" * len(header)]
    for index, n in enumerate(sizes):
        cells = " | ".join(
            f"{series[name][index].mean_us:17.1f}" for name in algorithms
        )
        rows.append(f"{n:16d} | {cells}")
    return "\n".join(rows)


def format_figure6_bottom(series: Dict[str, List[Figure6Point]]) -> str:
    """Render the bottom graph as the table of its data points."""
    algorithms = list(series)
    payloads = [point.payload for point in series[algorithms[0]]]
    header = "payload (bytes) | " + " | ".join(
        f"{name:>12s} (us)" for name in algorithms
    )
    rows = [header, "-" * len(header)]
    for index, payload in enumerate(payloads):
        cells = " | ".join(
            f"{series[name][index].mean_us:17.1f}" for name in algorithms
        )
        rows.append(f"{payload:15d} | {cells}")
    return "\n".join(rows)


def linearity_of(points: List[Figure6Point]) -> Tuple[float, float, float]:
    """Least-squares fit ``latency_us = a * payload + b`` plus R^2.

    Used to verify the bottom graph's claim that latency grows linearly
    with payload size.
    """
    xs = [float(point.payload) for point in points]
    ys = [point.mean_us for point in points]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return slope, intercept, r_squared
