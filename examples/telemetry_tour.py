"""Tour of the telemetry layer: metrics, diffs, and the flight recorder.

The observability story (:mod:`repro.obs`, docs/observability.md) in
one script:

1. the uniform metrics catalog every backend populates, snapshotted
   and *diffed* to isolate one burst of traffic;
2. a live listener feeding a custom counter mid-run -- provably
   passive, since observers never touch the kernel;
3. the always-on flight recorder of a scenario run, decoded and
   exported as Chrome ``trace_event`` JSON for chrome://tracing
   or https://ui.perfetto.dev.

Usage::

    python examples/telemetry_tour.py
"""

import json
import tempfile
from pathlib import Path

from repro.api import open_cluster
from repro.scenarios import get_scenario, run_scenario

#: Operation budget for the scenario run (trimmed further by CI).
OPS = 300


def main() -> None:
    print("== 1. the uniform catalog, diffed around a burst ==")
    with open_cluster(backend="sim", protocol="persistent", seed=7) as c:
        writer, reader = c.session(0), c.session(1)
        writer.write_sync("warmup")
        before = c.metrics()
        for i in range(5):
            writer.write_sync(f"v{i}")
            assert reader.read_sync() == f"v{i}"
        window = c.metrics().diff(before)
        for name in ("net.messages_sent", "storage.stores_completed",
                     "trace.flight_recorded"):
            print(f"  {name:<28} {window.scalars[name]:>8,.0f}")
        write_latency = window.histograms["op.write.latency"]
        print(
            f"  op.write.latency             n={write_latency.total} "
            f"p50={write_latency.quantile(50) * 1e6:,.0f}us "
            f"p99={write_latency.quantile(99) * 1e6:,.0f}us"
        )

    print()
    print("== 2. a mid-run listener (observation is passive) ==")
    with open_cluster(backend="sim", seed=7) as c:
        # Pre-resolve the handle once; inc() per event, no dict lookups.
        crashes_seen = c.registry.counter("tour.crashes_seen")
        unsubscribe = c.trace.subscribe(
            lambda event: crashes_seen.inc(), kinds=["crash"]
        )
        session = c.session(0)
        session.write_sync("a")
        c.crash(1)
        c.recover(1)
        session.write_sync("b")
        unsubscribe()
        print(f"  tour.crashes_seen = {c.metrics().scalars['tour.crashes_seen']}")

    print()
    print("== 3. the flight recorder of a scenario run ==")
    result = run_scenario(
        get_scenario("crash-during-write"), ops=OPS, seed=7
    )
    ring = result.flight_recorder
    print(
        f"  {result.scenario}: verdict "
        f"{'PASS' if result.verdict else 'FAIL'}"
    )
    print(
        f"  flight recorder: {len(ring):,} of {ring.total:,} events retained"
    )
    counts = sorted(ring.counts().items(), key=lambda kv: -kv[1])
    busiest = ", ".join(f"{kind}={count:,}" for kind, count in counts[:4])
    print(f"  busiest kinds: {busiest}")

    trace_path = Path(tempfile.mkdtemp()) / "crash-during-write.json"
    payload = ring.to_chrome_trace()
    trace_path.write_text(json.dumps(payload) + "\n")
    print(
        f"  chrome trace: {len(payload['traceEvents']):,} entries -> "
        f"{trace_path}"
    )
    print("  (load it in chrome://tracing or https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
