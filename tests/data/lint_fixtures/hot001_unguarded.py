"""HOT001 fixture: event construction outside the wants() guard."""

# repro: hot-path

from repro.obs.tracing import TraceEvent


def deliver(trace, kind, pid):
    event = TraceEvent(time=0.0, kind=kind, pid=pid)
    if trace.wants(kind):
        trace.emit(event)
    else:
        trace.tick(kind, pid)
