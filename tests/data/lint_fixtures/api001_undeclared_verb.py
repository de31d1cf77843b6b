"""API001 fixture: a fault verb implemented but not capability-declared."""

# repro-lint: pretend src/repro/api/chaotic.py


class ChaoticCluster:
    backend = "chaotic"
    capabilities = frozenset({"virtual_time"})

    def crash(self, pid):
        self._kernel.crash(pid)

    def partition(self, groups):
        self._net.partition(groups)

    def lose(self, probability, seed=0):
        self._net.lose(probability, seed)

    def slow_link(self, links, extra_delay):
        self._net.slow(links, extra_delay)

    def on_event(self, kind, source_pid, count, fn, *args):
        self._trace.hook(kind, source_pid, count, fn, args)
