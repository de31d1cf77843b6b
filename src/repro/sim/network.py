"""Simulated fair-lossy message-passing network.

Implements the channel assumptions of Section II: messages may be
dropped, duplicated, delayed arbitrarily and reordered, but a message
retransmitted forever to a correct process is eventually received
(fair-lossiness), and no message is received that was not sent.  The
delivery delay of a message follows the linear size model of
:class:`repro.net.delay.DelayModel`, calibrated to the paper's LAN.

A message costs one kernel event, ``(_deliver, src, dst, message,
depth)``, fired straight into the handler its destination attached --
:meth:`repro.protocol.host.NodeCore._on_message` for a simulated node.
``depth`` is the causal-log depth of the sending handler, the
engine-level accounting of the paper's cost metric
(:mod:`repro.history.causal_logs`).  :meth:`SimNetwork.transmit` is
the one send path, bound as a simulated node's send primitive; it
derives everything the destination does not change once per message.
:meth:`SimNetwork.send` and :meth:`SimNetwork.broadcast` are thin
wrappers over it.

Partitions are modelled as directed blocked links: while blocked, every
transmission on the link is dropped (fair-lossiness is preserved
because partitions are required to eventually heal in any run that
needs termination, matching the "eventually a majority is permanently
up" assumption).
"""

from __future__ import annotations

import inspect
from heapq import heappush
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.config import NetworkConfig
from repro.common.ids import ProcessId
from repro.net.delay import DelayModel
from repro.protocol.messages import Message
from repro.common.kernel import Kernel
from repro.obs.tracing import DELIVER, DROP, DUPLICATE, NULL_TRACE, SEND, Trace

#: One-way delay for a process's message to its own listener (loopback
#: does not cross the wire; the paper's implementation runs the
#: listener as a second thread on the same workstation).
LOOPBACK_DELAY = 5e-6


#: What a process attaches: called with ``(src, message, depth)``.
#: One exception, decided once at :meth:`SimNetwork.attach` and never on
#: the delivery path: a callable whose signature cannot bind three
#: positional arguments but can bind one is handed the triple as that
#: one argument.  ``bench/probes.py`` attaches such a sink and is frozen
#: while a change claims a gain; the exception goes with ROADMAP item 1.
DeliveryHandler = Callable[[ProcessId, Message, int], None]

#: A message filter: return ``True`` to drop the transmission.
MessageFilter = Callable[[ProcessId, ProcessId, Message], bool]


def _delivery_handler(handler: Callable[..., None]) -> DeliveryHandler:
    """``handler`` as :data:`DeliveryHandler`; :class:`TypeError` if it is not."""
    try:
        inspect.signature(handler).bind(0, None, 0)
    except ValueError:  # a builtin without a signature: trust it
        pass
    except TypeError:
        inspect.signature(handler).bind(None)  # neither shape: raises
        return lambda src, message, depth: handler((src, message, depth))
    return handler


class SimNetwork:
    """Connects the simulated processes with fair-lossy channels."""

    def __init__(
        self,
        kernel: Kernel,
        num_processes: int,
        config: NetworkConfig,
        trace: Optional[Trace] = None,
    ):
        self._kernel = kernel
        self._num_processes = num_processes
        self._delay_model = DelayModel(config)
        self._trace = NULL_TRACE if trace is None else trace
        # pid -> its delivery handler (None until it attaches).
        self._handlers: List[Optional[DeliveryHandler]] = [None] * num_processes
        # Link -> number of outstanding blocks.  Refcounted so that
        # overlapping partition windows compose: a link stays blocked
        # until every block placed on it is released.
        self._blocked_links: Dict[Tuple[ProcessId, ProcessId], int] = {}
        self._filters: List[MessageFilter] = []
        # Per-link accumulated delay penalties (slow links), applied on
        # top of the sampled delay.  Additive for the same reason the
        # blocks are refcounted.
        self._link_penalties: Dict[Tuple[ProcessId, ProcessId], float] = {}
        # When each sender's NIC is free again (see transmit).
        self._egress_free_at: Dict[ProcessId, float] = {}
        self._everyone = range(num_processes)
        # Config constants hoisted out of the per-send path.  The delay
        # model stays the owner of the size check's wording; its linear
        # delay and loss/duplication decisions are inlined in transmit
        # (same arithmetic, same rng consumption).
        self._send_overhead = config.send_overhead
        self._base_delay = config.base_delay
        self._bandwidth = config.bandwidth
        self._max_jitter = config.max_jitter
        self._max_payload = config.max_payload
        self._drop_probability = config.drop_probability
        self._duplicate_probability = config.duplicate_probability
        # Whether a channel draws (loss, duplication or jitter).
        self._draws = max(self._drop_probability, self._duplicate_probability,
                          self._max_jitter) > 0.0
        # Whether a send may draw, drop or slow down: the channel draws,
        # or a link is blocked, filtered or slowed.  Rewritten wherever
        # those tables change, so a send tests one flag (see transmit).
        self._armed = self._draws
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    @property
    def num_processes(self) -> int:
        return self._num_processes

    def attach(self, pid: ProcessId, handler: DeliveryHandler) -> None:
        """Register the delivery handler of process ``pid``, checking its shape."""
        if not 0 <= pid < self._num_processes:
            raise ValueError(f"pid {pid} out of range")
        self._handlers[pid] = _delivery_handler(handler)

    # -- partitions ----------------------------------------------------------

    def block(self, src: ProcessId, dst: ProcessId) -> None:
        """Drop all future transmissions from ``src`` to ``dst``.

        Blocks stack: a link blocked twice (overlapping partition
        windows) needs two :meth:`unblock` calls -- or one
        :meth:`heal_all` -- before traffic flows again.
        """
        link = (src, dst)
        self._blocked_links[link] = self._blocked_links.get(link, 0) + 1
        self._armed = True

    def unblock(self, src: ProcessId, dst: ProcessId) -> None:
        """Release one block on the link.  No-op if none remain."""
        link = (src, dst)
        count = self._blocked_links.get(link, 0)
        if count <= 1:
            self._blocked_links.pop(link, None)
            self._rearm()
        else:
            self._blocked_links[link] = count - 1

    def partition(self, group_a: Set[ProcessId], group_b: Set[ProcessId]) -> None:
        """Block every link between ``group_a`` and ``group_b`` (both ways)."""
        for a in group_a:
            for b in group_b:
                self.block(a, b)
                self.block(b, a)

    def heal_all(self) -> None:
        """Remove every blocked link."""
        self._blocked_links.clear()
        self._rearm()

    def is_blocked(self, src: ProcessId, dst: ProcessId) -> bool:
        return (src, dst) in self._blocked_links

    # -- slow links --------------------------------------------------------

    def slow_link(self, src: ProcessId, dst: ProcessId, extra_delay: float) -> None:
        """Add ``extra_delay`` to every future ``src -> dst`` delivery.

        Models a congested or degraded link: messages still arrive (and
        still pay the sampled base delay), just later.  Penalties from
        repeated calls accumulate, so overlapping slow-link windows
        compose; release with :meth:`unslow_link` or
        :meth:`reset_link_speeds`.  Deterministic -- the penalty
        consumes no randomness.
        """
        if not extra_delay >= 0:  # NaN too
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        if extra_delay > 0.0:
            link = (src, dst)
            self._link_penalties[link] = (
                self._link_penalties.get(link, 0.0) + extra_delay
            )
            self._armed = True

    def unslow_link(self, src: ProcessId, dst: ProcessId, extra_delay: float) -> None:
        """Remove ``extra_delay`` of penalty from the link (floor 0).

        Residues below a picosecond are snapped to zero: symmetric
        add/remove pairs of *different* magnitudes otherwise leave
        float dust that would keep the penalty table (and its hot-path
        check) alive forever.  Real penalties are microseconds and up.
        """
        if not extra_delay >= 0:  # NaN too
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        link = (src, dst)
        remaining = self._link_penalties.get(link, 0.0) - extra_delay
        if remaining > 1e-12:
            self._link_penalties[link] = remaining
        else:
            self._link_penalties.pop(link, None)
            self._rearm()

    def reset_link_speeds(self) -> None:
        """Remove every slow-link penalty."""
        self._link_penalties.clear()
        self._rearm()

    def link_penalty(self, src: ProcessId, dst: ProcessId) -> float:
        """The current extra delay of the ``src -> dst`` link."""
        return self._link_penalties.get((src, dst), 0.0)

    # -- message filters ---------------------------------------------------

    def add_filter(self, message_filter: MessageFilter) -> Callable[[], None]:
        """Install a drop filter; returns a removal function.

        Filters see ``(src, dst, message)`` for every transmission and
        drop it by returning ``True``.  They express adversarial
        schedules finer than link blocks -- e.g. "hold back this write's
        second round while everything else flows", which the scripted
        runs of Figures 1-3 rely on.
        """
        self._filters.append(message_filter)
        self._armed = True

        def remove() -> None:
            if message_filter in self._filters:
                self._filters.remove(message_filter)
                self._rearm()

        return remove

    def _rearm(self) -> None:  # a link table lost an entry
        tables = self._blocked_links or self._filters or self._link_penalties
        self._armed = self._draws or bool(tables)

    # -- transmission ------------------------------------------------------------

    def send(self, src: ProcessId, dst: ProcessId, message: Message, depth: int) -> None:
        """Transmit one message (may be dropped, duplicated, delayed)."""
        if not 0 <= dst < self._num_processes:
            raise ValueError(f"destination {dst} out of range")
        self.transmit(src, (dst,), message, depth)

    def broadcast(self, src: ProcessId, message: Message, depth: int) -> None:
        """Send ``message`` to every process, including ``src`` itself."""
        self.transmit(src, self._everyone, message, depth)

    def transmit(
        self, src: ProcessId, dsts: Sequence[ProcessId], message: Message, depth: int
    ) -> None:
        """Transmit ``message`` to each of ``dsts``: the one send path.

        What does not depend on the destination is derived once, the
        counters included (every destination counts, dropped or not).
        After its SEND record, whose listeners may arm a fault, a
        destination takes the fault-free branch unless a fault is armed:
        its delay, its egress slot and one push onto the kernel's heap.
        The armed branch keeps the random draws in order -- loss (remote
        links, p > 0), jitter, duplication, the duplicate's own jitter.
        Both give the delay the float association ``((free_at +
        overhead) - now) + ((base + size / bandwidth) + jitter [+
        penalty])`` and the event the time ``now + delay``, which is
        what keeps seeded runs byte-identical.
        """
        size = message.size
        if not 0 <= size <= self._max_payload:
            self._delay_model.check_size(size)  # raises: nothing is half-sent
        kernel = self._kernel
        now = kernel.now
        sent = len(dsts)
        self.messages_sent += sent
        self.bytes_sent += size * sent
        wire_delay = self._base_delay + size / self._bandwidth
        # Transmissions serialize through the sender's NIC, each
        # occupying it for ``send_overhead``.
        overhead = self._send_overhead
        free_at = self._egress_free_at.get(src, now)
        if free_at < now:
            free_at = now
        # Most sends go to one process (an ack): the loop reads attributes
        # in place, as binding them to locals first would cost more.
        for dst in dsts:
            self._trace.record(SEND, now, src, message.op, dst, message.kind, size)
            if not self._armed:
                # A validated configuration's delay, so >= 0, in the
                # entry ``schedule`` would push.
                delay = wire_delay if src != dst else LOOPBACK_DELAY
                if overhead:
                    free_at += overhead
                    delay = (free_at - now) + delay
                heappush(
                    kernel.queue,
                    (now + delay, next(kernel.seq), self._deliver, (src, dst, message, depth)),
                )
                continue
            rng = kernel.rng
            if (src, dst) in self._blocked_links:
                self._drop(src, dst, message, reason="partition")
                continue
            if any(f(src, dst, message) for f in self._filters):
                self._drop(src, dst, message, reason="filter")
                continue
            remote = src != dst
            if remote and self._drop_probability > 0.0 and rng.random() < self._drop_probability:
                self._drop(src, dst, message, reason="loss")
                continue
            duplicate = False
            while True:
                if not remote:
                    delay = LOOPBACK_DELAY
                elif self._max_jitter > 0.0:
                    delay = wire_delay + rng.uniform(0.0, self._max_jitter)
                else:
                    delay = wire_delay
                if self._link_penalties:
                    delay += self._link_penalties.get((src, dst), 0.0)
                if overhead:
                    free_at += overhead
                    delay = (free_at - now) + delay
                kernel.schedule(delay, self._deliver, src, dst, message, depth)
                if (
                    duplicate
                    or not remote
                    or self._duplicate_probability <= 0.0
                    or rng.random() >= self._duplicate_probability
                ):
                    break
                duplicate = True
                self._trace.record(DUPLICATE, now, src, message.op, dst, message.kind)
        if overhead:
            self._egress_free_at[src] = free_at

    def _deliver(
        self, src: ProcessId, dst: ProcessId, message: Message, depth: int
    ) -> None:
        handler = self._handlers[dst]
        if handler is None:
            return
        self.messages_delivered += 1
        self._trace.record(DELIVER, self._kernel.now, dst, message.op, src, message.kind)
        handler(src, message, depth)

    def _drop(
        self, src: ProcessId, dst: ProcessId, message: Message, reason: str
    ) -> None:
        self.messages_dropped += 1
        self._trace.record(
            DROP, self._kernel.now, src, message.op, dst, message.kind, reason
        )
