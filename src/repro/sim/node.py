"""Simulated process: :class:`~repro.protocol.host.NodeCore` on the kernel.

The process itself -- register slots, crash/recovery, checkpoints,
effect execution -- is :mod:`repro.protocol.host`.  This driver gives
it the simulated world: virtual time from the
:class:`~repro.sim.kernel.Kernel`, the fair-lossy
:class:`~repro.sim.network.SimNetwork`, and a sequential
:class:`~repro.sim.storage.SimStableStorage` device.  Every primitive
is one engine call, bound directly, so the order in which a run
schedules kernel events -- which the golden transcripts pin -- is the
order of the core's own statements.
"""

# repro: hot-path
# (HOT001: the per-event trace sites live in the core; anything added
# here sits on the same datapath and is held to the same guard.)

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.common.ids import ProcessId
from repro.history.recorder import HistoryRecorder
from repro.protocol.host import NodeCore, ProtocolFactory
from repro.sim.kernel import Kernel
from repro.sim.network import SimNetwork
from repro.sim.storage import SimStableStorage
from repro.obs.tracing import Trace


class SimNode(NodeCore):
    """One simulated crash-recovery process."""

    def __init__(
        self,
        pid: ProcessId,
        kernel: Kernel,
        network: SimNetwork,
        storage: SimStableStorage,
        protocol_factory: ProtocolFactory,
        recorder: HistoryRecorder,
        num_processes: int,
        trace: Optional[Trace] = None,
        batch_window: float = 0.0,
        checkpoint_interval: Optional[float] = None,
        recovery_scan: bool = False,
    ):
        super().__init__(
            pid,
            num_processes,
            storage,
            protocol_factory,
            recorder,
            trace=trace,
            batch_window=batch_window,
            checkpoint_interval=checkpoint_interval,
        )
        self._kernel = kernel
        #: Whether recovery bills a scan of the whole log before the
        #: protocols run (see SimStableStorage.recovery_scan_latency).
        self.recovery_scan = recovery_scan
        # Primitives are bound straight to the engine call that serves
        # them: no forwarding frame on the datapath.
        self._now = partial(getattr, kernel, "now")
        self._send = partial(network.send, pid)
        self._broadcast = partial(network.broadcast, pid)
        self._store = storage.store
        self._delete = storage.delete
        self._compact = storage.compact
        self._crash_io = storage.crash
        self._call_later = kernel.schedule_cancellable
        self._defer = kernel.schedule
        network.attach(pid, self._on_message)

    def _read_back(self, incarnation: int) -> None:
        """Bill the log scan, if asked to, before the protocols recover.

        With :attr:`recovery_scan` on, the process first pays for
        reading its whole log back from the device (linear in the
        un-compacted log -- the cost checkpoints exist to bound).
        """
        if self.recovery_scan:
            self._kernel.schedule(
                self.storage.recovery_scan_latency(),
                self._finish_recover,
                incarnation,
            )
        else:
            self._finish_recover(incarnation)
