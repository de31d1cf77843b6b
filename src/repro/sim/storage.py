"""Simulated per-process stable storage.

Models the paper's synchronous file logging (Section V-A): a ``store``
becomes durable only after the configured latency elapses, and the
caller is notified at that instant -- exactly the point where an
algorithm may acknowledge.  Contents survive crashes; *in-flight*
stores do not (a crash before the latency elapsed leaves the old record
in place, the conservative reading of a torn synchronous write).

The storage device is sequential, like a single disk head: concurrent
stores queue behind each other, which matters to protocols that issue a
responder log while another is still in flight.

Log accounting.  The records dictionary overwrites in place, but a
real synchronous log is append-only: every completed store grows it
until a checkpoint compacts it.  :attr:`~SimStableStorage.log_records`
and :attr:`~SimStableStorage.log_bytes` model that append-only
footprint -- they only shrink when the host, after truncating
superseded records below a committed checkpoint, calls
:meth:`~SimStableStorage.compact` to rewrite the log as snapshot +
live suffix.  :meth:`~SimStableStorage.recovery_scan_latency` prices
reading that log back at boot (per-record seeks dominate, hence the
``base_latency`` term per record), which is what makes recovery time
*measurably* linear in ops executed without checkpointing and flat
with it.

Fault injection.  :meth:`~SimStableStorage.corrupt` (drop a durable
record, as a quarantined CRC-bad log frame), :meth:`~SimStableStorage.
lose_next_stores` (the device acknowledges but the record never
lands -- a lying fsync), and :meth:`~SimStableStorage.set_slow`
(additive latency window, a degraded disk) back the scenario-level
storage fault primitives in :mod:`repro.scenarios.faults`.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.config import StorageConfig
from repro.common.ids import ProcessId
from repro.common.kernel import EventHandle, Kernel
from repro.obs.tracing import NULL_TRACE, STORE_BEGIN, STORE_END, Trace

CompletionCallback = Callable[[], None]


class SimStableStorage:
    """One process's crash-surviving key-value log."""

    def __init__(
        self,
        kernel: Kernel,
        pid: ProcessId,
        config: StorageConfig,
        trace: Optional[Trace] = None,
    ):
        self._kernel = kernel
        self._pid = pid
        # The latency formula's constants (StorageConfig), for store.
        self._base_latency = config.base_latency
        self._bandwidth = config.bandwidth
        self._max_jitter = config.max_jitter
        self._trace = NULL_TRACE if trace is None else trace
        # Durable records; survives crash() calls by design.
        self._records: Dict[str, Tuple[Any, ...]] = {}
        # Billed size of the live record under each key, for
        # compaction accounting.
        self._sizes: Dict[str, int] = {}
        # Sequential device: completion time of the last queued write.
        self._device_free_at = 0.0
        self.stores_completed = 0
        self.stores_lost_to_crash = 0
        self.bytes_logged = 0
        # Append-only log footprint: grows per completed store, reset
        # to snapshot + live suffix by compact().
        self.log_records = 0
        self.log_bytes = 0
        self.compactions = 0
        # Injected-fault counters.
        self.records_corrupted = 0
        self.stores_lost = 0
        self._lose_next = 0
        self._slow_extra = 0.0
        # In-flight stores keyed by a local sequence number, so a crash
        # can void exactly the ones that have not completed yet.
        self._in_flight: Dict[int, Any] = {}
        self._next_store_id = 0
        self._epoch = 0

    @property
    def records(self) -> Dict[str, Tuple[Any, ...]]:
        """Live view of the durable records (read-only by convention)."""
        return self._records

    def store(
        self,
        key: str,
        record: Tuple[Any, ...],
        size: int,
        on_durable: CompletionCallback,
        op: Optional[Any] = None,
    ) -> None:
        """Write ``record`` under ``key``; call ``on_durable`` when durable.

        The write is billed the synchronous-log latency and queues
        behind any store still in progress on this device.  ``op`` is
        the operation the log belongs to (trace attribution only).
        """
        kernel = self._kernel
        now = kernel.now
        if size < 0:
            raise ValueError(f"log size must be >= 0, got {size}")
        jitter = 0.0
        if self._max_jitter > 0.0:
            jitter = kernel.rng.uniform(0.0, self._max_jitter)
        latency = self._base_latency + size / self._bandwidth + jitter + self._slow_extra
        done_at = max(now, self._device_free_at) + latency
        self._device_free_at = done_at
        # Read before the record: a trace trigger may crash the process
        # inside it, and this store then belongs to the voided epoch.
        epoch = self._epoch
        store_id = self._next_store_id
        self._next_store_id = store_id + 1
        self._trace.record(STORE_BEGIN, now, self._pid, op, key, size, done_at)
        # Kernel.schedule_cancellable, inlined (the latency is validated).
        time = now + (done_at - now)
        args = (store_id, key, record, size, on_durable, epoch, op)
        handle = EventHandle(kernel, time, self._complete, args)
        heappush(kernel.queue, (time, next(kernel.seq), handle, None))
        self._in_flight[store_id] = handle

    def _complete(
        self,
        store_id: int,
        key: str,
        record: Tuple[Any, ...],
        size: int,
        on_durable: CompletionCallback,
        epoch: int,
        op: Optional[Any] = None,
    ) -> None:
        self._in_flight.pop(store_id, None)
        if epoch != self._epoch:
            return  # voided by a crash
        if self._lose_next > 0:
            # Lying-fsync fault: the device acknowledges (the caller's
            # completion still fires below) but the record never lands.
            self._lose_next -= 1
            self.stores_lost += 1
        else:
            self._records[key] = record
            self._sizes[key] = size
            self.stores_completed += 1
            self.bytes_logged += size
            self.log_records += 1
            self.log_bytes += size
        self._trace.record(STORE_END, self._kernel.now, self._pid, op, key, size)
        on_durable()

    def crash(self) -> None:
        """Void in-flight stores; durable records are untouched."""
        for handle in self._in_flight.values():
            if not handle.cancelled:
                self.stores_lost_to_crash += 1
            handle.cancel()
        self._in_flight.clear()
        self._epoch += 1
        # The device itself is immediately reusable after restart.
        self._device_free_at = self._kernel.now

    def retrieve(self, key: str) -> Optional[Tuple[Any, ...]]:
        """Read the durable record under ``key`` (used by recovery)."""
        return self._records.get(key)

    # -- checkpoint support ----------------------------------------------

    def record_size(self, key: str) -> int:
        """Billed size of the live record under ``key`` (0 if absent)."""
        return self._sizes.get(key, 0)

    def delete(self, key: str) -> None:
        """Drop the live record under ``key`` (checkpoint truncation).

        Only the live view shrinks; the append-only footprint is
        unchanged until :meth:`compact` rewrites the log.
        """
        self._records.pop(key, None)
        self._sizes.pop(key, None)

    def compact(self) -> None:
        """Rewrite the log as exactly the live records.

        Called by the host after a committed checkpoint truncated the
        superseded records: the compacted log is the snapshot record
        plus the untruncated suffix, so the footprint becomes the sum
        of the live record sizes.
        """
        self.log_records = len(self._records)
        self.log_bytes = sum(self._sizes.values())
        self.compactions += 1

    def recovery_scan_latency(self) -> float:
        """Time to read the whole log back at recovery, in seconds.

        Seek-dominated random reads: one ``base_latency`` per log
        record plus the payload at device bandwidth.  Deterministic
        (no jitter, no randomness) so seeded runs stay reproducible.
        """
        return self.log_records * self._base_latency + self.log_bytes / self._bandwidth

    # -- fault injection -------------------------------------------------

    def corrupt(self, key: str) -> bool:
        """Make the record under ``key`` unreadable, as if quarantined.

        Models :class:`repro.runtime.storage.FileStableStorage` finding
        the key's log frame failing its checksum when it reads the log
        back: the frame is copied aside and skipped, and the key simply
        stops resolving.  Returns whether a record was present.
        """
        if key not in self._records:
            return False
        self._records.pop(key, None)
        self._sizes.pop(key, None)
        self.records_corrupted += 1
        return True

    def lose_next_stores(self, count: int = 1) -> None:
        """Silently drop the next ``count`` completed stores.

        The completion callback still fires (the device *acknowledged*
        the write) but the record never becomes durable -- the
        classic lying-fsync fault.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._lose_next += count

    def set_slow(self, extra_latency: float) -> None:
        """Add ``extra_latency`` seconds to every store until cleared."""
        if not extra_latency >= 0.0:  # NaN too
            raise ValueError(
                f"extra_latency must be >= 0, got {extra_latency}"
            )
        self._slow_extra = extra_latency

    def clear_slow(self) -> None:
        """End a :meth:`set_slow` window."""
        self._slow_extra = 0.0
