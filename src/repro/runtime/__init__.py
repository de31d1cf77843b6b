"""Live runtime: the protocols over real disks and UDP, on the kernel in wall time.

The paper's measurements come from a C implementation on a LAN using
UDP and synchronous file writes.  This package is the Python analogue:
the *same* sans-io protocol classes as the simulator, hosted on

* :class:`~repro.runtime.transport.UdpTransport` -- one UDP socket per
  node on the event loop, speaking a CRC-framed binary wire format (UDP
  really can drop/reorder, matching fair-lossy);
* :class:`~repro.runtime.storage.FileStableStorage` -- one CRC-framed
  log per node, zero-filled ahead of its frames; a store is one write of
  its frame over those zeros through an ``O_DSYNC`` descriptor, so it is
  durable when it returns (buffering "would violate even transient
  atomicity", Section V-A);
* :class:`~repro.runtime.node.SocketPoll` -- the I/O step the
  shared :class:`~repro.common.kernel.Kernel` takes to run live: one
  ``select.poll`` over the nodes' sockets; with the wall clock it makes
  the one scheduler the live event loop, run only by ``run_until`` on
  the caller's thread (:func:`~repro.runtime.node.live_kernel`);
* :class:`~repro.runtime.node.RuntimeNode` -- the kernel's driver of
  the process host the simulator shares
  (:class:`repro.protocol.host.NodeCore`): crash emulation by muting
  the transport, each node's storage jobs drained in issue order by its
  event loop (a live store crosses no thread), the threading contract.

The cluster over these nodes -- the kernel, the operation path and
the verbs that run the loop -- is the ``"live"`` backend of :mod:`repro.api`
(``open_cluster(backend="live")``, :class:`~repro.api.live.LiveBackend`).
The runtime exists to demonstrate the protocol code is real, and to
let users run a live cluster on localhost (``examples/live_udp_cluster
.py``).  For experiments, prefer the simulator: it is deterministic
and its clock is calibrated.
"""

from repro.runtime.node import RuntimeNode
from repro.runtime.storage import FileStableStorage
from repro.runtime.transport import UdpTransport

__all__ = ["FileStableStorage", "RuntimeNode", "UdpTransport"]
