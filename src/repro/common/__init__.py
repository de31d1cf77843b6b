"""Shared building blocks used across the repro library.

This package holds the pieces that every layer of the emulation depends
on but that carry no protocol logic of their own:

* :mod:`repro.common.timestamps` -- the lexicographically ordered
  ``[sequence_number, process_id]`` tags the paper uses to order written
  values.
* :mod:`repro.common.ids` -- process and operation identifiers.
* :mod:`repro.common.errors` -- the exception hierarchy.
* :mod:`repro.common.config` -- declarative configuration objects for
  clusters, networks and storage devices.
* :mod:`repro.common.kernel` -- the event scheduler the simulator and
  the live runtime share.
"""

from repro.common.errors import (
    ConfigurationError,
    NotRecoveredError,
    OperationAborted,
    ProcessCrashed,
    ProtocolError,
    ReproError,
    StorageError,
    TransportError,
)
from repro.common.ids import OperationId, ProcessId, make_operation_id
from repro.common.timestamps import Tag, bottom_tag, max_tag
from repro.common.values import SizedValue, payload_size

__all__ = [
    "ConfigurationError",
    "NotRecoveredError",
    "OperationAborted",
    "OperationId",
    "ProcessCrashed",
    "ProcessId",
    "ProtocolError",
    "ReproError",
    "SizedValue",
    "StorageError",
    "Tag",
    "TransportError",
    "bottom_tag",
    "make_operation_id",
    "max_tag",
    "payload_size",
]
