"""Helpers for sizing and representing written values.

The experiments write payloads of configurable size (Figure 6 bottom
sweeps 4 bytes up to the 64 KB UDP limit), so the cost models need a
byte size for every value.  :func:`payload_size` provides a
deterministic estimate; tests that need exact sizing write ``bytes``
payloads, whose size is their length.
"""

from __future__ import annotations

from typing import Any

#: Size billed for scalar values (a 4-byte integer padded to a word,
#: matching the paper's first experiment which writes a 4-byte integer).
SCALAR_SIZE = 4


def payload_size(value: Any) -> int:
    """Billable byte size of a written value.

    * ``None`` (the initial value, the paper's ``\\u22a5``) is free;
    * :class:`SizedValue` is billed at its declared size;
    * ``bytes``/``bytearray`` are billed at their length;
    * ``str`` is billed at the length of the UTF-8 bytes pickle writes
      for it, a lone surrogate (three bytes) included;
    * ints, floats and bools are billed at :data:`SCALAR_SIZE`;
    * anything else is billed at the length of its ``repr`` -- a stable
      proxy that keeps exotic test payloads roughly honest.
    """
    if value.__class__ is str or isinstance(value, str):  # the common case first, callless
        return len(value.encode("utf-8", "surrogatepass"))
    if value is None:
        return 0
    if isinstance(value, SizedValue):
        return value.size
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return SCALAR_SIZE
    return len(repr(value))


class SizedValue:
    """A value with an explicit billable size.

    Lets workloads simulate large payloads without allocating them::

        SizedValue("photo-1", size=48 * 1024)

    Equality and hashing are by ``label`` so registers treat two sized
    values with the same label as the same written value.
    """

    __slots__ = ("label", "size")

    def __init__(self, label: Any, size: int):
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        self.label = label
        self.size = size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SizedValue):
            return NotImplemented
        return self.label == other.label

    def __hash__(self) -> int:
        return hash(("SizedValue", self.label))

    def __repr__(self) -> str:
        return f"SizedValue({self.label!r}, size={self.size})"
