"""The simulator's scheduler: :class:`repro.common.kernel.Kernel`.

A simulated run builds it without a clock, so it runs on virtual time;
the live runtime builds the same class on the wall clock.
"""

from repro.common.kernel import EventHandle, Kernel

__all__ = ["EventHandle", "Kernel"]
