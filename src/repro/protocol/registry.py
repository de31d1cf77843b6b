"""Name-based lookup of the available protocols.

The backends of :mod:`repro.api` (simulator, KV store, live runtime)
and the experiment harnesses select algorithms by their short name so that
benchmark sweeps can be written as data::

    for algorithm in ("crash-stop", "transient", "persistent"):
        ...
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Type

from repro.common.errors import ConfigurationError
from repro.protocol.abd import AbdSwmrProtocol
from repro.protocol.base import RegisterProtocol
from repro.protocol.broken import BROKEN_PROTOCOLS
from repro.protocol.crash_stop import CrashStopMwmrProtocol
from repro.protocol.naive import NaiveLoggingProtocol
from repro.protocol.fast_read import FastReadPersistentProtocol
from repro.protocol.persistent import PersistentAtomicProtocol
from repro.protocol.regular import RegularRegisterProtocol
from repro.protocol.transient import TransientAtomicProtocol
from repro.protocol.two_round import TwoRoundRegisterProtocol

PROTOCOLS: Dict[str, Type[RegisterProtocol]] = {
    AbdSwmrProtocol.name: AbdSwmrProtocol,
    CrashStopMwmrProtocol.name: CrashStopMwmrProtocol,
    PersistentAtomicProtocol.name: PersistentAtomicProtocol,
    TransientAtomicProtocol.name: TransientAtomicProtocol,
    NaiveLoggingProtocol.name: NaiveLoggingProtocol,
    RegularRegisterProtocol.name: RegularRegisterProtocol,
    FastReadPersistentProtocol.name: FastReadPersistentProtocol,
}
"""Production algorithms, keyed by :attr:`RegisterProtocol.name`."""

ALL_PROTOCOLS: Dict[str, Type[RegisterProtocol]] = {**PROTOCOLS, **BROKEN_PROTOCOLS}
"""Production plus deliberately broken variants (tests/ablations only)."""


def get_protocol_class(
    name: str, include_broken: bool = False
) -> Type[RegisterProtocol]:
    """Resolve an algorithm name to its protocol class.

    Raises :class:`~repro.common.errors.ConfigurationError` for unknown
    names, listing the valid ones.
    """
    table = ALL_PROTOCOLS if include_broken else PROTOCOLS
    try:
        return table[name]
    except KeyError:
        valid = ", ".join(sorted(table))
        raise ConfigurationError(
            f"unknown protocol {name!r}; valid names: {valid}"
        ) from None


def protocol_factory(
    name: str, retransmit_interval: float, include_broken: bool = False
) -> Callable[..., RegisterProtocol]:
    """The ``(pid, num_processes, stable) -> protocol`` factory a node host takes.

    ``retransmit_interval`` reaches only the protocols that retransmit
    (:class:`~repro.protocol.two_round.TwoRoundRegisterProtocol` subclasses).
    Unknown names raise as in :func:`get_protocol_class`.
    """
    cls = get_protocol_class(name, include_broken=include_broken)
    if issubclass(cls, TwoRoundRegisterProtocol):
        return functools.partial(cls, retransmit_interval=retransmit_interval)
    return cls
