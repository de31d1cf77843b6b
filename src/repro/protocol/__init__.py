"""Sans-io protocol state machines for the shared-memory emulations.

Every algorithm in the paper (and every baseline) is implemented as a
pure state machine that consumes events -- invocations, received
messages, stable-storage completions, timers, crash and recovery -- and
emits :class:`~repro.protocol.base.Effect` values describing what the
hosting environment should do (send a message, log to stable storage,
reply to the client, arm a timer).  The same protocol classes therefore
run unchanged under the deterministic simulator
(:mod:`repro.sim`) and the UDP runtime on a caller-driven selector loop
(:mod:`repro.runtime`).

Implemented protocols:

================================  =========================  ==========
class                             consistency                 model
================================  =========================  ==========
:class:`AbdSwmrProtocol`          atomic (single writer)     crash-stop
:class:`CrashStopMwmrProtocol`    atomic (multi writer)      crash-stop
:class:`PersistentAtomicProtocol` persistent atomic          crash-recovery
:class:`TransientAtomicProtocol`  transient atomic           crash-recovery
:class:`NaiveLoggingProtocol`     persistent atomic          crash-recovery
================================  =========================  ==========

plus the deliberately broken variants of :mod:`repro.protocol.broken`
used by the ablation experiments.
"""

from repro.protocol.abd import AbdSwmrProtocol
from repro.protocol.base import (
    Broadcast,
    CancelTimer,
    Effect,
    RecoveryComplete,
    RegisterProtocol,
    Reply,
    Send,
    SetTimer,
    StableView,
    Store,
)
from repro.protocol.crash_stop import CrashStopMwmrProtocol
from repro.protocol.fast_read import FastReadPersistentProtocol
from repro.protocol.naive import NaiveLoggingProtocol
from repro.protocol.persistent import PersistentAtomicProtocol
from repro.protocol.registry import PROTOCOLS, get_protocol_class
from repro.protocol.regular import RegularRegisterProtocol
from repro.protocol.transient import TransientAtomicProtocol

__all__ = [
    "AbdSwmrProtocol",
    "Broadcast",
    "CancelTimer",
    "CrashStopMwmrProtocol",
    "Effect",
    "FastReadPersistentProtocol",
    "NaiveLoggingProtocol",
    "PROTOCOLS",
    "PersistentAtomicProtocol",
    "RegularRegisterProtocol",
    "RecoveryComplete",
    "RegisterProtocol",
    "Reply",
    "Send",
    "SetTimer",
    "StableView",
    "Store",
    "TransientAtomicProtocol",
    "get_protocol_class",
]
