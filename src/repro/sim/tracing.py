"""The trace vocabulary under its simulator-side name.

Traces are not simulator machinery -- the process host
(:mod:`repro.protocol.host`) and the live runtime speak the same kind
names -- so the module lives in :mod:`repro.obs.tracing`; this one
re-exports it for the engine's ``from repro.sim import tracing``.
"""

from repro.obs.tracing import (  # noqa: F401
    ALL_KINDS,
    CKPT_BEGIN,
    CKPT_COMMIT,
    CKPT_TENTATIVE,
    CRASH,
    DELIVER,
    DROP,
    DUPLICATE,
    INVOKE,
    KIND_IDS,
    NULL_TRACE,
    RECOVER,
    RECOVERY_DONE,
    REPLY,
    SEND,
    STORE_BEGIN,
    STORE_END,
    TIMER,
    Listener,
    NullTrace,
    Trace,
    TraceEvent,
)
