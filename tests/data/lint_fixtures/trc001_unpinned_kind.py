"""TRC001 fixture: a trace kind appended without updating the manifest.

``gc_sweep`` is a plausible future kind; it is *not* in
``PINNED_TRACE_KINDS``, so the rule must demand the manifest append.
"""

# repro-lint: pretend src/repro/obs/tracing.py

ALL_KINDS = (
    "send",
    "deliver",
    "drop",
    "duplicate",
    "store_begin",
    "store_end",
    "invoke",
    "reply",
    "crash",
    "recover",
    "recovery_done",
    "timer",
    "ckpt_begin",
    "ckpt_tentative",
    "ckpt_commit",
    "gc_sweep",
)
