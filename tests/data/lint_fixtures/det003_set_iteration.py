"""DET003 fixture: bare set iteration inside fingerprint scope."""

# The determinism contract test scans this file as src/repro/history/history.py.


def fingerprint(ops):
    pids = {op.pid for op in ops}
    parts = []
    for pid in pids:
        parts.append(str(pid))
    return "|".join(parts)
