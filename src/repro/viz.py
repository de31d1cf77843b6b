"""ASCII space-time diagrams of runs, in the style of the paper's figures.

The paper illustrates its criteria and proofs with process-timeline
diagrams (Figures 1-3).  :func:`render_history` draws the same kind of
diagram from a recorded history::

    p0 |--W(v1)--|  |--W(v2)...X        R  |--W(v3)--|
    p1     |--R():v1--|

Each process gets one line; operations appear as ``|--op--|`` spans,
crashes as ``X``, recoveries as ``R``, and interrupted operations as
``...X``.  Time is quantized onto a character grid, so the diagrams are
qualitative -- exactly like the paper's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.history.events import Crash, Invoke, Recover, Reply
from repro.history.history import History

#: Diagram width in characters.
DEFAULT_WIDTH = 100


def _column(time: float, t0: float, t1: float, width: int) -> int:
    if t1 <= t0:
        return 0
    fraction = (time - t0) / (t1 - t0)
    return min(width - 1, max(0, int(fraction * (width - 1))))


def _place(
    canvas: List[str], column: int, text: str, width: int, overwrite: bool = False
) -> None:
    """Write ``text`` onto the canvas row at ``column``, clamped.

    By default only blank cells are written, so earlier spans are not
    clobbered; single-character markers (crash/recovery) overwrite.
    """
    start = min(column, max(0, width - len(text)))
    for offset, char in enumerate(text):
        position = start + offset
        if 0 <= position < width and (overwrite or canvas[position] == " "):
            canvas[position] = char


def _op_label(kind: str, value, result) -> str:
    if kind == "write":
        return f"W({value})"
    if result is None:
        return "R()"
    return f"R():{result}"


def render_history(
    history: History,
    width: int = DEFAULT_WIDTH,
    pids: Optional[List[int]] = None,
) -> str:
    """Render ``history`` as one timeline per process."""
    events = history.events
    if not events:
        return "(empty history)"
    t0 = events[0].time
    t1 = events[-1].time
    if pids is None:
        pids = sorted({event.pid for event in events})

    rows: Dict[int, List[str]] = {pid: [" "] * width for pid in pids}
    open_col: Dict[int, Tuple[int, str]] = {}

    records = {op.op: op for op in history.operations()}

    for event in events:
        if event.pid not in rows:
            continue
        canvas = rows[event.pid]
        column = _column(event.time, t0, t1, width)
        if isinstance(event, Invoke):
            record = records[event.op]
            label = _op_label(record.kind, record.value, record.result)
            open_col[event.pid] = (column, label)
            if record.pending:
                _place(canvas, column, f"|--{label}...", width)
        elif isinstance(event, Reply):
            start, label = open_col.pop(event.pid, (column, "?"))
            body = f"|--{label}--|"
            span = max(column - start + 1, len(body))
            if start + span > width:
                start = max(0, width - span)
            text = f"|--{label}" + "-" * max(0, span - len(body)) + "--|"
            _place(canvas, start, text, width)
        elif isinstance(event, Crash):
            open_col.pop(event.pid, None)
            _place(canvas, column, "X", width, overwrite=True)
        elif isinstance(event, Recover):
            # An immediate recovery lands on the crash marker's column;
            # slide right so both stay visible.
            if column < width and canvas[column] == "X":
                column = min(column + 1, width - 1)
            _place(canvas, column, "R", width, overwrite=True)

    lines = [f"p{pid} |" + "".join(rows[pid]) for pid in pids]
    duration_us = (t1 - t0) * 1e6
    lines.append(f"     {'-' * width}")
    lines.append(f"     0 us {' ' * max(0, width - 20)}{duration_us:.0f} us")
    return "\n".join(lines)

