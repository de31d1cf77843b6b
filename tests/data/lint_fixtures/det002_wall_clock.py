"""DET002 fixture: a wall-clock read inside virtual-time code."""

# The determinism contract test scans this file as src/repro/sim/clockless.py.

import time


def stamp(event):
    event.at = time.time()
    return event
