"""A module every lint rule is happy with (no-false-positive control).

Seeded randomness, sorted iteration over sets, and no wall-clock reads:
the shapes the rules demand, in one place.
"""

# The determinism contract test scans this file as src/repro/history/history.py.

import random


def pick(seed, items):
    rng = random.Random(seed)
    ordered = sorted(items)
    return ordered[rng.randrange(len(ordered))]


def fingerprint(ops):
    pids = {op.pid for op in ops}
    return ",".join(str(pid) for pid in sorted(pids)) + f"|{len(pids)}"
