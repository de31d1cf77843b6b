#!/usr/bin/env python
"""Bytecodes per simulated operation, by layer: a deterministic profile.

Runs round 0 of a simulated benchmark workload in-process, with the
benchmark's own closed-loop driver (``bench.driver.ClosedLoop``, plus
``CrashRotation`` where the workload crashes processes) and a
probe-less calibration, and counts the bytecodes the interpreter
executes inside the closed loop -- set-up and the final check are left
out.  The count is a pure function of the code and the seed, so it
steers optimisation where wall-clock figures are too noisy to: it prints
bytecodes per operation in total, per ``bench/spec.py`` ``LAYERS`` row
(a layer is billed for the code of its own modules), and for the top
``K`` functions::

    python tools/opcount.py --workload sim-write-churn [--ops N] [--top K]

``--ops`` defaults to the workload's full round.  Counting runs every
bytecode through a ``sys.settrace`` hook, so a full 6 000-operation
round takes a few minutes; a few hundred operations give the same
figure within a few per cent.  Only simulated workloads can be counted;
figures are those of the running CPython, whose bytecode differs
between versions.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import defaultdict
from typing import Any, DefaultDict, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]

from bench import spec  # noqa: E402
from bench.driver import Calibration, ClosedLoop, CrashRotation, Samples, clock_of  # noqa: E402
from bench.trace import layer_of_module  # noqa: E402

#: ``bench/run.py`` gives round ``i`` of seed ``s`` the seed ``s * 1009 + i``.
ROUND_0_SEED = spec.DEFAULT_SEED * 1009

#: Source roots and the dotted package their files belong to.
_ROOTS = ((os.path.join(SRC, "repro") + os.sep, "repro"),
          (os.path.join(ROOT, "bench") + os.sep, "bench"))


def module_of(filename: str) -> str:
    """The dotted module of a source file, ``""`` outside the checkout."""
    real = os.path.realpath(filename)
    for root, package in _ROOTS:
        if real.startswith(root):
            parts = [package] + real[len(root):].rsplit(".", 1)[0].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            return ".".join(parts)
    return ""


def count_bytecodes(action) -> Dict[Any, int]:
    """Run ``action()``; return the bytecodes it executed per code object."""
    counts: DefaultDict[Any, int] = defaultdict(int)

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        action()
    finally:
        sys.settrace(None)
    return counts


def profile(workload_name: str, ops: Optional[int] = None) -> Dict[str, Any]:
    """Count round 0 of a simulated workload; the per-code counts and the ops."""
    from repro.api import open_cluster

    workload = spec.WORKLOADS[workload_name]
    if workload.backend == "live":
        raise SystemExit(f"{workload_name}: only simulated workloads can be counted")
    ops = workload.ops if ops is None else ops
    samples = Samples()
    calibration = Calibration(None, samples, clock_of(workload))
    cluster = open_cluster(
        backend=workload.backend,
        protocol="persistent",
        num_processes=workload.num_processes,
        seed=ROUND_0_SEED,
        **workload.options,
    )
    try:
        cluster.start()
        loop = ClosedLoop(cluster, workload, random.Random(ROUND_0_SEED), ops, calibration)
        if loop.keys is not None:
            cluster.preload(loop.keys.keys)
        if workload.fault_interval:
            CrashRotation(cluster, loop, workload).start()
        counts = count_bytecodes(loop.run)
        verdict = cluster.check()
    finally:
        cluster.close()
    if not verdict.ok:
        raise SystemExit(f"{workload_name}: the history failed its check: {verdict.reason}")
    return {"counts": counts, "ops": ops, "settled": samples.settled}


def report(result: Dict[str, Any], top: int) -> List[str]:
    """The printed table: total, per layer, then the ``top`` functions."""
    ops = result["settled"]
    layers: DefaultDict[str, int] = defaultdict(int)
    functions: DefaultDict[str, int] = defaultdict(int)
    for code, count in result["counts"].items():
        module = module_of(code.co_filename)
        layers[layer_of_module(module) if module else "host"] += count
        name = getattr(code, "co_qualname", code.co_name)
        functions[f"{module or os.path.basename(code.co_filename)}:{name}"] += count
    total = sum(layers.values())
    lines = [f"bytecodes per operation: {total / ops:.0f} "
             f"({total} over {ops} settled operations)", "", "per layer:"]
    for layer, count in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(f"  {layer:<22} {count / ops:9.1f}  {count / total:6.1%}")
    lines += ["", f"top {top} functions:"]
    ranked = sorted(functions.items(), key=lambda item: -item[1])[:top]
    for name, count in ranked:
        lines.append(f"  {count / ops:9.1f}  {count / total:6.1%}  {name}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    simulated = sorted(n for n, w in spec.WORKLOADS.items() if w.backend != "live")
    parser.add_argument("--workload", required=True, choices=simulated)
    parser.add_argument("--ops", type=int, default=None,
                        help="operations to run (default: the workload's round)")
    parser.add_argument("--top", type=int, default=15,
                        help="functions to list (default: 15)")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be >= 1")
    lines = report(profile(args.workload, args.ops), args.top)
    try:
        print("\n".join(lines))
    except BrokenPipeError:  # a reader such as ``| head`` closed the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
