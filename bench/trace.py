"""The traced run: a ``cProfile`` collector folded into layers.

No span lives inside ``src/`` yet, so the per-layer numbers come from
the profiler: every function's self time and call count is billed to
the layer its module belongs to (:data:`bench.spec.LAYERS`), and every
caller -> callee pair whose layers differ becomes an edge carrying the
calls and inclusive seconds that crossed that boundary -- the aggregate
form of a span at each layer boundary.

Billing rules:

* a Python function is billed to the layer of its module; stdlib and
  third-party code is ``host``; a ``repro.`` module that no layer
  claims is ``unattributed``;
* a C built-in has no module of its own worth naming (``list.append``,
  ``heappush``, ``os.fsync``), and neither has code generated at run
  time (a dataclass ``__init__`` lives in ``<string>``): their self
  time is billed to the layer of the function that called them, which
  is the layer that can avoid the call;
* time a thread spends *blocked* (lock acquire, ``epoll.poll``, queue
  get, sleep) is not work of any layer: it is reported as ``wait_s``
  and left out of the shares.  Only the live workload has any.

``cProfile`` bills per call, so call-heavy layers look more expensive
than they are; the probes (``bench/probes.py``) cross-check the shares
without a profiler attached.
"""

from __future__ import annotations

import cProfile
import os
import threading
from typing import Any, Dict, List, Tuple

from bench.spec import LAYER_NAMES, LAYERS

#: Built-ins that block instead of computing.
_WAITS = (
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'acquire' of '_thread.RLock' objects>",
    "<method 'poll' of 'select.epoll' objects>",
    "<method 'poll' of 'select.poll' objects>",
    "<built-in method select.select>",
    "<method 'get' of '_queue.SimpleQueue' objects>",
    "<built-in method time.sleep>",
)


def _is_glue(code: Any) -> bool:
    """Built-ins and generated code: billed to whoever calls them."""
    return isinstance(code, str) or code.co_filename == "<string>"


_PREFIXES: List[Tuple[str, str]] = sorted(
    ((prefix, layer) for layer, prefixes in LAYERS.items() for prefix in prefixes),
    key=lambda item: -len(item[0]),
)


def layer_of_module(module: str) -> str:
    """The layer that claims dotted ``module`` (longest prefix wins)."""
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "unattributed" if module.split(".")[0] == "repro" else "host"


class Collector:
    """One ``cProfile.Profile`` per thread, merged into a layer table.

    ``roots`` maps a directory to the dotted package its files belong
    to (``{".../src/repro": "repro", ".../bench": "bench"}``); files
    elsewhere are ``host``.
    """

    def __init__(self, roots: Dict[str, str]):
        self._roots = [
            (os.path.realpath(path) + os.sep, package)
            for path, package in roots.items()
        ]
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._layer_cache: Dict[str, str] = {}

    # -- collection --------------------------------------------------------

    def _enable_here(self) -> None:
        profile = cProfile.Profile()
        with self._lock:
            self._profiles.append(profile)
        profile.enable()

    def start(self) -> None:
        """Profile the calling thread and every thread started later."""
        # A Python-level hook fires on a new thread's first call event;
        # enabling cProfile there replaces the hook for that thread.
        threading.setprofile(lambda *_args: self._enable_here())
        self._enable_here()

    def stop(self) -> None:
        """Stop collecting.  Call after the profiled threads are idle."""
        threading.setprofile(None)
        for profile in self._profiles:
            profile.disable()

    # -- folding -----------------------------------------------------------

    def _layer_of_code(self, code: Any) -> str:
        filename = code.co_filename
        layer = self._layer_cache.get(filename)
        if layer is None:
            layer = "host"
            real = os.path.realpath(filename)
            for root, package in self._roots:
                if real.startswith(root):
                    relative = real[len(root):].rsplit(".", 1)[0]
                    parts = [package] + relative.split(os.sep)
                    if parts[-1] == "__init__":
                        parts.pop()
                    layer = layer_of_module(".".join(parts))
                    break
            self._layer_cache[filename] = layer
        return layer

    def table(self, ops: int) -> Dict[str, Any]:
        """Fold everything collected into layers and edges.

        ``ops`` is the number of client operations the profiled region
        executed; shares are of busy (non-blocked) self time.
        """
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        calls = dict.fromkeys(LAYER_NAMES, 0)
        edges: Dict[Tuple[str, str], List[float]] = {}
        wait_s = 0.0
        entries = [e for profile in self._profiles for e in profile.getstats()]
        # Glue called by glue (a dataclass __init__ calling
        # object.__setattr__) reaches the paying layer by scaling the
        # outer glue's self time: glue -> [own self time, nested glue].
        nested: Dict[Any, List[float]] = {}
        for entry in entries:
            if _is_glue(entry.code):
                totals = nested.setdefault(entry.code, [0.0, 0.0])
                totals[0] += entry.inlinetime
                totals[1] += sum(
                    sub.inlinetime for sub in entry.calls or ()
                    if _is_glue(sub.code) and sub.code not in _WAITS
                )
        scale = {
            code: 1.0 + inner / own if own else 1.0
            for code, (own, inner) in nested.items()
        }
        for entry in entries:
            glue = _is_glue(entry.code)
            if glue:
                # On edges, glue that calls back into Python
                # (Context.run, heappush -> __lt__) stands as host.
                layer = "host"
            else:
                layer = self._layer_of_code(entry.code)
                self_s[layer] += entry.inlinetime
                calls[layer] += entry.callcount
            for sub in entry.calls or ():
                if _is_glue(sub.code):
                    if sub.code in _WAITS:
                        wait_s += sub.inlinetime
                    elif not glue:
                        self_s[layer] += sub.inlinetime * scale.get(sub.code, 1.0)
                        calls[layer] += sub.callcount
                    continue
                child = self._layer_of_code(sub.code)
                if child != layer:
                    edge = edges.setdefault((layer, child), [0, 0.0])
                    edge[0] += sub.callcount
                    edge[1] += sub.totaltime
        busy = sum(self_s.values())
        layers = {
            name: {
                "calls_per_op": calls[name] / ops,
                "self_s": self_s[name],
                "self_share": self_s[name] / busy if busy else 0.0,
            }
            for name in LAYER_NAMES
        }
        return {
            "ops": ops,
            "busy_s": busy,
            "wait_s": wait_s,
            "threads": len(self._profiles),
            "layers": layers,
            "edges": [
                {"from": parent, "to": child, "calls": int(count),
                 "inclusive_s": seconds}
                for (parent, child), (count, seconds) in sorted(
                    edges.items(), key=lambda item: -item[1][1]
                )
            ],
        }
