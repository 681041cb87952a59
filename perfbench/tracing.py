"""Spans around the public functions of each mmskit layer, installed from outside.

A `Tracer` wraps every binding of each listed function in the loaded mmskit
modules (the defining module and every module that imported the name), so
calls between layers pass through the wrapper; nothing under `src/` changes.
`enable(True)` puts the wrappers in place and `enable(False)` restores the
original functions, so untraced work runs the program's own code.

A span tracer records, per call, inclusive time, self time (inclusive time
minus the time of the spans it directly caused), and the outermost span it
ran under, so that a layer's time can be split by top-level operation.
Spans are folded into per-name totals as they close. A counting tracer
(`spans=False`) only counts calls.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (span name, defining module, function name). The three JSON codec calls
# share one span name: together they are the interchange layer.
LAYERS = (
    ("oracle.mms", "mmskit.oracle", "mms"),
    ("oracle.mms_exhaustive", "mmskit.oracle", "mms_exhaustive"),
    ("transforms.order", "mmskit.transforms", "order"),
    ("transforms.reduce", "mmskit.transforms", "reduce"),
    ("transforms.normalize", "mmskit.transforms", "normalize"),
    ("transforms.apply_rule", "mmskit.transforms", "apply_rule"),
    ("transforms.to_delta_oni", "mmskit.transforms", "to_delta_oni"),
    ("transforms.lift_allocation", "mmskit.transforms", "lift_allocation"),
    ("allocators.classify_agents", "mmskit.allocators", "classify_agents"),
    ("allocators.solve", "mmskit.allocators", "solve"),
    ("verify.check_alpha_mms", "mmskit.verify", "check_alpha_mms"),
    ("core.json", "mmskit.core", "instance_from_json"),
    ("core.json", "mmskit.core", "allocation_to_json"),
    ("core.json", "mmskit.core", "allocation_from_json"),
)

ORACLE_LAYERS = tuple(layer for layer in LAYERS if layer[0].startswith("oracle."))


class Tracer:
    def __init__(self, layers=LAYERS, spans: bool = True) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.root_busy: dict[tuple[str, str], float] = defaultdict(float)
        self.raised: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []
        self._swaps = []  # (modules binding the function, attr, function, wrapper)
        for name, module, attr in layers:
            fn = getattr(sys.modules[module], attr)
            mods = [mod for mod_name, mod in list(sys.modules.items())
                    if mod_name.partition(".")[0] == "mmskit" and getattr(mod, attr, None) is fn]
            wrapper = self._span(name, fn) if spans else self._count(name, fn)
            self._swaps.append((mods, attr, fn, wrapper))

    def enable(self, on: bool) -> None:
        for mods, attr, fn, wrapper in self._swaps:
            for mod in mods:
                setattr(mod, attr, wrapper if on else fn)

    def roots_busy(self) -> float:
        """Total time of outermost spans: all traced layer work."""
        return sum(t for (name, root), t in self.root_busy.items() if name == root)

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            stack = self._stack
            root = stack[0][0] if stack else name
            frame = [name, 0.0]  # name, time of direct child spans
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                self.busy[name] += took
                self.self_s[name] += took - frame[1]
                self.durations[name].append(took)
                self.root_busy[name, root] += took

        return traced
