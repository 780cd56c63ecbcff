"""Span tracer that wraps rollmia's public functions from outside the package.

The benchmark records spans around calls into each rollmia module without
editing the package: it replaces a function in every module namespace that
holds it (``harness`` and ``cli`` import names directly, so patching only the
defining module would miss their calls) and restores the originals when done.

A span is ``(name, start, end, parent)`` where ``parent`` is the index of the
enclosing span in the same list, or ``None``.  Self time is a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

PACKAGE = "rollmia"
MODULES = ("pianoroll", "nn", "gan", "metrics", "whitebox", "montecarlo", "harness", "cli")

# hook(args, kwargs, counts) runs after a successful call and adds to counts
Hook = Callable[[tuple, dict, dict], None]


def _modules() -> dict:
    """The rollmia modules present, imported.

    All of them are imported before any patching: a module imported while
    patches are installed would bind the wrappers by name and keep them.
    """
    modules = {}
    for modname in MODULES:
        try:
            modules[modname] = importlib.import_module(f"{PACKAGE}.{modname}")
        except ModuleNotFoundError:
            continue
    return modules


def public_functions() -> list[str]:
    """Every public function defined in a rollmia module, as 'module.name'."""
    names = []
    for modname, module in _modules().items():
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                names.append(f"{modname}.{attr}")
    return names


class Tracer:
    """Records spans for the functions it is installed on.

    ``install`` patches; ``uninstall`` restores every patched attribute.
    Functions missing from the package are listed in ``absent`` instead of
    failing, because later versions of rollmia may remove them.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, names: Iterable[str], hooks: dict[str, Hook] | None = None) -> None:
        hooks = hooks or {}
        modules = _modules()
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for qualname in names:
            modname, _, fname = qualname.rpartition(".")
            original = getattr(modules.get(modname), fname, None)
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self.wrap(qualname, original, hooks.get(qualname))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(args, kwargs, counts)
            return result

        return traced


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def aggregate(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    stats: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - _covered(start, end, children.get(index, []))
    return stats
