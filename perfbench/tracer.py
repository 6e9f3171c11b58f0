"""In-memory span tracer that wraps functions from outside the program.

A span records a name, a start, an end and the span that was open when
it started.  Spans live in flat arrays while the traced pass runs and
are written out once, at the end.  The tracer patches names where the
caller looks them up, so the program under test carries no tracing code:
``install`` replaces every binding of a function object it is given, in
every module it is given, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable

import numpy as np

#: Hook run after a traced call returns: ``hook(args, kwargs, result)``.
#: For a generator function it runs once per yielded item: ``hook(item)``.
Hook = Callable[..., None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self._patches: list[tuple[ModuleType, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Start a span under the innermost open one; returns its index."""
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """A stand-in for ``fn`` that records one span per call.

        A generator function gets one span per resumption, so the time
        the generator body runs is attributed to it and the consumer's
        time between items is not.
        """
        nid = self.intern(name)
        open_, close = self.open, self.close
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(i)
                    if hook is not None:
                        hook(item)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(
        self,
        targets: dict[str, Callable],
        hooks: dict[str, Hook],
        modules: list[ModuleType],
    ) -> None:
        """Replace each target function at every binding site in ``modules``.

        ``targets`` maps a span name to the original function object.
        """
        wrappers = {
            id(fn): self.wrap(name, fn, hooks.get(name))
            for name, fn in targets.items()
        }
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (the tracer may keep appending)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span as arrays plus the name table (``.npz``)."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children of one span never overlap: the traced code runs on one
    thread, and a span closes before its caller's next one opens.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


def totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: count, total duration and total self time."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    k = len(tracer.names)
    count = np.bincount(a["name"], minlength=k)
    dur_sum = np.bincount(a["name"], weights=dur, minlength=k)
    self_sum = np.bincount(a["name"], weights=own, minlength=k)
    return {
        name: {"count": int(count[i]), "s": float(dur_sum[i]), "self_s": float(self_sum[i])}
        for i, name in enumerate(tracer.names)
    }
