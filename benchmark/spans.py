"""In-memory span recorder that wraps the library's public functions from outside.

A span is (name, start, end, parent). Wrapping replaces every binding of a
target function in the loaded ``mssvar`` modules, so calls made through a
module attribute (``regimes.forward_filter``) and through a name imported
with ``from .store import record_draw`` are both recorded. The package's
source is untouched, and ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class SpanRecorder:
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def write_npz(self, path: str) -> None:
        np.savez_compressed(path, name=np.array(self.names), start=np.array(self.starts),
                            end=np.array(self.ends), parent=np.array(self.parents))


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the part of its interval its children cover."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    out = ends - starts
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_start = cur_end = None
        for k in sorted(kids, key=lambda k: starts[k]):
            a, b = max(starts[k], lo), min(ends[k], hi)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[p] -= covered
    return out


def install(recorder: SpanRecorder, targets: list[str]) -> list[tuple]:
    """Wrap each ``module.function`` of ``mssvar``; returns the patches to undo."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "mssvar" or name.startswith("mssvar."))]
    patches = []
    for target in targets:
        modname, fname = target.rsplit(".", 1)
        original = getattr(sys.modules[f"mssvar.{modname}"], fname)
        traced = recorder.wrap(target, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, traced)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)
