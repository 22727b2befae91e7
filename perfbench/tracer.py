"""In-memory spans around the calls between eitgate's modules.

The tracer replaces module attributes with wrappers that record a span
(name, start, end, parent) per call; nothing under `src/` changes.  A call
into a span name that is already the innermost open span passes straight
through, so `calls` counts entries into a layer from outside it.  Spans are
kept in parallel lists and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(self.clock())
        self.ends.append(-1)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was innermost")

    def innermost(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    def wrap(self, fn, name: str, after=None):
        """Wrapper recording a span `name`; after(tracer, args, result) counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.stack and tracer.names[tracer.stack[-1]] == name:
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def spanned(self, name: str, after=None):
        """Patch maker: wrap the original in a span `name`."""
        return lambda fn: self.wrap(fn, name, after)

    def patch(self, module, attr: str, make) -> None:
        """Replace module.attr by make(original); record it if it is gone."""
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if not hasattr(module, attr):
            self.missing.append(label)
            return
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self):
        """(name, start_ns, end_ns, parent_index) for every recorded span."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans()):
                fh.write(f"{i},{parent},{name},{start},{end}\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap one another; their union is clipped to the parent's
    interval before it is subtracted.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out
