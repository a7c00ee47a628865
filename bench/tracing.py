"""In-memory spans around gpembed's public functions, patched from outside.

`Tracer.install` replaces module attributes with timing wrappers and
`Tracer.close` puts the originals back, so nothing under `src/` changes.
Each span records its name, start, end, its own id and the id of the span
that caused it.  A span's parent is the innermost open span on the same
thread; work started on a pool thread has no open span there, so its parent
is the root span the main thread has open (`evolution.run`,
`harness.report`).  Spans and ids are appended with single atomic list and
counter operations, so the wrappers are safe under the evaluation pool.
"""
from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    id: int
    parent: int
    extra: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        """Time the body as one span; a root span adopts pool-thread work."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        saved_root = self._root
        if root:
            self._root = sid
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self._root = saved_root
            self.spans.append(Span(name, start, end, sid, parent))

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace `owner.attr` with a wrapper recording span `name`.

        `measure(args, result)` runs after the call; its value is kept on the
        span and its own time is recorded as a bookkeeping span, so that it
        is excluded from every layer's self time.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            extra = None
            if measure is not None:
                extra = measure(args, result)
                tracer.spans.append(Span(BOOKKEEPING, end, perf_counter(), next(tracer._ids), parent))
            tracer.spans.append(Span(name, start, end, sid, parent, extra))
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def close(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


def _covered(children: list[Span], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the children's intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for s in sorted(children, key=lambda c: c.start):
        lo, hi = max(s.start, start), min(s.end, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarise(spans: list[Span]):
    """Per span name: total time, self time and call count.

    Self time is a span's duration minus the part of it that its child
    spans cover; children on other threads can overlap, so their union is
    subtracted, not their sum.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        self_time[s.name] += s.duration - _covered(children.get(s.id, []), s.start, s.end)
        calls[s.name] += 1
    return total, self_time, calls
