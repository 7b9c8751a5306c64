"""In-memory span recorder and the wrappers that feed it.

The traced run times calls into each layer's public functions from the
benchmark's own files: :func:`instrument` replaces the named methods on
their classes with timing wrappers for the duration of a ``with`` block and
puts the originals back afterwards.  Nothing in ``src/`` changes.

A span keeps its name, start, end, parent span and a context label (the
campaign id and phase).  Spans go into flat arrays while the run is going
and are written out only when it ends (:meth:`SpanRecorder.write`).  The
current parent lives in a :class:`contextvars.ContextVar`, so spans opened
by different asyncio tasks never adopt each other.

A span's *self time* is its duration minus the part of it that its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.contexts: List[str] = [""]
        self._context = 0
        self._label = ""
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.context = array("i")
        #: ``(context label, counter name) -> count``.
        self.counters: Dict[Tuple[str, str], int] = {}
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )

    def name_index(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def set_context(self, label: str) -> None:
        """Tag every span opened from now on with ``label``."""
        self._context = len(self.contexts)
        self.contexts.append(label)
        self._label = label

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` under the current context."""
        key = (self._label, name)
        self.counters[key] = self.counters.get(key, 0) + n

    def open(self, name_id: int) -> Tuple[int, Any]:
        """Start a span; returns ``(span index, token)`` for :meth:`close`."""
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._current.get())
        self.context.append(self._context)
        self.end.append(0.0)
        token = self._current.set(index)
        self.start.append(time.perf_counter())
        return index, token

    def close(self, index: int, token: Any) -> None:
        self.end[index] = time.perf_counter()
        self._current.reset(token)

    def spans(self) -> Iterator[Tuple[int, str, float, float, int, str]]:
        """``(index, name, start, end, parent, context)`` per span."""
        names, contexts = self.names, self.contexts
        for i in range(len(self.start)):
            yield (
                i,
                names[self.name_id[i]],
                self.start[i],
                self.end[i],
                self.parent[i],
                contexts[self.context[i]],
            )

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (run end only)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tcontext\n")
            for span in self.spans():
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%s\n" % span)


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover, each clipped to the span."""
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = [end - start for start, end in zip(starts, ends)]
    for index, kids in children.items():
        lo, hi = starts[index], ends[index]
        clipped = sorted(
            (max(starts[k], lo), min(ends[k], hi)) for k in kids
        )
        covered = 0.0
        run_start, run_end = None, None
        for start, end in clipped:
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            elif end > run_end:
                run_end = end
        if run_end is not None:
            covered += run_end - run_start
        result[index] -= covered
    return result


#: ``before(args) -> state`` and ``after(args, result, state)`` hooks let a
#: wrapper update counters from a call's arguments and result.
Before = Callable[[tuple], Any]
After = Callable[[tuple, Any, Any], None]


def _span_wrapper(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    before: Optional[Before],
    after: Optional[After],
) -> Callable:
    name_id = recorder.name_index(name)
    open_span, close_span = recorder.open, recorder.close
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            index, token = open_span(name_id)
            try:
                result = await fn(*args, **kwargs)
            finally:
                close_span(index, token)
            if after is not None:
                after(args, result, state)
            return result

        return traced

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        state = before(args) if before is not None else None
        index, token = open_span(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(index, token)
        if after is not None:
            after(args, result, state)
        return result

    return traced


def _count_wrapper(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    count = recorder.count

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        count(name)
        return fn(*args, **kwargs)

    return counted


@dataclass(frozen=True)
class Probe:
    """One method to wrap: ``owner.attr`` recorded as span ``name``.

    With ``count_only`` the calls are counted under ``name`` and not timed
    (for functions called millions of times, where a span would cost more
    than the call).
    """

    owner: type
    attr: str
    name: str
    before: Optional[Before] = None
    after: Optional[After] = None
    count_only: bool = False


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, probes: Sequence[Probe]) -> Iterator[None]:
    """Install a wrapper for every probe; restore the originals on exit."""
    saved: List[Tuple[type, str, Any]] = []
    try:
        for probe in probes:
            original = probe.owner.__dict__[probe.attr]
            if isinstance(original, (classmethod, staticmethod)):
                fn, rewrap = original.__func__, type(original)
            else:
                fn, rewrap = original, None
            if probe.count_only:
                wrapped = _count_wrapper(recorder, probe.name, fn)
            else:
                wrapped = _span_wrapper(
                    recorder, probe.name, fn, probe.before, probe.after
                )
            saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, rewrap(wrapped) if rewrap else wrapped)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
