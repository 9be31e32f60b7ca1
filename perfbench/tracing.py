"""In-memory span tracer that instruments a program from outside.

The tracer replaces module attributes with wrappers that record a span
per call: name, start, end, parent span, sample id and thread.  Each
thread keeps its own span stack.  A span opened on a thread whose stack
is empty (a worker-pool thread) takes as parent the innermost span open
on the thread that created the tracer, which is the span that submitted
the work.  Spans stay in memory until :meth:`Tracer.write` is called.

A span's start and end are taken right around the wrapped call, and each
wrapper adds the rest of its own time to :attr:`Tracer.overhead_s`, so the
tracer's cost is measured rather than inferred from two noisy runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    root: int = 0
    sample: int | None = None
    thread: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; :meth:`wrap` installs, :meth:`remove` undoes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.overhead_s = 0.0
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.sample = None
            self._local.sample_depth = 0
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent: int | None = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(
            name=name,
            start=0.0,
            parent=parent,
            sample=self._local.sample,
            thread=threading.get_ident(),
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        span.root = index if parent is None else self.spans[parent].root
        stack.append(index)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        # A sample id lasts until the span that was open when it was set closes.
        if len(stack) < self._local.sample_depth:
            self._local.sample = None
            self._local.sample_depth = 0

    def begin_sample(self, sample: int) -> None:
        """Tag this thread's next spans, up to the end of the enclosing span."""
        depth = len(self._stack())
        self._local.sample = sample
        self._local.sample_depth = depth

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def add_overhead(self, seconds: float) -> None:
        with self._lock:
            self.overhead_s += seconds

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        sample_of: Callable[[Mapping[str, Any]], int] | None = None,
        info_of: Callable[[Mapping[str, Any], Any], dict] | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``sample_of`` maps the call's bound arguments to a sample id that
        starts a new sample on this thread; ``info_of`` maps the bound
        arguments and the result to extra fields stored on the span.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original) if sample_of or info_of else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            if sample_of is not None:
                self.begin_sample(sample_of(bound.arguments))
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if info_of is not None:
                span.info.update(info_of(bound.arguments, result))
            self.add_overhead(time.perf_counter() - entered - span.duration)
            return result

        self._patch(owner, attr, traced)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` without recording spans."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            entered = time.perf_counter()
            self.count(name)
            self.add_overhead(time.perf_counter() - entered)
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_time(self, index: int) -> float:
        """Span duration minus the part of it that its child spans cover."""
        span = self.spans[index]
        intervals = [
            (max(c.start, span.start), min(c.end, span.end)) for c in self.children(index)
        ]
        return span.duration - covered(intervals)

    def write(self, path: Path, header: dict) -> None:
        """Write ``header`` and then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total
