"""Span tracing from outside the program: class-level method wrappers.

The benchmark measures each layer by timing calls into the program's
public objects.  :class:`Tracer` replaces a method on the class that
defines it with a wrapper that opens a span, calls the original, and
closes the span; :meth:`Tracer.uninstall` puts every original back.
Patching the class (not an instance) keeps the wrappers in force for
objects the program copies or creates mid-run, such as per-session
monitors and environments.

Self times are disjoint: a span's self time is its duration minus the
time of the wrapped calls made inside it, so a nested call is charged to
the innermost wrapper and the layer totals add up to the wrapped wall.
Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    """Collects spans, per-layer self times, call counts and counters."""

    def __init__(self) -> None:
        #: Layer name -> seconds spent in that layer's own code.
        self.self_s: dict[str, float] = defaultdict(float)
        #: Layer name -> number of wrapped calls.
        self.calls: dict[str, int] = defaultdict(int)
        #: Counter name -> amount (work counts taken at layer boundaries).
        self.counts: dict[str, float] = defaultdict(float)
        #: ``(span_id, parent_id, layer, start, end)``; parent -1 is a root.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._seen: set[tuple[int, str]] = set()

    # -- span bookkeeping ------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, self._stack[-1][0] if self._stack else -1, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - frame[2]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((frame[0], frame[1], layer, start, end))

    def root_time(self) -> float:
        """Total duration of root spans (calls not nested in another)."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent < 0)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, pick=None, count=None) -> None:
        """Wrap ``owner.attr`` (a class, searched along its MRO, or a module).

        Calls are charged to *layer*, or to ``pick(args, result)`` when
        *pick* is given and the call returned.  *count*, when given, is
        ``(args, kwargs, result) -> {counter: amount}``.  Wrapping the
        same attribute twice is a no-op.
        """
        if inspect.isclass(owner):
            for klass in owner.__mro__:
                if attr in vars(klass):
                    owner = klass
                    break
            else:
                raise AttributeError(f"{owner.__name__} has no {attr!r}")
        key = (id(owner), attr)
        if key in self._seen:
            return
        original = vars(owner)[attr]
        tracer = self

        def finish(frame, start, args, kwargs, result, failed):
            end = perf_counter()
            name = layer if pick is None or failed else pick(args, result)
            tracer._close(frame, name, start, end)
            if count is not None and not failed:
                for counter, amount in count(args, kwargs, result).items():
                    tracer.counts[counter] += amount

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                frame = tracer._open()
                start = perf_counter()
                result, failed = None, True
                try:
                    result = await original(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    finish(frame, start, args, kwargs, result, failed)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                frame = tracer._open()
                start = perf_counter()
                result, failed = None, True
                try:
                    result = original(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    finish(frame, start, args, kwargs, result, failed)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self._seen.add(key)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (latest first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._seen.clear()

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        """Self seconds, call counts and counters as one JSON-able dict."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line (id, parent, layer, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
