"""In-memory call spans recorded by wrappers installed from outside a library.

A Tracer replaces attributes of modules or classes with timing wrappers.
Each wrapped call becomes one span: name, start, end, the index of the
span that was open when it started (its parent), and an optional note
computed from the call's arguments and result.  Spans stay in memory until
the caller reads them; restore() puts every replaced attribute back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

Note = Callable[[tuple, dict, Any], Any]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, note: Optional[Note] = None,
             materialize: bool = False) -> Callable:
        """A function that calls fn inside a span named name.

        materialize turns an iterator result into a list inside the span,
        so that a generator's work is timed where it is produced.
        """
        spans, open_, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else None)
            spans.append(span)
            open_.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                span.end = clock()
                open_.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str,
              note: Optional[Note] = None, materialize: bool = False) -> None:
        """Replace owner.attr, as looked up by the code that calls it."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note, materialize))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(kids):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.duration - covered)
    return out
