"""In-memory spans recorded around calls into the library.

A span has a name, a start, an end and the span that was open when it began
(its parent). All spans of one pass share the pass id. Nothing is written
while a pass runs; the caller dumps ``Tracer.spans`` when the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    pass_id: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "pass": self.pass_id,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Records nested spans; ``span`` is a context manager around one call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.pass_id = ""

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, self.pass_id, parent, perf_counter(), attrs=attrs)
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def of_pass(self, pass_id: str) -> list[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]


class NullTracer:
    """Stand-in for untraced passes: spans cost one no-op context manager."""

    pass_id = ""

    def span(self, name: str, **attrs):
        return nullcontext()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out
