"""Host-time spans recorded from the benchmark's own files.

The traced run wraps the program's public entry points (never its
internals) for the duration of a traced pass, keeps every span in
memory, and writes them out when the run ends.  A span is (name, item,
id, parent, start, end, tag); self time is a span's duration minus the
time its direct children cover, so the self times of all spans under a
set of roots sum exactly (integer nanoseconds) to the roots' total.
"""

from __future__ import annotations

import csv
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, Iterator, List

__all__ = ["Span", "SpanRecorder", "instrument", "self_times", "write_spans"]


@dataclass
class Span:
    name: str
    item: str
    span_id: int
    parent: int  # -1 for a root
    start_ns: int
    end_ns: int
    tag: str = ""

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """In-memory span log with an implicit parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: set by the harness per item: the item id and its technique.
        self.item = ""
        self.technique = ""
        self._stack: List[int] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.item, len(self.spans), parent, 0, 0)
        self.spans.append(span)
        self._stack.append(span.span_id)
        span.start_ns = perf_counter_ns()
        return span

    def end(self, span: Span, tag: str = "") -> None:
        span.end_ns = perf_counter_ns()
        span.tag = tag
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)


def _wrap(recorder: SpanRecorder, name: str, fn, tag_of=None):
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            recorder.end(span, tag_of(out) if tag_of is not None else "")
    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap the layers' public entry points for the duration of the block.

    * ``repro.bench.mlffr.simulate`` — one MLFFR probe (``sim.probe``,
      tagged with the recorder's current technique);
    * ``repro.cpu.columnar.simulate_columnar`` — one columnar attempt
      (``sim.columnar``, tagged ``commit`` or ``fallback``);
    * ``PacketHistorySequencer.process`` and ``ScrCoreRuntime.receive`` —
      the functional path's per-packet layers.
    """
    import repro.bench.mlffr as mlffr
    import repro.cpu.columnar as columnar
    from repro.core.scr_aware import ScrCoreRuntime
    from repro.sequencer.sequencer import PacketHistorySequencer

    patches = [
        (mlffr, "simulate", "sim.probe", lambda _out: recorder.technique),
        (columnar, "simulate_columnar", "sim.columnar",
         lambda out: "fallback" if out is None else "commit"),
        (PacketHistorySequencer, "process", "sequencer.process", None),
        (ScrCoreRuntime, "receive", "core.receive", None),
    ]
    saved = []
    try:
        for owner, attr, name, tag_of in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original, tag_of))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> Dict[str, int]:
    """Self nanoseconds per span name."""
    child_ns: Dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.dur_ns
    out: Dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += s.dur_ns - child_ns[s.span_id]
    return dict(out)


def write_spans(path: str, spans: List[Span]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["name", "item", "id", "parent", "start_ns", "end_ns", "tag"])
        for s in spans:
            out.writerow([s.name, s.item, s.span_id, s.parent,
                          s.start_ns, s.end_ns, s.tag])
