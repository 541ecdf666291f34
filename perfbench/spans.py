"""Spans recorded around the calls into each layer, kept in memory.

A span has a name, a start and an end on the ``time.perf_counter`` clock (on
Linux CLOCK_MONOTONIC, shared by every process on the machine, so spans a
child process records line up with the parent's), the id of the span that
caused it and the id of the operation it belongs to. Counts measured at the
same boundary ride on the span. Nothing is written until the run ends.
"""

from __future__ import annotations

import json


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []

    def add(self, name, start, end, parent=None, op=None, counts=None) -> int:
        span_id = len(self.spans) + 1
        self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                           "parent": parent, "op": op, "counts": dict(counts or {})})
        return span_id

    def add_op(self, name, start, end) -> int:
        """A top-level span: one operation, whose op id is its own span id."""
        span_id = self.add(name, start, end)
        self.spans[-1]["op"] = span_id
        return span_id

    def children(self, span_id) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def self_time(self, span: dict) -> float:
        return self_time(span, self.children(span["id"]))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given (start, end) pairs."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: dict, children) -> float:
    """The span's duration minus the part of it that its children cover."""
    lo, hi = span["start"], span["end"]
    return (hi - lo) - covered([(c["start"], c["end"]) for c in children], lo, hi)
