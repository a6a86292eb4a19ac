"""In-memory spans and their self-time arithmetic (standard library only).

A span is a dict with ``id``, ``name``, ``start_ns``, ``end_ns``, ``parent``
(the id of the enclosing span or None), ``workload``, ``run_id`` and
``counts``.  Spans are kept in memory and written out once at the end.
"""

from __future__ import annotations

import functools
import json
import time


class Recorder:
    """Records nested spans around wrapped calls in one thread."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        """Return ``fn`` wrapped so every call records a span called ``name``.

        ``counts(result, args, kwargs)`` returns a dict of work counts; it
        runs after the span has ended, so its cost is not in the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "workload": self.workload, "run_id": self.run_id,
                    "start_ns": 0, "end_ns": 0, "counts": {}}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(result, args, kwargs)
            return result

        return traced

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": with_self_time(self.spans), **extra}, fh)


def _covered_ns(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def with_self_time(spans: list[dict]) -> list[dict]:
    """Copies of ``spans`` with ``duration_s`` and ``self_s`` added.

    Self time is the span's duration minus the part of its interval that its
    direct children cover (children clipped to the parent, overlaps counted
    once).
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = []
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(s["id"], [])
                   if min(b, end) > max(a, start)]
        covered = _covered_ns(clipped)
        out.append({**s, "duration_s": (end - start) * 1e-9,
                    "self_s": (end - start - covered) * 1e-9})
    return out
