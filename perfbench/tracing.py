"""Spans recorded by the benchmark around each call into a layer.

A span has a name, start and end (ns), a parent (the index of the
enclosing span, -1 for a root), a request that groups the spans of one
request or batch (a span opened without one takes its parent's) and an
error flag.  Spans stay in memory, one column per field so that a replay
with a span per formula call of a 100k-point sweep stays small; run.py
writes them out once, when the run ends.  A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.error = array("b")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def begin(self, name: str, request: int | None = None) -> None:
        parent = self._open[-1] if self._open else -1
        if request is None:
            request = self.request[parent] if parent >= 0 else -1
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self._open.append(len(self.name))
        self.name.append(name_id)
        self.parent.append(parent)
        self.request.append(request)
        self.error.append(0)
        self.end_ns.append(0)
        self.start.append(perf_counter_ns())

    def end(self, error: bool = False) -> None:
        t = perf_counter_ns()
        i = self._open.pop()
        self.end_ns[i] = t
        self.error[i] = error

    def call(self, name: str, request, func, *args, **kwargs):
        """Run ``func(*args, **kwargs)`` inside a span; an exception marks
        it failed."""
        self.begin(name, request)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            self.end(error=True)
            raise
        self.end()
        return result

    def self_times(self) -> list[int]:
        own = [e - s for s, e in zip(self.start, self.end_ns)]
        for parent, dur in zip(self.parent, list(own)):
            if parent >= 0:
                own[parent] -= dur
        return own

    def layers(self) -> dict[str, list[int]]:
        """name -> [self time ns, calls, errors]."""
        acc = [[0, 0, 0] for _ in self.names]
        for name_id, own, error in zip(self.name, self.self_times(), self.error):
            a = acc[name_id]
            a[0] += own
            a[1] += 1
            a[2] += error
        return {name: a for name, a in zip(self.names, acc) if a[1]}

    def columns(self) -> dict:
        """Every span, one list per field, with the names as strings."""
        return {"name": [self.names[i] for i in self.name],
                "start_ns": self.start.tolist(), "end_ns": self.end_ns.tolist(),
                "parent": self.parent.tolist(), "request": self.request.tolist(),
                "error": self.error.tolist(), "self_ns": self.self_times()}
