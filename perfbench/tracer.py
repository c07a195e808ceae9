"""In-memory spans recorded around calls into minfilt's public functions.

A span has a name, the layer (minfilt module) it belongs to, start and end
times from ``time.perf_counter``, the index of its parent span and the id of
the unit of work that caused it.  Spans stay in memory until the run writes
them out at the end.  When tracing is off, ``span`` hands back one shared
no-op context manager, so an untraced call pays only for that lookup.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_OFF = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, layer: str, call_id: int):
        if not self.enabled:
            return _OFF
        return self._record(name, layer, call_id)

    @contextmanager
    def _record(self, name: str, layer: str, call_id: int):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        entry = {"name": name, "layer": layer, "call_id": call_id,
                 "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(entry)
        self._open.append(index)
        try:
            yield
        finally:
            entry["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration less that of its children.

        Children of one span never overlap, because the benchmark makes one
        call at a time.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            own = s["end"] - s["start"] - covered
            totals[s["layer"]] = totals.get(s["layer"], 0.0) + own
        return totals
