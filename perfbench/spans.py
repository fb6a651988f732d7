"""Span recorder for the traced run.

Spans live in flat arrays (26 bytes each) so that a pass of the
oracle-dense replay, about a million spans, stays small in memory.  Each span
has a name, start, end, parent span and request id.  A layer's self time is
the duration of its spans minus the durations of their child spans; children
never overlap one another and lie inside their parent.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("graph", "shifting", "matching", "counting", "extremal", "oracle", "cli")
COUNTS = ("oracle.leaves", "graph.bytes_read", "graph.bytes_written")
# Top spans of replayed requests hold only the replay's own loop: no layer.
REQUEST_PREFIX = "request:"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("I")
        self._stack = [-1]
        self.request = 0
        self.counts = dict.fromkeys(COUNTS, 0)

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> None:
        """Start a span under the innermost open span."""
        self._stack.append(len(self.name))
        self.name.append(nid)
        self.parent.append(self._stack[-2])
        self.req.append(self.request)
        self.end.append(0.0)
        self.start.append(perf_counter())

    def close(self) -> None:
        self.end[self._stack.pop()] = perf_counter()

    def add(self, nid: int, t0: float, t1: float) -> None:
        """Record a finished leaf span under the innermost open span."""
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(self._stack[-1])
        self.req.append(self.request)

    def wrap(self, name: str, fn, counter: str | None = None):
        """``fn`` with a span around every call.  ``counter`` names the byte
        count that the length of the text argument (parsers) or of the
        result (serializers) is added to."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if counter == "graph.bytes_read":
                self.counts[counter] += len(args[0])
            elif counter == "graph.bytes_written":
                self.counts[counter] += len(result)
            return result

        return traced

    def self_times(self, factors) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), each span's self time
        scaled by ``factors[its request id]``."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        start, end, parent, req = self.start, self.end, self.parent, self.req
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        name = self.name
        for i in range(n):
            nid = name[i]
            calls[nid] += 1
            busy[nid] += (end[i] - start[i] - child[i]) * factors[req[i]]
        return {self.names[j]: (calls[j], busy[j]) for j in range(len(self.names))}

    def write(self, path: Path) -> None:
        """Header line of JSON, then the raw arrays in header order."""
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": [["name", "H"], ["start", "d"], ["end", "d"], ["parent", "i"], ["req", "I"]],
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.req):
                arr.tofile(fh)


def layer_metrics(stats: dict[str, tuple[int, float]], counts: dict[str, int], passes: int) -> dict:
    """Per-layer calls, self time and time per call, all per pass."""
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    for name, (c, b) in stats.items():
        layer = name.split(".", 1)[0]  # request spans name no layer
        if layer in calls:
            calls[layer] += c
            busy[layer] += b
    out = {}
    for layer in LAYERS:
        c = calls[layer] / passes
        b = busy[layer] / passes
        out[f"{layer}.calls"] = {"value": c, "unit": "count"}
        out[f"{layer}.busy_s"] = {"value": b, "unit": "s"}
        out[f"{layer}.us_per_call"] = {"value": b / c * 1e6 if c else 0.0, "unit": "us"}
    for key in COUNTS:
        unit = "count" if key == "oracle.leaves" else "bytes"
        out[key] = {"value": counts[key] / passes, "unit": unit}
    return out
