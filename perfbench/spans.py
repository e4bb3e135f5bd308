"""In-memory spans recorded around public calls, and their per-layer summary.

A span is (name, start, end, op, error).  The op span of each traced op is
its parent; call spans never nest inside each other, so a call's self time
is its duration and the op's self time is its duration minus its children.
Spans live in compact arrays and are summarised when the run ends.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.error = array("b")
        self.op_ns = array("q")

    def call(self, name, fn, *args):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        t0 = perf_counter_ns()
        failed = 1
        try:
            out = fn(*args)
            failed = 0
            return out
        finally:
            t1 = perf_counter_ns()
            self.name.append(nid)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(len(self.op_ns))
            self.error.append(failed)

    def op(self, ns: int) -> None:
        """Close the current op span; calls recorded since the last one are its children."""
        self.op_ns.append(ns)

    def summary(self) -> tuple[int, int, dict[str, dict]]:
        """(ops, op time in ns, per span name: durations in ns and error count)."""
        by_name: dict[str, dict] = {}
        for nid, t0, t1, err in zip(self.name, self.start, self.end, self.error):
            entry = by_name.setdefault(self.names[nid], {"durations": [], "errors": 0})
            entry["durations"].append(t1 - t0)
            entry["errors"] += err
        return len(self.op_ns), sum(self.op_ns), by_name


def layer_metrics(ops: int, op_ns: int, by_name: dict[str, dict],
                  counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics; counts and busy times are per traced op."""
    out: dict[str, float] = {}
    shares: dict[str, int] = {}
    for name, entry in by_name.items():
        durations = entry["durations"]
        busy = sum(durations)
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0) + busy
        out[f"{name}.calls"] = len(durations) / ops
        out[f"{name}.busy_ms"] = busy / ops / 1e6
        out[f"{name}.errors"] = entry["errors"] / ops
        out[f"{name}.us_p50"] = statistics.median(durations) / 1e3
        out[f"{name}.ns_per_call"] = busy / len(durations)
    shares["bench"] = op_ns - sum(shares.values())
    for layer, ns in shares.items():
        out[f"layer.{layer}.self_share"] = ns / op_ns
    for key, total in counts.items():
        out[key] = total / ops
    return out
