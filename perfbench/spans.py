"""In-memory span recorder for the benchmark.

A span covers one call from the benchmark into a dickesynth layer and is
named ``<module>.<function>``. Each record holds start and end (seconds
from the pass start), the parent span, the case id and an optional label.
Top-level spans opened with ``pipeline=True`` are the pipeline stages summed
into ``pipeline_s()``; spans opened with ``pipeline=False`` (and every span
nested in one) are analysis or checks and are left out of that sum.

After each top-level pipeline span the tracer times a fixed reference
loop that uses no dickesynth code, at least once and for about a tenth of
the span's duration, so the samples weight each stretch of the run by the
pipeline time spent in it. Each sample is the loop's slowdown: its wall
time over its time on an uncontended core. On a shared machine the CPU's
speed can drift by 20 % and more within a minute; the pipeline's time over
the median slowdown follows the program and not the drift
(``pipeline_norm_s``).

Apart from that loop, an untraced span costs two clock reads and one dict.
Traced, a span opened with ``memory=True`` also runs tracemalloc for its
duration and records the peak of the allocations made inside it
(``peak_mb``). Memory spans never nest, and tracemalloc is off outside
them: it slows allocation-heavy stages several times over, so it is kept
to the stages whose memory is reported.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

MB = float(1 << 20)
REF_SHARE = 0.1   # reference-loop time per second of pipeline time


def python_reference() -> float:
    """Relative time of a fixed loop of Python object churn, like the text
    I/O and audit stages: its wall time over 5 ms, about its time on an
    uncontended core of the 2.1 GHz Xeon the benchmark was written on."""
    t0 = time.perf_counter()
    rows = [(i, i * 0.5, str(i)) for i in range(8000)]
    table = {name: (i, x) for i, x, name in rows}
    rows.sort(key=lambda r: -r[0])
    vec = np.arange(1 << 16, dtype=complex)
    vec = np.flip(vec * 1j).copy()
    del rows, table, vec
    return (time.perf_counter() - t0) / 0.005


def dense_reference() -> float:
    """Relative time of the Python loop plus one sweep of 2x2 tensordots
    over a 16-qubit state, as the dense simulator applies gates; its wall
    time over 12 ms, chosen as for python_reference."""
    t0 = time.perf_counter()
    psi = np.zeros((2,) * 16, dtype=complex)
    psi.flat[0] = 1.0
    gate = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    for axis in range(16):
        psi = np.moveaxis(np.tensordot(gate, psi, axes=([1], [axis])), 0,
                          axis)
    numpy_s = time.perf_counter() - t0
    return (python_reference() * 0.005 + numpy_s) / 0.012


class Tracer:
    """Span records of one benchmark pass."""

    def __init__(self, traced: bool, reference=python_reference):
        self.traced = traced
        self.reference = reference   # None: no normalization samples
        self.records: list = []
        self.slowdowns: list = []
        self._stack: list = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, case: str, label: str | None = None,
             pipeline: bool = True, memory: bool = False):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.records), "name": name, "case": case,
               "label": label,
               "parent": None if parent is None else parent["id"],
               "pipeline": pipeline and (parent is None
                                         or parent["pipeline"])}
        self.records.append(rec)
        measure = self.traced and memory
        if measure:
            if tracemalloc.is_tracing():
                raise RuntimeError("memory spans must not nest")
            tracemalloc.start()
        self._stack.append(rec)
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            if measure:
                rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
            if self.reference and parent is None and rec["pipeline"]:
                budget = REF_SHARE * (rec["end"] - rec["start"])
                t0 = time.perf_counter()
                self.slowdowns.append(self.reference())
                while time.perf_counter() - t0 < budget:
                    self.slowdowns.append(self.reference())

    def pipeline_s(self) -> float:
        """Wall time of the top-level pipeline stages."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["parent"] is None and r["pipeline"])

    def pipeline_norm_s(self) -> float:
        """pipeline_s over the median slowdown of the reference loop."""
        return self.pipeline_s() / statistics.median(self.slowdowns)

    def total_s(self, name: str, label: str | None = None,
                pipeline: bool | None = None) -> float:
        """Summed duration of the spans with this name (and label, and
        pipeline flag, when given)."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name
                   and (label is None or r["label"] == label)
                   and (pipeline is None or r["pipeline"] == pipeline))

    def peak_mb(self, *names: str) -> float:
        return max((r["peak_mb"] for r in self.records
                    if r["name"] in names and "peak_mb" in r), default=0.0)

    def self_times(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds
        (a span's duration minus the time its child spans cover)."""
        child_s = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None:
                child_s[r["parent"]] += r["end"] - r["start"]
        out: dict = {}
        for r in self.records:
            dur = r["end"] - r["start"]
            row = out.setdefault(r["name"], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_s[r["id"]]
        return out
