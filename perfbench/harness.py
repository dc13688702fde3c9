"""Timing loop, span tracer and summary statistics for the benchmark.

One caller, closed loop: each operation starts when the previous one has
returned.  Every call is timed on its own with ``perf_counter_ns``; inputs
are made and outputs checked between timed chunks, never inside them.
"""

from __future__ import annotations

import csv
import gc
import math
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fuzzkit import FuzzkitError

clock = time.perf_counter_ns


class Tracer:
    """Spans kept in memory, one row each: name, start and end (ns), index
    of the parent span (-1 for a root) and operation id.  Set-ups use
    negative operation ids, timed operations count up from 0."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")

    def open(self, name: str, parent: int, op: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(op)
        self.end.append(0)
        self.start.append(clock())
        return len(self.start) - 1

    def close(self, span: int) -> None:
        self.end[span] = clock()

    def call(self, name: str, parent: int, op: int, fn, *args):
        span = self.open(name, parent, op)
        out = fn(*args)
        self.end[span] = clock()
        return out

    def time_per_op(self, name: str) -> dict[int, int]:
        """Total ns spent in spans called ``name``, by operation id."""
        nid = self._name_ids.get(name)
        totals: dict[int, int] = {}
        if nid is None:
            return totals
        for k, n in enumerate(self.name):
            if n == nid:
                op = self.op[k]
                totals[op] = totals.get(op, 0) + self.end[k] - self.start[k]
        return totals

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_ns", "end_ns", "parent", "op"))
            for k in range(len(self.start)):
                out.writerow((k, self.names[self.name[k]], self.start[k],
                              self.end[k], self.parent[k], self.op[k]))


def untraced_call(name, fn, *args):
    return fn(*args)


def traced_call(tracer: Tracer, parent: int, op: int):
    def call(name, fn, *args):
        return tracer.call(name, parent, op, fn, *args)
    return call


def gc_runs() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Latencies:
    """Per-call times in log-spaced buckets, 256 to each doubling (0.3%
    apart), so that memory stays fixed however many calls a run makes."""

    steps = 256

    def __init__(self):
        self.counts = np.zeros(40 * self.steps, dtype=np.int64)
        self.n = 0
        self.total_ns = 0

    def add(self, ns: array) -> None:
        a = np.frombuffer(ns, dtype=np.int64)
        k = (np.log2(np.maximum(a, 1)) * self.steps).astype(np.int64)
        self.counts += np.bincount(k, minlength=len(self.counts))
        self.n += len(a)
        self.total_ns += int(a.sum())

    def percentile_us(self, q: float) -> float:
        """Centre of the bucket that holds the q-th percentile call."""
        rank = max(1, math.ceil(q / 100.0 * self.n))
        k = int(np.searchsorted(np.cumsum(self.counts), rank))
        return 2.0 ** ((k + 0.5) / self.steps) / 1e3

    def mean_us(self) -> float:
        return self.total_ns / self.n / 1e3


@dataclass
class Phase:
    """What one timed phase did: call times, summed loop time, counts."""

    latency: Latencies = field(default_factory=Latencies)
    wall_ns: int = 0
    failed: int = 0
    gc_runs: int = 0
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.latency.n


def run_phase(chunks, op, check, seconds: float, phase: Phase | None = None) -> Phase:
    """Time ``op`` on chunk after chunk until ``phase`` holds ``seconds``
    of loop time.

    ``chunks`` yields lists of operation inputs; ``check(args, outs)``
    returns problems for the outputs of operations that did not fail.  An
    operation fails when it raises a fuzzkit error.
    """
    if phase is None:
        phase = Phase()
    budget = int(seconds * 1e9)
    while phase.wall_ns < budget or not phase.attempted:
        args = next(chunks)
        samples = array("q")
        outs = []
        failed = []
        g0 = gc_runs()
        t_chunk = clock()
        for a in args:
            t0 = clock()
            try:
                out = op(a)
            except FuzzkitError as exc:
                out = exc
                failed.append(len(outs))
            samples.append(clock() - t0)
            outs.append(out)
        phase.wall_ns += clock() - t_chunk
        phase.gc_runs += gc_runs() - g0
        phase.latency.add(samples)
        phase.failed += len(failed)
        for k in reversed(failed):
            del args[k], outs[k]
        if outs:
            phase.problems += check(args, outs)
    return phase


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0
