"""Timing statistics, host-speed calibration and span tracing for the benchmark.

Spans are recorded by wrappers that the benchmark installs around the
package's public callables; nothing inside ``src/`` is instrumented.  A
span is ``[name, start_ns, end_ns, parent]`` with ``parent`` the index
of the enclosing span (-1 at top level).  The process is single-threaded,
so one stack gives every span its parent.
"""

from __future__ import annotations

import gzip
import json
import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from statistics import median
from time import perf_counter, perf_counter_ns

import numpy as np

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles the tail rule may pick, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise ValueError."""
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method) of a nonempty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` distinct samples lie strictly above their p-th percentile."""
    if n < 1:
        return 0
    return (n - 1) - math.floor(Fraction(n - 1) * Fraction(str(p)) / 100)


def tail_percentile(n: int, candidates=TAIL_CANDIDATES) -> float | None:
    """Highest candidate percentile with at least ten of ``n`` samples beyond it."""
    for p in candidates:
        if samples_beyond(n, p) >= 10:
            return p
    return None


class HostSpeed:
    """Host-speed calibration interleaved with the measured work.

    The vCPUs of a shared host change speed, by up to 1.7x, from one
    second to the next, and no run length averages that away.  A fixed
    ~5 ms kernel of small numpy and pure-Python operations, and no
    riskfilter code, is timed every PERIOD_S between units of measured
    work (between controller steps, collected rows, repeats), never inside
    one.  ``scale(t0, t1)`` is REFERENCE_S over the median kernel time
    sampled in [t0, t1] and just before and after it: a time measured in
    that interval, multiplied by it, reads as the time on a host where the
    kernel takes REFERENCE_S.  A change to riskfilter cannot move the kernel.
    """

    REFERENCE_S = 0.005
    PERIOD_S = 0.1
    ITERATIONS = 150

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((5, 6))
        self._w = [rng.standard_normal(shape) for shape in ((6, 64), (64, 64), (64, 1))]
        self._last = -math.inf
        self.samples: list = []     # (start, seconds), in time order

    def _kernel(self) -> None:
        w1, w2, w3 = self._w
        for _ in range(self.ITERATIONS):
            v = (np.tanh(np.tanh(self._x @ w1) @ w2) @ w3).ravel()
            m = float(np.max(v))
            float(np.log(np.mean(np.exp(v - m))))
            acc = 0
            for i in range(200):
                acc += i

    def tick(self, force: bool = False) -> None:
        """Time the kernel once, unless it ran less than PERIOD_S ago."""
        start = perf_counter()
        if force or start - self._last >= self.PERIOD_S:
            self._kernel()
            self._last = perf_counter()
            self.samples.append((start, self._last - start))

    def scale(self, t0: float, t1: float) -> float:
        """Speed scale for work done in [t0, t1]."""
        starts = [t for t, _ in self.samples]
        lo = max(bisect_left(starts, t0) - 1, 0)
        hi = bisect_right(starts, t1) + 1
        kernel = [k for _, k in self.samples[lo:hi]]
        if not kernel:
            raise ValueError("no calibration sample")
        return self.REFERENCE_S / median(kernel)

    def seconds(self, pieces) -> float:
        """Total time of (start, end) pieces, each scaled to the reference speed."""
        return sum((end - start) * self.scale(start, end) for start, end in pieces)


class Tracer:
    """Collects spans and counters in memory; written out once, at the end."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span around every call; ``on_result(args, result)`` counts."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans) -> list:
    """Per span: its duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def aggregate(spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} over all spans of that name."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _), own in zip(spans, selfs):
        a = agg[name]
        a["calls"] += 1
        a["total_s"] += (end - start) * 1e-9
        a["self_s"] += own * 1e-9
    return dict(agg)


def count_under(spans, child: str, ancestors: frozenset) -> Counter:
    """For each ``child`` span, credit its nearest ancestor whose name is in ``ancestors``."""
    credited: Counter = Counter()
    for name, _, _, parent in spans:
        if name != child:
            continue
        while parent >= 0:
            if spans[parent][0] in ancestors:
                credited[spans[parent][0]] += 1
                break
            parent = spans[parent][3]
    return credited
