"""Small measurement helpers shared by the benchmark and its repeat tool."""
from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import resource
import statistics
import time

# Fields that carry wall-clock time; everything else in a row is deterministic.
WALL_FIELDS = ("wall_ms", "wall_time")


# A ``reference_ms()`` on the reference machine (2-vCPU VM, CPython 3.11.7)
# at a quiet time. It sets the speed that scaled times are reported at.
REFERENCE_KERNEL_MS = 0.80


def kernel() -> int:
    """Fixed pure-Python work that uses nothing from the program: string
    formatting, dict updates and a sort, the operations attack time goes to."""
    counts: dict[str, int] = {}
    for i in range(1500):
        key = "fam%d.%d" % (i % 37, i)
        counts[key] = counts.get(key, 0) + len(key)
    return len(sorted(counts, key=counts.get))


def reference_ms() -> float:
    """Host speed now: the best of three ``kernel()`` times, in ms. The
    collector is off meanwhile, so the program's heap cannot lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best * 1e3


def at_reference_speed(value: float, samples) -> float:
    """A time measured while ``reference_ms()`` read ``samples``, scaled to
    what it would have been at the reference machine's typical speed."""
    return value * REFERENCE_KERNEL_MS / statistics.fmean(samples)


class SpeedLog:
    """``reference_ms()`` samples with the time each was taken, from any
    thread. Callers take them between pieces of program work, never during.

    A time measured over an interval is scaled by the samples taken within
    ``window_s`` of it: the host's speed swings last seconds, and one sample
    alone is noisy.
    """

    window_s = 0.5

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        # (end, duration) of each sample.
        self.sampling: list[tuple[float, float]] = []

    def sample(self) -> float:
        """Takes a sample; returns when it was taken."""
        t0 = time.perf_counter()
        ms = reference_ms()
        t1 = time.perf_counter()
        self.samples.append((t1, ms))
        self.sampling.append((t1, t1 - t0))
        return t1

    def sampling_s(self, start: float, end: float) -> float:
        """Time spent taking the samples that ended from ``start`` to ``end``."""
        return sum(d for t, d in self.sampling if start <= t <= end)

    def scale(self, value: float, start: float, end: float) -> float:
        """``value``, measured from ``start`` to ``end``, at reference speed.
        Falls back to the nearest samples on each side, then to all."""
        self.samples.sort()
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start - self.window_s)
        hi = bisect.bisect_right(times, end + self.window_s)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(times), hi + 1)
        near = [ms for _, ms in self.samples[lo:hi]] or [ms for _, ms in self.samples]
        return at_reference_speed(value, near)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile for ``q`` in (0, 1]: the smallest sample with at
    least a ``q`` share of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile out of range: {q}")
    data = sorted(values)
    return data[max(0, math.ceil(q * len(data)) - 1)]


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def row_digest(rows, wall_fields=WALL_FIELDS) -> str:
    """SHA-256 over the rows in order, wall-clock fields left out."""
    h = hashlib.sha256()
    for row in rows:
        kept = {k: v for k, v in row.items() if k not in wall_fields}
        h.update(json.dumps(kept, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
