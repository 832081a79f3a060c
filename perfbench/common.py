"""Shared helpers: statistics, timing of set-up, the result line."""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


#: Percentiles a tail is picked from: the highest with ≥ 10 samples beyond.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def highest_tail(values) -> tuple[float, float] | None:
    """``(pct, value)`` of the highest ladder percentile with ≥ 10 samples
    beyond it; None when there are fewer than 20 samples."""
    for pct in TAIL_LADDER:
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return pct, percentile(values, pct)
    return None


def stratified(rng, counts: dict[str, int]):
    """Endless label stream in shuffled cycles holding each label
    ``counts[label]`` times, so every run sends the same class mix."""
    cycle = [label for label, k in counts.items() for _ in range(k)]
    while True:
        for i in rng.permutation(len(cycle)):
            yield cycle[i]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build, repeats: int):
    """Run ``build()`` ``repeats`` times from scratch; returns
    ``(median seconds, last build's value)``.  Earlier builds are dropped
    and collected before the next starts, so the peak memory is one
    build's."""
    times = []
    value = None
    for _ in range(repeats):
        value = None
        gc.collect()
        t0 = time.perf_counter()
        value = build()
        times.append(time.perf_counter() - t0)
    return median(times), value


class GcPauses:
    """Wall time of the cyclic collector's collections while entered.

    The measured phases leave the collector to run when the program's
    allocations trigger it, so its pauses are inside every timed
    operation; this clock says how much of the time they were."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start: float | None = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1
            self._start = None

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def report(self, wall: float) -> None:
        print(f"gc: {self.collections} collections, {self.seconds * 1e3:.1f} ms "
              f"({self.seconds / wall:.1%} of {wall:.1f} s measured)")


class Outcome:
    """Operation counts and the checks that failed, for the result line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def error(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def mismatch(self, what: str) -> None:
        """A wrong answer: counted as a failed operation."""
        self.failed += 1
        self.wrong.append(what)

    @property
    def correct(self) -> bool:
        return not self.wrong

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def emit(outcome: Outcome, metrics: dict[str, float], kind: str) -> None:
    """Print the human-readable summary, then the one-line JSON result.

    ``kind`` is ``end_to_end`` or ``per_layer``; units come from
    BENCHMARK.json so the file stays the single definition of a metric.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench[kind]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for problem in outcome.wrong[:20]:
        print(f"WRONG ANSWER: {problem}")
    for problem in outcome.errors[:20]:
        print(f"ERROR: {problem}")
    print(
        f"operations attempted {outcome.attempted}, failed {outcome.failed}, "
        f"failed_frac {outcome.failed_frac:.6f}"
    )
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
