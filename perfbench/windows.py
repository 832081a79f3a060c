"""Window queries over an ``events`` fact table, and their numpy oracle.

Shared by serve-mixed and sharded-chaos: both load ``events(value, grp,
amount)`` plus a small ``marks(t)`` dimension, ask windowed aggregates,
grouped aggregates and a band join, and append rows while they read.
The oracle recomputes every answer over the base rows plus the appends
that had landed when the read executed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GROUPS = 16
AMOUNT_MAX = 10_000
BAND_DELTA = 50


@dataclass(frozen=True)
class Read:
    kind: str
    lo: int
    hi: int

    def builder(self, session):
        """The builder query this read sends."""
        q = session.table("events").where("value", between=(self.lo, self.hi))
        if self.kind == "count":
            return q.count("n")
        if self.kind == "sum":
            return q.sum("amount", "s")
        if self.kind == "min":
            return q.min("amount", "m")
        if self.kind == "avg":
            return q.avg("amount", "a")
        if self.kind == "grouped":
            return q.group_by("grp").count("n").sum("amount", "s")
        return q.band_join("marks", on=("value", "t"), delta=BAND_DELTA).count("n")


def random_rows(rng, n_domain: int, n: int) -> dict:
    """``n`` fresh ``events`` rows with values drawn from ``[0, n_domain)``."""
    return {
        "value": rng.integers(0, n_domain, n),
        "grp": rng.integers(0, GROUPS, n),
        "amount": rng.integers(0, AMOUNT_MAX, n),
    }


class Oracle:
    """Exact answers over ``base`` plus the first ``version`` appends."""

    def __init__(self, base: dict, marks: np.ndarray, writes: list[dict]) -> None:
        self.base = base
        self.marks = np.sort(marks)
        self.writes = writes
        self._version = -1
        self._cols: dict = {}
        self._memo: dict = {}

    def _at(self, version: int) -> dict:
        if version != self._version:
            self._cols = {
                k: np.concatenate([self.base[k]] + [w[k] for w in self.writes[:version]])
                for k in self.base
            }
            self._version = version
            self._memo = {}
        return self._cols

    def answer(self, read: Read, version: int) -> dict:
        cols = self._at(version)
        if read in self._memo:
            return self._memo[read]
        mask = (cols["value"] >= read.lo) & (cols["value"] <= read.hi)
        amount = cols["amount"][mask]
        if read.kind == "count":
            out = {"n": [int(mask.sum())]}
        elif read.kind == "sum":
            out = {"s": [int(amount.sum())]}
        elif read.kind == "min":
            out = {"m": [int(amount.min())]}
        elif read.kind == "avg":
            out = {"a": [float(amount.sum()) / len(amount)]}
        elif read.kind == "grouped":
            grp = cols["grp"][mask]
            keys = np.unique(grp)
            out = {
                "grp": keys.tolist(),
                "n": [int((grp == g).sum()) for g in keys],
                "s": [int(amount[grp == g].sum()) for g in keys],
            }
        else:
            v = cols["value"][mask]
            hi = np.searchsorted(self.marks, v + BAND_DELTA, side="right")
            lo = np.searchsorted(self.marks, v - BAND_DELTA, side="left")
            out = {"n": [int((hi - lo).sum())]}
        self._memo[read] = out
        return out


def result_columns(read: Read, result) -> dict:
    r = result.sorted_by("grp") if read.kind == "grouped" else result
    return {k: np.asarray(v).tolist() for k, v in r.columns.items()}


def check_answers(answers, oracle: Oracle, outcome) -> None:
    """``answers`` holds (read, version, result); mismatches and degraded
    answers count as failed operations."""
    for read, version, result in sorted(answers, key=lambda a: a[1]):
        if result.degraded:
            outcome.mismatch(f"{read}: degraded answer")
            continue
        want = oracle.answer(read, version)
        got = result_columns(read, result)
        if got != want:
            outcome.mismatch(f"{read} after {version} appends: got {got}, "
                             f"expected {want}")
