"""Grouped and scalar aggregation kernels (paper §IV-F).

Pure-NumPy aggregation helpers shared by the approximate (device) and
refined (host) sides; cost accounting happens at the call sites, which know
which device ran the kernel.

The A&R treatment per aggregate function:

* ``count`` — trivial: candidates give an upper bound, certain rows a lower
  bound; the refined count is exact by construction.
* ``min`` / ``max`` — candidate sets that assuredly contain the extremum
  (see :func:`repro.core.approximate.minmax_approx`), refined by a join
  with the residuals and a plain reduction.
* ``sum`` / ``avg`` — victims of destructive distributivity (§IV-G): on
  distributed data the device-side bounds cannot be sharpened into an exact
  result, so refinement recomputes from exact values on the host.  When all
  inputs are device-resident the approximate sum *is* exact.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyInputError, ExecutionError
from .intervals import Interval, IntervalColumn


def grouped_sum(values: np.ndarray, gids: np.ndarray, n_groups: int) -> np.ndarray:
    """Exact per-group int64 sums."""
    _check_aligned(values, gids, n_groups)
    out = np.zeros(n_groups, dtype=np.int64)
    np.add.at(out, gids, np.asarray(values, dtype=np.int64))
    return out


def grouped_count(gids: np.ndarray, n_groups: int) -> np.ndarray:
    """Exact per-group row counts."""
    gids = np.asarray(gids, dtype=np.int64)
    return np.bincount(gids, minlength=n_groups).astype(np.int64)


def grouped_min(values: np.ndarray, gids: np.ndarray, n_groups: int) -> np.ndarray:
    _check_aligned(values, gids, n_groups)
    out = np.full(n_groups, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(out, gids, np.asarray(values, dtype=np.int64))
    return out


def grouped_max(values: np.ndarray, gids: np.ndarray, n_groups: int) -> np.ndarray:
    _check_aligned(values, gids, n_groups)
    out = np.full(n_groups, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(out, gids, np.asarray(values, dtype=np.int64))
    return out


def grouped_avg(values: np.ndarray, gids: np.ndarray, n_groups: int) -> np.ndarray:
    """Exact per-group means as float64."""
    sums = grouped_sum(values, gids, n_groups).astype(np.float64)
    counts = grouped_count(gids, n_groups)
    if bool((counts == 0).any()):
        raise EmptyInputError("avg over an empty group")
    return sums / counts


def grouped_sum_interval(
    bounds: IntervalColumn, gids: np.ndarray, n_groups: int
) -> list[Interval]:
    """Per-group strict sum bounds from per-row intervals (approximate sum)."""
    lo = grouped_sum(bounds.lo, gids, n_groups)
    hi = grouped_sum(bounds.hi, gids, n_groups)
    return [Interval(float(a), float(b)) for a, b in zip(lo, hi)]


def grouped_count_interval(
    certain_mask: np.ndarray, gids: np.ndarray, n_groups: int
) -> list[Interval]:
    """Per-group count bounds: certain rows ≤ count ≤ candidate rows."""
    total = grouped_count(gids, n_groups)
    certain = np.zeros(n_groups, dtype=np.int64)
    np.add.at(certain, np.asarray(gids, dtype=np.int64)[certain_mask], 1)
    return [Interval(float(a), float(b)) for a, b in zip(certain, total)]


def _check_aligned(values: np.ndarray, gids: np.ndarray, n_groups: int) -> None:
    values = np.asarray(values)
    gids = np.asarray(gids)
    if values.shape != gids.shape:
        raise ExecutionError("values and group ids misaligned")
    if gids.size and (int(gids.min()) < 0 or int(gids.max()) >= n_groups):
        raise ExecutionError("group id out of range")
