"""Aggregation over theta-join pair sets, shared by the A&R and classic engines.

Every aggregate this engine supports over a theta join's output is a
function of left-side values only (plus the pair count), so it reduces to a
*weighted* aggregate over the distinct left rows: a run-length candidate set
contributes one entry per run with the run length as weight, a materialized
set one entry per pair with weight 1 (see
:meth:`~repro.core.candidates.PairCandidates.left_multiplicities`).  That is
what lets ``count(*)`` — and any grouped aggregate — over a band join finish
without ever exploding a single pair.

Both executors (``engine/ar_executor.py`` refinement side,
``engine/bulk.py`` classic side) call these helpers on exact values, which
is what guarantees the two modes return identical results.  Cost accounting
stays at the call sites, which know which device ran the kernel.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyInputError, ExecutionError
from .aggregates import grouped_max, grouped_min, grouped_sum
from .candidates import PairCandidates, RunPairCandidates
from .grouping import combine_keys


def pair_rows(
    pairs: PairCandidates | RunPairCandidates,
) -> tuple[np.ndarray, np.ndarray]:
    """The weighted left-row view of a pair set: ``(rows, multiplicities)``."""
    return pairs.left_multiplicities()


def group_pair_rows(
    key_columns: list[np.ndarray],
) -> tuple[np.ndarray, int]:
    """Dense group ids over composite exact keys, aligned with the rows.

    Group numbering comes from :func:`~repro.core.grouping.combine_keys`
    (:func:`~repro.util.dense_ids`): each id is the rank of its composite
    key among the sorted distinct keys — a pure function of the key
    *values*, so the A&R refinement (producer-order rows) and the classic
    executor (table-order rows) assign identical ids to identical key
    tuples.
    """
    if not key_columns:
        raise ExecutionError("group_pair_rows needs at least one key column")
    n = len(key_columns[0])
    gids = np.zeros(n, dtype=np.int64)
    n_groups = min(1, n)
    for keys in key_columns:
        keys = np.asarray(keys, dtype=np.int64)
        shifted = keys - int(keys.min()) if len(keys) else keys
        gids, n_groups = combine_keys(gids, shifted)
    return gids, n_groups


def ungrouped_pair_gids(n_rows: int) -> tuple[np.ndarray, int]:
    """The trivial single-group assignment for ungrouped theta blocks."""
    return np.zeros(n_rows, dtype=np.int64), 1


def pair_result_columns(
    group_by: tuple[str, ...],
    group_keys: dict[str, np.ndarray],
    gids: np.ndarray,
    n_groups: int,
    aggregate_columns: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Assemble an aggregated theta block's result columns.

    One representative key per group for each GROUP BY column (sound
    because exact keys define the groups), then the aggregate outputs.
    Shared by both engines so the result layout cannot diverge.
    """
    columns: dict[str, np.ndarray] = {}
    for name in group_by:
        out = np.zeros(n_groups, dtype=np.int64)
        out[gids] = group_keys[name]
        columns[name] = out
    columns.update(aggregate_columns)
    return columns


def aggregate_pairs(
    func: str,
    values: np.ndarray | None,
    weights: np.ndarray,
    gids: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """One exact aggregate over the weighted left-row view.

    ``values`` are the aggregate operand's exact values at the rows
    (``None`` for ``count``); ``weights`` the pair multiplicities.  Matches
    the unweighted kernels of :mod:`repro.core.aggregates` on the exploded
    pair list, by construction:

    * ``count``  — Σ weights per group,
    * ``sum``    — Σ value·weight per group,
    * ``avg``    — the two sums divided (float64, like ``grouped_avg``),
    * ``min/max``— multiplicity-blind extrema (rows carry weight ≥ 1).
    """
    weights = np.asarray(weights, dtype=np.int64)
    if func == "count":
        return grouped_sum(weights, gids, n_groups)
    if values is None:
        raise ExecutionError(f"{func} requires an argument")
    if n_groups == 0:
        return np.array([], dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if func == "sum":
        return grouped_sum(values * weights, gids, n_groups)
    if func == "avg":
        sums = grouped_sum(values * weights, gids, n_groups).astype(np.float64)
        counts = grouped_sum(weights, gids, n_groups)
        if bool((counts == 0).any()):
            raise EmptyInputError("avg over an empty group")
        return sums / counts
    if len(values) == 0:
        raise EmptyInputError(f"{func} of an empty result")
    if func == "min":
        return grouped_min(values, gids, n_groups)
    if func == "max":
        return grouped_max(values, gids, n_groups)
    raise ExecutionError(f"unknown aggregate {func!r}")


def right_run_partials(
    sorted_values: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
) -> dict[str, np.ndarray]:
    """Per-non-empty-run partials of right-side values — the run payload.

    The right-side twin of :meth:`left_multiplicities`: aggregates over the
    *right* column of a theta join vary within a run, but the runs index a
    value-sorted right permutation, so every per-run reduction is O(runs):

    * ``sum``   — a prefix-sum difference over the sorted values,
    * ``count`` — the run length,
    * ``min`` / ``max`` — the run's first / last sorted value (valid only
      when ``sorted_values`` is ascending, i.e. the exact-sorted side).

    Empty runs are dropped, matching the filtering of
    :meth:`RunPairCandidates.left_multiplicities`, so the partials align
    with the group ids computed from the weighted left-row view.
    """
    counts = np.asarray(stops, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    keep = counts > 0
    s = np.asarray(starts, dtype=np.int64)[keep]
    e = np.asarray(stops, dtype=np.int64)[keep]
    sorted_values = np.asarray(sorted_values, dtype=np.int64)
    prefix = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(sorted_values, dtype=np.int64))
    )
    return {
        "count": counts[keep],
        "sum": prefix[e] - prefix[s],
        "min": sorted_values[s] if len(s) else np.empty(0, dtype=np.int64),
        "max": sorted_values[e - 1] if len(e) else np.empty(0, dtype=np.int64),
    }


def aggregate_pairs_right(
    func: str,
    partials: dict[str, np.ndarray],
    gids: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """One exact aggregate over right-side run payloads.

    Matches :func:`aggregate_pairs` over the per-pair gathered right values
    by construction: int64 partial sums/counts are associative, extrema
    compose, and ``avg`` performs the single float64 division on the summed
    int64 partials — so results are byte-identical whichever pair
    representation (runs or materialized) produced them.
    """
    if n_groups == 0:
        return np.array([], dtype=np.int64)
    if func == "count":
        return grouped_sum(partials["count"], gids, n_groups)
    if func == "sum":
        return grouped_sum(partials["sum"], gids, n_groups)
    if func == "avg":
        sums = grouped_sum(partials["sum"], gids, n_groups).astype(np.float64)
        counts = grouped_sum(partials["count"], gids, n_groups)
        if bool((counts == 0).any()):
            raise EmptyInputError("avg over an empty group")
        return sums / counts
    if len(partials["count"]) == 0:
        raise EmptyInputError(f"{func} of an empty result")
    if func == "min":
        return grouped_min(partials["min"], gids, n_groups)
    if func == "max":
        return grouped_max(partials["max"], gids, n_groups)
    raise ExecutionError(f"unknown aggregate {func!r}")
