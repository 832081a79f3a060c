"""One combiner for partial results: shard fragments and delta parts alike.

A sharded query's per-shard fragments and a delta union's base run plus
its delta contributions are the same thing: partials over disjoint row
sets, each computed by an unchanged engine.  Aggregates are homomorphisms
out of the free commutative monoid of rows, so one combine serves both.
It is pure — partials in, Result columns out; callers bill their own
merge spans — and its columns are byte-identical to one engine run over
the union of the partials' rows:

* ``count``/``sum`` add in int64 (wrapping like the one-run sum) and
  ``min``/``max`` fold; ``avg`` partials run *lowered*
  (:func:`lower_aggregates`) and the combine does the one float64 division;
* grouped partials regroup through the ids of
  :func:`~repro.core.pair_agg.group_pair_rows` — the rank of each key
  tuple among the sorted distinct tuples, the ids one run assigns;
* a partial whose engine raised :class:`~repro.errors.EmptyInputError`
  contributes nothing, and when no partial has a value the combine
  re-raises what one run over every row would have raised.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from ..core.aggregates import grouped_max, grouped_min, grouped_sum
from ..core.pair_agg import group_pair_rows
from ..errors import EmptyInputError, ExecutionError, PlanError
from ..plan.logical import Aggregate, Query
from .result import Result

#: Suffixes of the partial-only aliases an ``avg`` lowers into.
AVG_SUM_SUFFIX = "#sum"
AVG_CNT_SUFFIX = "#cnt"

_GROUPED = {
    "count": grouped_sum, "sum": grouped_sum,
    "min": grouped_min, "max": grouped_max,
}


def lower_aggregates(
    aggregates: tuple[Aggregate, ...],
) -> tuple[Aggregate, ...]:
    """Partial aggregates: ``avg(e) AS a`` splits into ``sum(e) AS "a#sum"``
    and ``count AS "a#cnt"``, which combine."""
    lowered: list[Aggregate] = []
    taken = {a.alias for a in aggregates}
    for agg in aggregates:
        if agg.func != "avg":
            lowered.append(agg)
            continue
        sum_alias = agg.alias + AVG_SUM_SUFFIX
        cnt_alias = agg.alias + AVG_CNT_SUFFIX
        if sum_alias in taken or cnt_alias in taken:
            raise PlanError(
                f"aggregate alias {agg.alias!r} collides with the avg "
                f"partial aliases ({sum_alias!r}, {cnt_alias!r})"
            )
        lowered.append(Aggregate("sum", agg.expr, sum_alias))
        lowered.append(Aggregate("count", None, cnt_alias))
    return tuple(lowered)


def lowered_query(query: Query) -> Query:
    """``query`` with every ``avg`` lowered (itself when it has none)."""
    if not any(a.func == "avg" for a in query.aggregates):
        return query
    return replace(query, aggregates=lower_aggregates(query.aggregates))


def combine_aggregates(
    query: Query, parts: Sequence[Result], errors: Sequence[str] = ()
) -> tuple[dict[str, np.ndarray], int]:
    """Combine aggregate partials into ``(columns, row_count)``.

    ``parts`` are the partials that produced a Result (lowered avg
    aliases included); ``errors`` the empty-input messages of those that
    did not — the re-raise picks the matching one.
    """
    if query.group_by:
        return _combine_grouped(query, parts)
    totals = combine_scalars(query, parts)
    columns: dict[str, np.ndarray] = {}
    for agg in query.aggregates:
        if agg.alias not in totals:
            raise _empty_error(agg.func, errors)
        value = totals[agg.alias]
        if agg.func == "avg":
            total, count = value
            columns[agg.alias] = (
                np.array([total], dtype=np.int64).astype(np.float64)
                / np.array([count], dtype=np.int64)
            )
        else:
            columns[agg.alias] = np.array([value], dtype=np.int64)
    return columns, 1


def combine_scalars(query: Query, parts: Sequence[Result]) -> dict:
    """Exact ungrouped totals per alias, as Python ints.

    count/sum map to their total, min/max to the extreme and avg to its
    ``(sum, count)`` pair.  An alias no partial holds a value for (min/max
    or avg over no rows at all) is absent.
    """
    out: dict = {}
    for agg in query.aggregates:
        if agg.func in ("count", "sum"):
            out[agg.alias] = _total(agg.alias, parts)
        elif agg.func in ("min", "max"):
            values = _scalars(agg.alias, parts)
            if values:
                out[agg.alias] = (min if agg.func == "min" else max)(values)
        elif agg.func == "avg":
            count = _total(agg.alias + AVG_CNT_SUFFIX, parts)
            if count:
                total = _total(agg.alias + AVG_SUM_SUFFIX, parts)
                out[agg.alias] = (total, count)
        else:
            raise ExecutionError(f"unknown aggregate {agg.func!r}")
    return out


def _combine_grouped(
    query: Query, parts: Sequence[Result]
) -> tuple[dict[str, np.ndarray], int]:
    keys = {name: _concat(name, parts) for name in query.group_by}
    gids, n_groups = group_pair_rows([keys[n] for n in query.group_by])
    columns: dict[str, np.ndarray] = {}
    for name in query.group_by:
        out = np.zeros(n_groups, dtype=np.int64)
        out[gids] = keys[name]
        columns[name] = out
    for agg in query.aggregates:
        if n_groups == 0:
            columns[agg.alias] = np.array([], dtype=np.int64)
        elif agg.func == "avg":
            sums = grouped_sum(
                _concat(agg.alias + AVG_SUM_SUFFIX, parts), gids, n_groups
            ).astype(np.float64)
            counts = grouped_sum(
                _concat(agg.alias + AVG_CNT_SUFFIX, parts), gids, n_groups
            )
            if bool((counts == 0).any()):
                raise EmptyInputError("avg over an empty group")
            columns[agg.alias] = sums / counts
        elif agg.func in _GROUPED:
            columns[agg.alias] = _GROUPED[agg.func](
                _concat(agg.alias, parts), gids, n_groups
            )
        else:
            raise ExecutionError(f"unknown aggregate {agg.func!r}")
    return columns, n_groups


def _scalars(alias: str, parts: Sequence[Result]) -> list[int]:
    return [int(r.columns[alias][0]) for r in parts if alias in r.columns]


def _total(alias: str, parts: Sequence[Result]) -> int:
    # int64 accumulation: wraps exactly like the one-run sum.
    return int(np.array(_scalars(alias, parts), dtype=np.int64).sum())


def _concat(alias: str, parts: Sequence[Result]) -> np.ndarray:
    arrays = [r.columns[alias] for r in parts if alias in r.columns]
    if not arrays:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(arrays).astype(np.int64, copy=False)


def _empty_error(func: str, errors: Iterable[str]) -> EmptyInputError:
    """What one run over every partial's rows would have raised."""
    if func == "avg":
        return EmptyInputError("avg over an empty group")
    for error in errors:
        if func in error:
            return EmptyInputError(error)
    return EmptyInputError(f"{func} of an empty result")


def combine_pairs(
    pairs: Iterable[tuple[np.ndarray, np.ndarray]],
) -> dict[str, np.ndarray]:
    """Concatenate ``(left_pos, right_pos)`` partials already translated to
    union positions, in canonical (left, right) order."""
    lefts, rights = [], []
    for left, right in pairs:
        lefts.append(np.asarray(left, dtype=np.int64))
        rights.append(np.asarray(right, dtype=np.int64))
    left = np.concatenate(lefts) if lefts else np.empty(0, dtype=np.int64)
    right = np.concatenate(rights) if rights else np.empty(0, dtype=np.int64)
    order = np.lexsort((right, left))
    return {"left_pos": left[order], "right_pos": right[order]}


def combine_rows(
    names: Sequence[str], parts: Sequence[Result]
) -> tuple[dict[str, np.ndarray], int]:
    """Concatenate projection partials in part order."""
    columns = {
        name: np.concatenate(
            [r.columns[name] for r in parts] or [np.empty(0, dtype=np.int64)]
        )
        for name in names
    }
    return columns, sum(r.row_count for r in parts)
