"""The partial combiner equals one engine run over every row, for any split.

Random int64 columns (extremes included, so sums wrap) are cut into 1..5
contiguous partials — empty ones included.  Each partial is reduced the
way an engine reduces its slice: ``np.unique``-ordered groups, the
:mod:`repro.core.aggregates` kernels, ``avg`` lowered to sum/count, and
:class:`~repro.errors.EmptyInputError` for min/max/avg over no rows.  The
combined columns must be byte-equal to one reduction over the whole
column, and when that one reduction raises, the combine must raise the
same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pair_agg import group_pair_rows, ungrouped_pair_gids
from repro.device.timeline import Timeline
from repro.engine.bulk import ClassicExecutor
from repro.engine.combine import combine_aggregates, lower_aggregates
from repro.engine.result import Result
from repro.errors import EmptyInputError
from repro.plan.expr import ColRef
from repro.plan.logical import Aggregate, Query

FUNCS = ("count", "sum", "min", "max", "avg")
INT64 = np.iinfo(np.int64)


def make_query(funcs, grouped):
    aggregates = tuple(
        Aggregate(f, None if f == "count" else ColRef("v"), f"a{i}")
        for i, f in enumerate(funcs)
    )
    return Query(
        table="t", group_by=("k",) if grouped else (), aggregates=aggregates
    )


def reduce_rows(aggregates, keys, values):
    """One engine reduction over ``values`` (grouped by ``keys``)."""
    if keys is None:
        gids, n_groups = ungrouped_pair_gids(len(values))
        columns = {}
    else:
        gids, n_groups = group_pair_rows([keys])
        out = np.zeros(n_groups, dtype=np.int64)
        out[gids] = keys
        columns = {"k": out}
    for agg in aggregates:
        columns[agg.alias] = ClassicExecutor._aggregate(
            agg.func, None if agg.expr is None else values, gids, n_groups
        )
    return Result(columns=columns, row_count=n_groups, timeline=Timeline())


def split_and_combine(query, keys, values, cuts):
    lowered = lower_aggregates(query.aggregates)
    parts, errors = [], []
    bounds = [0, *cuts, len(values)]
    for lo, hi in zip(bounds, bounds[1:]):
        try:
            parts.append(reduce_rows(
                lowered, None if keys is None else keys[lo:hi],
                values[lo:hi],
            ))
        except EmptyInputError as exc:
            errors.append(str(exc))
    return combine_aggregates(query, parts, errors)


values_st = st.lists(
    st.one_of(
        st.integers(-50, 50),
        st.integers(int(INT64.min), int(INT64.max)),
        st.sampled_from([int(INT64.min), int(INT64.max)]),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    raw=values_st,
    grouped=st.booleans(),
    funcs=st.lists(st.sampled_from(FUNCS), min_size=1, max_size=5),
    data=st.data(),
)
def test_combined_partials_equal_one_run(raw, grouped, funcs, data):
    values = np.asarray(raw, dtype=np.int64)
    keys = (
        np.asarray(
            data.draw(st.lists(
                st.integers(-2, 3), min_size=len(raw), max_size=len(raw)
            )),
            dtype=np.int64,
        )
        if grouped else None
    )
    k = data.draw(st.integers(1, 5))
    cuts = sorted(data.draw(st.lists(
        st.integers(0, len(raw)), min_size=k - 1, max_size=k - 1
    )))
    query = make_query(funcs, grouped)
    try:
        expected = reduce_rows(query.aggregates, keys, values)
    except EmptyInputError as exc:
        with pytest.raises(EmptyInputError) as raised:
            split_and_combine(query, keys, values, cuts)
        assert str(raised.value) == str(exc)
        return
    columns, row_count = split_and_combine(query, keys, values, cuts)
    assert row_count == expected.row_count
    assert columns.keys() == expected.columns.keys()
    for name, want in expected.columns.items():
        got = columns[name]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("func,message", [
    ("min", "min of an empty result"),
    ("max", "max of an empty result"),
    ("avg", "avg over an empty group"),
])
@pytest.mark.parametrize("k", [1, 3])
def test_all_empty_partials_raise_the_engine_message(func, message, k):
    query = make_query(["count", func], grouped=False)
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(EmptyInputError, match=f"^{message}$"):
        reduce_rows(query.aggregates, None, empty)
    with pytest.raises(EmptyInputError, match=f"^{message}$"):
        split_and_combine(query, None, empty, [0] * (k - 1))
