"""Base+delta union evaluation: exact reads while rows are in flight.

The approximate phase of a query runs over the packed base segments exactly
as it does with no delta — same plan, same spans.  Rows sitting in a table's
:class:`~repro.ingest.delta.DeltaStore` then join the answer through small
*contribution* runs: brute-force exact evaluation (the classic bulk engine)
over scratch catalogs holding just the delta slice, billed on their own
``ingest.delta.*`` spans in the :data:`DELTA_PHASE` phase.  A query over
settled data (empty delta) never enters this module, so its Result and
modeled Timeline stay byte-identical to a bulk-loaded run.

Two contributions cover every union shape:

* **A — delta fact rows** against the *combined* (base+delta) far sides:
  FK dimensions and/or the theta right side.
* **B — base fact rows** against the *delta* right side (theta joins only;
  FK joins need no B because base FK values resolve within the base
  dimension — a dimension with pending delta is rejected, see
  :func:`delta_tables`).

Base(b×b) + A(d×all) + B(b×d) partitions the union's row/pair set, so the
base and the contributions are partials over disjoint rows and the shared
combiner of :mod:`repro.engine.combine` — the one the shard merge uses —
reproduces a bulk run over base+delta bit-for-bit; pair sets first shift
into union positions by each contribution's offsets.  How the base runs is
a parameter of :func:`apply_delta`: the single-device session
(:func:`run_with_delta`) and the sharded coordinator plug in their own,
and each keeps one :class:`ContributionCache` for solo and served runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..core.intervals import Interval
from ..device.model import OpClass
from ..device.timeline import Timeline
from ..engine.combine import (
    combine_aggregates, combine_pairs, combine_rows, combine_scalars,
    lower_aggregates, lowered_query,
)
from ..engine.result import ApproximateAnswer, Result
from ..errors import EmptyInputError, ExecutionError
from ..obs import trace as obs_trace
from ..plan.expr import ColRef
from ..plan.logical import Aggregate, Query
from ..storage.catalog import Catalog
from ..storage.relation import Relation

_OID_BYTES = 8

#: Span phase every delta charge lands on; settled-data Timelines never
#: contain it, which is what keeps them byte-identical to a bulk load.
DELTA_PHASE = "ingest.delta"

#: Hidden aggregate counting the rows/pairs a contribution matched
#: (candidate-set bookkeeping); stripped before results merge.
_ROWS_ALIAS = "__delta_rows__"

#: Name the theta right side takes in contribution scratch catalogs —
#: distinct from the fact name so self theta joins stay expressible when
#: fact and right union different row sets.
_RIGHT_ALIAS = "__ingest_right__"

# ----------------------------------------------------------------------
# Dispatch predicates
# ----------------------------------------------------------------------
def delta_tables(query: Query, catalog: Catalog) -> dict:
    """The query's tables with pending delta rows, by table name.

    Covers the fact table and theta right sides.  A *dimension* table with
    pending delta is rejected: base fact FK values may reference the new
    rows, which the base run (resolving against the base dimension alone)
    cannot see — compact the dimension first.  Dimensions are small and
    compaction is cheap, so this is the honest trade.
    """
    out: dict = {}
    if catalog.delta_rows(query.table):
        out[query.table] = catalog.delta_store(query.table)
    for tj in query.theta_joins:
        if catalog.delta_rows(tj.right_table):
            out[tj.right_table] = catalog.delta_store(tj.right_table)
    for join in query.joins:
        if catalog.delta_rows(join.dim_table):
            raise ExecutionError(
                f"table {join.dim_table!r} has pending delta rows and is "
                "the target of an FK join; compact it before querying "
                "through the join"
            )
    return out


# ----------------------------------------------------------------------
# Contribution memoization (one per session)
# ----------------------------------------------------------------------
class ContributionCache:
    """Memoizes contribution parts per (query, epoch, delta versions).

    Contribution runs are pure functions of the logical query, the base
    segments (which only change when compaction bumps the catalog epoch)
    and each delta store's append version — and their billed spans are
    *modeled*, hence deterministic.  A hit replays the recorded
    ``ingest.delta.*`` spans onto the caller's timeline, so cached and
    uncached runs stay byte-identical; only wall-clock work is saved.
    Each session keeps one of these for its solo and served runs: a
    dashboard-style workload re-running a fixed query panel between writes
    pays the classic evaluation once per (query, delta state) instead of
    once per read.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: dict = {}

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def parts(
        self, catalog: Catalog, cpu, query: Query, deltas: dict,
        timeline: Timeline,
    ) -> list["_Part"]:
        try:
            key = (
                query, catalog.epoch,
                tuple(sorted(
                    (name, store.version) for name, store in deltas.items()
                )),
            )
            entry = self._entries.get(key)
        except TypeError:  # unhashable query shape: evaluate uncached
            self.misses += 1
            return _contribution_parts(catalog, cpu, query, deltas, timeline)
        if entry is None:
            self.misses += 1
            scratch = Timeline()
            parts = _contribution_parts(catalog, cpu, query, deltas, scratch)
            entry = (parts, tuple(scratch.spans))
            if len(self._entries) >= self.maxsize:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = entry
        else:
            self.hits += 1
            qt = obs_trace.ACTIVE
            if qt is not None:
                qt.instant(
                    "ingest.delta.cache.hit", track="ingest",
                    spans=len(entry[1]),
                )
        parts, spans = entry
        for s in spans:
            timeline.record(
                s.device, s.kind, s.op, s.nbytes, s.seconds, s.phase
            )
        return parts


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_with_delta(
    session,
    query: Query,
    *,
    mode: str = "ar",
    pushdown: bool = True,
    predicate_order: str = "query",
    optimizer: str = "heuristic",
    timeline: Timeline | None = None,
    plan=None,
    scan_hits=None,
    theta_runs=None,
) -> Result:
    """Run ``query`` over base+delta on a single-device session.

    For a query :func:`delta_tables` finds pending rows for.  The base
    runs exactly as a settled run would, through the session's plan cache;
    ``plan`` is ``query``'s own plan when the caller already holds it, and
    ``scan_hits`` / ``theta_runs`` are a fused batch's shared inputs for
    the base plan's opening operator.  Contributions go through the
    session's contribution cache.
    """
    timeline = timeline if timeline is not None else Timeline()

    def run_base(base_query: Query) -> Result:
        if mode == "classic":
            return session._classic.run(base_query, timeline)
        # An avg-lowered base re-plans; lowering rewrites aggregates only,
        # so its opening operator (from WHERE / the theta spec) is the one
        # the shared inputs were carved for.
        base_plan = (
            plan if plan is not None and base_query is query
            else session.plan_for(
                base_query, pushdown=pushdown,
                predicate_order=predicate_order, optimizer=optimizer,
            )
        )
        return session._ar.run(
            base_plan, timeline, approximate_only=(mode == "approximate"),
            scan_hits=scan_hits, theta_runs=theta_runs,
        )

    return apply_delta(
        query, delta_tables(query, session.catalog), run_base,
        catalog=session.catalog, cpu=session.machine.cpu, mode=mode,
        timeline=timeline, contribution_cache=session._delta_cache,
    )


def apply_delta(
    query: Query,
    deltas: dict,
    run_base: Callable[[Query], Result],
    *,
    catalog: Catalog,
    cpu,
    mode: str,
    timeline: Timeline,
    contribution_cache: ContributionCache,
) -> Result:
    """Fold pending delta rows into the answer, whatever runs the base.

    ``run_base`` answers the base query — ``avg`` lowered into sum/count
    partials in the exact modes — billing onto ``timeline``; the
    single-device session and the sharded coordinator each pass their own.
    A base over no qualifying rows (:class:`~repro.errors.EmptyInputError`)
    is no error while delta rows may fill it.  Contributions bill onto
    ``timeline`` on the delta ledger and ``cpu`` combines.
    """
    base_query = query if mode == "approximate" else lowered_query(query)
    try:
        base = _Part(run_base(base_query), None, 0, 0)
    except EmptyInputError as exc:
        base = _Part(None, str(exc), 0, 0)
    contribs = contribution_cache.parts(catalog, cpu, query, deltas, timeline)
    return _merge(query, mode, base, contribs, timeline, cpu)


# ----------------------------------------------------------------------
# Contribution runs: classic exact evaluation over scratch catalogs
# ----------------------------------------------------------------------
@dataclass
class _Part:
    """One partial — the base run or a contribution — plus its position
    offsets into the union (None result: its engine found no rows)."""

    result: Result | None
    error: str | None
    left_off: int
    right_off: int


def _contribution_parts(
    catalog: Catalog,
    cpu,
    query: Query,
    deltas: dict,
    timeline: Timeline,
) -> list[_Part]:
    tj = query.theta_joins[0] if query.theta_joins else None
    cquery = _contribution_query(query)
    parts: list[_Part] = []

    fact_delta = deltas.get(query.table)
    base_fact = catalog.table(query.table)
    if fact_delta is not None:
        # A: delta fact rows against the combined far sides.
        scratch = Catalog()
        scratch.register(fact_delta.as_relation(query.table))
        for join in query.joins:
            scratch.register(catalog.table(join.dim_table))
        if tj is not None:
            base_right = catalog.table(tj.right_table)
            right_delta = deltas.get(tj.right_table)
            right = (
                right_delta.combined_with(base_right, _RIGHT_ALIAS)
                if right_delta is not None
                else _renamed(base_right, _RIGHT_ALIAS)
            )
            scratch.register(right)
        parts.append(_run_part(
            scratch, cquery, cpu, timeline,
            left_off=len(base_fact), right_off=0,
        ))

    if tj is not None and deltas.get(tj.right_table) is not None:
        # B: base fact rows against the delta right rows alone.
        scratch = Catalog()
        scratch.register(base_fact)
        scratch.register(deltas[tj.right_table].as_relation(_RIGHT_ALIAS))
        parts.append(_run_part(
            scratch, cquery, cpu, timeline,
            left_off=0, right_off=len(catalog.table(tj.right_table)),
        ))
    return parts


def _run_part(
    scratch: Catalog,
    cquery: Query,
    cpu,
    timeline: Timeline,
    *,
    left_off: int,
    right_off: int,
) -> _Part:
    qt = obs_trace.ACTIVE
    if qt is None:
        return _evaluate_part(
            scratch, cquery, cpu, timeline,
            left_off=left_off, right_off=right_off,
        )[0]
    with qt.span(
        "ingest.delta.part", track="ingest",
        left_off=left_off, right_off=right_off,
    ) as rec:
        part, modeled = _evaluate_part(
            scratch, cquery, cpu, timeline,
            left_off=left_off, right_off=right_off,
        )
        rec.modeled = modeled
        rec.args["rows"] = (
            part.result.row_count if part.result is not None else 0
        )
        return part


def _evaluate_part(
    scratch: Catalog,
    cquery: Query,
    cpu,
    timeline: Timeline,
    *,
    left_off: int,
    right_off: int,
) -> tuple[_Part, float]:
    from ..engine.bulk import ClassicExecutor

    scratch_tl = Timeline()
    try:
        result = ClassicExecutor(scratch, cpu).run(cquery, scratch_tl)
        part = _Part(result, None, left_off, right_off)
    except EmptyInputError as exc:
        part = _Part(None, str(exc), left_off, right_off)
    _rebill(timeline, scratch_tl)
    return part, scratch_tl.total_seconds()


def _rebill(timeline: Timeline, scratch: Timeline) -> None:
    """Re-record scratch spans under the delta ledger."""
    for span in scratch.spans:
        timeline.record(
            span.device, span.kind, f"ingest.delta.{span.op}",
            span.nbytes, span.seconds, DELTA_PHASE,
        )


def _contribution_query(query: Query) -> Query:
    """The query a contribution runs: lowered avg + hidden row counter,
    theta right side re-pointed at the scratch alias."""
    aggregates = query.aggregates
    if aggregates:
        aggregates = lower_aggregates(aggregates) + (
            Aggregate("count", None, _ROWS_ALIAS),
        )
    if not query.theta_joins:
        return replace(query, aggregates=aggregates)
    tj = query.theta_joins[0]
    right_qualified = f"{tj.right_table}.{tj.right_column}"
    alias_qualified = f"{_RIGHT_ALIAS}.{tj.right_column}"
    aggregates = tuple(
        replace(agg, expr=ColRef(alias_qualified))
        if isinstance(agg.expr, ColRef) and agg.expr.name == right_qualified
        else agg
        for agg in aggregates
    )
    return replace(
        query,
        aggregates=aggregates,
        theta_joins=(replace(tj, right_table=_RIGHT_ALIAS),),
    )


def _renamed(rel: Relation, name: str) -> Relation:
    """The same rows under another name (arrays are shared, not copied)."""
    return Relation.create(
        name, rel.schema, {c: rel.values(c) for c in rel.schema.names}
    )


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _merge(
    query: Query,
    mode: str,
    base: _Part,
    contribs: list[_Part],
    timeline: Timeline,
    cpu,
) -> Result:
    """Combine the base with the contributions (billed on the delta ledger)."""
    matched = _matched_rows(query, contribs)
    _bill_merge(cpu, timeline, query, contribs)
    answer = _merged_answer(
        query, mode,
        base.result.approximate if base.result is not None else None,
        contribs, matched,
    )
    present = [p for p in [base, *contribs] if p.result is not None]
    parts = [p.result for p in present]
    if mode == "approximate":
        columns, row_count = {}, 0
    elif query.theta_joins and not query.is_aggregation():
        columns = combine_pairs(
            (np.asarray(p.result.columns["left_pos"], dtype=np.int64)
             + p.left_off,
             np.asarray(p.result.columns["right_pos"], dtype=np.int64)
             + p.right_off)
            for p in present
        )
        row_count = len(columns["left_pos"])
    elif not query.is_aggregation():
        # Base rows sit before delta rows in the union, so concatenating
        # in part order reproduces the bulk run's position order.
        columns, row_count = combine_rows(query.select, parts)
    else:
        columns, row_count = combine_aggregates(
            query, parts, [p.error for p in [base, *contribs] if p.error]
        )
    return Result(
        columns=columns, row_count=row_count, timeline=timeline,
        approximate=answer,
        decimal_scales=(
            dict(base.result.decimal_scales) if base.result is not None
            else {}
        ),
    )


# ----------------------------------------------------------------------
# Approximate-answer adjustment (sound bounds with delta in flight)
# ----------------------------------------------------------------------
def _matched_rows(query: Query, contribs: list[_Part]) -> int:
    total = 0
    for p in contribs:
        if p.result is None:
            continue
        if query.aggregates:
            col = p.result.columns[_ROWS_ALIAS]
            total += int(np.asarray(col, dtype=np.int64).sum())
        else:
            total += p.result.row_count
    return total


def _merged_answer(
    query: Query,
    mode: str,
    base_answer: ApproximateAnswer | None,
    contribs: list[_Part],
    matched: int,
) -> ApproximateAnswer | None:
    if mode == "classic" or base_answer is None:
        return base_answer
    if matched == 0:
        # No delta row qualified: every base bound is already the union's.
        return base_answer
    aggregates: dict = {}
    if query.group_by:
        # Delta rows may add or move groups; per-group intervals have no
        # sound composition (the shard-merge precedent) — report None.
        for agg in query.aggregates:
            aggregates[agg.alias] = None
        return ApproximateAnswer(
            aggregates=aggregates,
            candidate_rows=base_answer.candidate_rows + matched,
            n_groups=None,
        )
    scalars = combine_scalars(
        query, [p.result for p in contribs if p.result is not None]
    )
    for agg in query.aggregates:
        raw = base_answer.aggregates.get(agg.alias)
        if not isinstance(raw, Interval):
            aggregates[agg.alias] = None if raw is not None else raw
            continue
        aggregates[agg.alias] = _shifted(agg, raw, scalars)
    return ApproximateAnswer(
        aggregates=aggregates,
        candidate_rows=base_answer.candidate_rows + matched,
        n_groups=base_answer.n_groups,
    )


def _shifted(agg, raw: Interval, scalars: dict) -> Interval | None:
    """A sound bound over base+delta from the base bound + exact delta.

    count/sum translate by the exact delta value; min/max clamp both ends
    (the true extreme is ``min(base extreme, delta extreme)`` and the base
    extreme lies in ``raw``); avg takes the hull with the exact delta mean
    — the union's mean is a convex combination of the two sides' means.
    """
    if agg.alias not in scalars:
        return raw  # no delta rows reached this aggregate
    d = scalars[agg.alias]
    if agg.func in ("count", "sum"):
        return Interval(raw.lo + d, raw.hi + d)
    if agg.func == "min":
        return Interval(min(raw.lo, d), min(raw.hi, d))
    if agg.func == "max":
        return Interval(max(raw.lo, d), max(raw.hi, d))
    if agg.func == "avg":
        total, count = d
        mean = total / count
        return Interval(min(raw.lo, mean), max(raw.hi, mean))
    return None


# ----------------------------------------------------------------------
def _bill_merge(cpu, timeline: Timeline, query: Query, contribs) -> None:
    """One combine pass over the contribution outputs (delta ledger)."""
    items = sum(
        p.result.row_count for p in contribs if p.result is not None
    )
    width = max(
        1,
        len(query.group_by) + len(query.aggregates) + len(query.select)
        + 2 * len(query.theta_joins),
    )
    def charge() -> None:
        cpu.charge(
            timeline, "ingest.delta.merge",
            max(1, items) * width * _OID_BYTES,
            tuples=max(1, items), op_class=OpClass.AGG, phase=DELTA_PHASE,
        )

    qt = obs_trace.ACTIVE
    if qt is None:
        charge()
        return
    with qt.span("ingest.delta.merge", track="ingest", rows=items) as rec:
        before = timeline.total_seconds()
        charge()
        rec.modeled = timeline.total_seconds() - before
