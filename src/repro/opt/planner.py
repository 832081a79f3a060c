"""The cost-based planner: enumerate physical alternatives, pick cheapest.

Every decision is recorded as a :class:`Decision` carrying the chosen
alternative *and* its rejected competitors with their estimated costs, so
``explain()`` can show why a plan looks the way it does — and so a
misprediction is a visible artifact, not a silent slow query.

The invariant inherited from PR 2–6 makes this safe: every enumerated
alternative produces a byte-identical Result (and byte-identical *modeled*
Timeline — the paper charges are strategy-neutral by construction), so the
optimizer only ever changes host wall-clock, never answers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, TypeVar

from ..core.theta import Theta, ThetaOp
from ..errors import PlanError
from ..plan.logical import Query, ThetaJoin
from .cost import (
    cost_fused_scan,
    cost_solo_scans,
    cost_theta_alternative,
    theta_alternatives,
)
from .estimates import (
    ThetaCardinality,
    estimate_conjunction_rows,
    estimate_selectivity,
    estimate_theta_cardinality,
)

OPTIMIZERS = ("heuristic", "cost")

T = TypeVar("T")


def with_fallback(optimizer: str, build: Callable[[str], T]) -> T:
    """``build(optimizer)`` with ``"auto"`` resolved: the cost-based plan,
    or the heuristic one when the cost model declines (:class:`PlanError`).
    ``"cost"`` and ``"heuristic"`` build exactly what they name."""
    if optimizer == "auto":
        try:
            return build("cost")
        except PlanError:
            optimizer = "heuristic"
    return build(optimizer)


def check_optimizer(optimizer: str) -> str:
    if optimizer not in OPTIMIZERS:
        raise PlanError(
            f"unknown optimizer {optimizer!r}; pick one of {OPTIMIZERS}"
        )
    return optimizer


@dataclass(frozen=True)
class Alternative:
    """One enumerated physical shape with its estimated host cost."""

    label: str
    est_seconds: float
    detail: str = ""


@dataclass(frozen=True)
class Decision:
    """One optimizer choice: the winner plus its rejected competitors."""

    kind: str  # "theta-strategy" | "scan-order" | "batch-membership" | "fragment"
    target: str  # what was being decided, e.g. "trips ⋈θ cafes.location"
    chosen: str  # label of the winning Alternative
    alternatives: tuple[Alternative, ...]
    estimates: Mapping[str, int | float]
    forced: bool = False  # caller pinned the knobs; no real choice was made

    def chosen_alternative(self) -> Alternative:
        for alt in self.alternatives:
            if alt.label == self.chosen:
                return alt
        raise PlanError(f"decision chose unknown alternative {self.chosen!r}")

    def describe(self) -> list[str]:
        tag = "forced" if self.forced else "chosen"
        lines = [f"{self.kind} for {self.target}:"]
        for alt in sorted(self.alternatives, key=lambda a: a.est_seconds):
            marker = f"  * {tag} " if alt.label == self.chosen else "    rej  "
            extra = f"  ({alt.detail})" if alt.detail else ""
            lines.append(
                f"{marker}{alt.label:<18} est {alt.est_seconds * 1e3:9.3f} ms{extra}"
            )
        if self.estimates:
            parts = ", ".join(
                f"{k}={v:,}" if isinstance(v, int) else f"{k}={v:.3g}"
                for k, v in self.estimates.items()
            )
            lines.append(f"    est: {parts}")
        return lines


# ----------------------------------------------------------------------
# Theta strategy
# ----------------------------------------------------------------------
def _theta_of(tj: ThetaJoin) -> Theta:
    return Theta(ThetaOp(tj.op), tj.delta)


def choose_theta(
    query: Query, catalog
) -> tuple[ThetaJoin, Decision]:
    """Pick (strategy, emit) for the block's theta join by estimated cost.

    Respects explicitly pinned knobs (``strategy``/``emit`` other than
    ``"auto"``): the decision is still enumerated and recorded — marked
    ``forced`` — but the caller's choice stands.
    """
    tj = query.theta_joins[0]
    theta = _theta_of(tj)
    left = catalog.decomposition_of(query.table, tj.left_column)
    right = catalog.decomposition_of(tj.right_table, tj.right_column)
    if left is None or right is None:
        raise PlanError("theta optimizer needs both join columns decomposed")

    from .estimates import _delta_rows

    card = estimate_theta_cardinality(
        left, right, theta,
        left_hist=catalog.histogram_of(query.table, tj.left_column),
        right_hist=catalog.histogram_of(tj.right_table, tj.right_column),
        left_delta_rows=_delta_rows(catalog, query.table),
        right_delta_rows=_delta_rows(catalog, tj.right_table),
    )
    drivable = [
        p for p in query.where
        if p.is_simple_column and catalog.is_decomposed(query.table, p.target.name)
    ]
    if drivable and left.length:
        surviving = estimate_conjunction_rows(
            catalog, query.table, drivable, left.length
        )
        card = card.scaled(surviving / left.length)

    aggregate_only = bool(query.aggregates) and not query.group_by
    right_width = right.decomposition.max_error

    alternatives: list[Alternative] = []
    costs: dict[str, tuple[str, str, float]] = {}
    for strategy, emit in theta_alternatives(theta, right_width):
        label = f"{strategy}+{emit}"
        seconds = cost_theta_alternative(
            card, strategy=strategy, emit=emit, aggregate_only=aggregate_only
        ).total_seconds()
        detail = "aggregate-only" if aggregate_only and emit == "runs" else ""
        alternatives.append(Alternative(label, seconds, detail))
        costs[label] = (strategy, emit, seconds)

    # Candidates compatible with any caller-pinned knobs.
    viable = {
        label: v for label, v in costs.items()
        if (tj.strategy == "auto" or v[0] == tj.strategy)
        and (tj.emit == "auto" or v[1] == tj.emit)
    }
    forced = len(viable) < len(costs)
    if not viable:
        raise PlanError(
            f"no enumerable alternative matches strategy={tj.strategy!r} "
            f"emit={tj.emit!r} for this θ"
        )
    chosen_label = min(viable, key=lambda k: viable[k][2])
    strategy, emit, _ = costs[chosen_label]

    decision = Decision(
        kind="theta-strategy",
        target=f"{query.table}.{tj.left_column} {tj.op} "
               f"{tj.right_table}.{tj.right_column}",
        chosen=chosen_label,
        alternatives=tuple(alternatives),
        estimates={
            "left_rows": card.n_left,
            "right_rows": card.n_right,
            "certain_pairs": card.certain_pairs,
            "candidate_pairs": card.candidate_pairs,
        },
        forced=forced,
    )
    new_tj = replace(tj, strategy=strategy, emit=emit)
    return new_tj, decision


def optimized_theta_query(query: Query, catalog) -> tuple[Query, Decision]:
    """Rewrite the block's theta join to the costed (strategy, emit)."""
    new_tj, decision = choose_theta(query, catalog)
    return replace(query, theta_joins=(new_tj,)), decision


# ----------------------------------------------------------------------
# Scan predicate order
# ----------------------------------------------------------------------
def scan_order_decision(
    query: Query, catalog, drivable, predicate_order: str
) -> Decision | None:
    """Cost the two predicate orders; record which one the caller runs.

    The first predicate always scans the full stream; each later probe
    touches only the prefix's survivors, so total probe volume depends on
    the order.  The caller's ``predicate_order`` stands (it changes the
    *modeled* Timeline, which the optimizer must never do silently) — the
    decision records whether it matches the cheaper order.
    """
    if len(drivable) < 2:
        return None
    n_rows = len(catalog.table(query.table))
    sels = {
        id(p): estimate_selectivity(catalog, query.table, p) for p in drivable
    }

    def probe_volume(order) -> float:
        volume, frac = float(n_rows), 1.0
        for pred in order:
            frac *= sels[id(pred)]
            volume += n_rows * frac
        return volume

    query_order = list(drivable)
    sel_order = sorted(drivable, key=lambda p: sels[id(p)])
    per_tuple = 1.3e-9  # one relaxed compare per visited tuple (SIM_HOST SCAN)
    alts = (
        Alternative("query-order", probe_volume(query_order) * per_tuple),
        Alternative("selectivity-order", probe_volume(sel_order) * per_tuple),
    )
    chosen = (
        "selectivity-order" if predicate_order == "selectivity" else "query-order"
    )
    return Decision(
        kind="scan-order",
        target=f"{query.table} ({len(drivable)} drivable predicates)",
        chosen=chosen,
        alternatives=alts,
        estimates={"rows": n_rows},
        forced=True,  # the caller's predicate_order always stands
    )


# ----------------------------------------------------------------------
# Cooperative-batch membership (the serve gate)
# ----------------------------------------------------------------------
def batch_membership_decision(
    table: str, column: str, n_rows: int, est_hits: list[int]
) -> Decision:
    """Fuse the batch into one cooperative pass, or run members solo?"""
    fused = cost_fused_scan(n_rows, est_hits).total_seconds()
    solo = cost_solo_scans(n_rows, est_hits).total_seconds()
    chosen = "fused" if fused <= solo else "solo"
    return Decision(
        kind="batch-membership",
        target=f"{table}.{column} ×{len(est_hits)}",
        chosen=chosen,
        alternatives=(
            Alternative("fused", fused, "one cooperative pass"),
            Alternative("solo", solo, "per-member stream compare"),
        ),
        estimates={"rows": n_rows, "est_hits": sum(est_hits)},
    )
