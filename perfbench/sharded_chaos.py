"""sharded-chaos: a four-shard session under seeded faults, with appends.

A closed loop with one client sends builder queries to a
``ShardedSession(4)`` that a seeded fault profile disturbs with transient
dispatch failures (retried) and stragglers (hedged).  Rows are appended
between reads and compacted when the delta passes a threshold.  The
per-shard decoded-view budget is half the measured working set, so the
view cache evicts and rebuilds.  Narrow windows prune to one shard; wide
windows and grouped aggregates merge all four; a band join runs against
a replicated dimension.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from common import (
    GcPauses, Outcome, geomean, highest_tail, median, peak_rss_mb, stratified,
    timed_setups,
)
from layers import view_metrics
from tracing import Recorder
from windows import Oracle, Read, check_answers, random_rows

N_SHARDS = 4
N_ROWS = 400_000
MARKS = 1_000
#: Query classes: label -> (shape, window width, reads per cycle of 20).
#: Narrow windows fall in one shard's code band; the rest merge all four
#: shards.  Wide windows are the slowest class and bimodal (a hedged or
#: cold-cache query costs ~1.7x a warm one); the shares keep the median
#: inside ``narrow`` (65%) and put the p95 at the 80th percentile of
#: ``wide`` (25%), inside its slow mode rather than between the modes.
CLASSES = {
    "narrow": ("countsum", 2_000, 13),
    "band": ("band", 5_000, 1),
    "grouped": ("grouped", 100_000, 1),
    "wide": ("countsum", 150_000, 5),
}
#: One append of APPEND_ROWS rows after every APPEND_EVERY reads; compact
#: once the delta holds COMPACT_ROWS rows.
APPEND_EVERY = 10
APPEND_ROWS = 100
COMPACT_ROWS = 2_000
#: Operations (reads and appends) per second of ``--seconds``: a fixed
#: count (~25 s of work at 25 s on a 2-core host) fixes the number of
#: compactions and the samples behind the p95.
OPS_PER_SECOND = 36
#: Per-shard view budget as a share of the measured working set.
VIEW_BUDGET_SHARE = 0.5
#: Set-ups per run (one takes ~0.5 s); ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Warm-up windows per class, at fixed positions spread over the value
#: range, so set-up does the same work for every seed.
WARM_WINDOWS = 3


def _data(seed: int) -> dict:
    rng = np.random.default_rng([seed, 5])
    data = random_rows(rng, N_ROWS, N_ROWS)
    data["t"] = rng.integers(0, N_ROWS, MARKS)
    return data


def op_stream(seed: int):
    """Seeded endless stream of ("read", label, Read) / ("append", rows)."""
    rng = np.random.default_rng([seed, 6])
    labels = stratified(np.random.default_rng([seed, 7]),
                        {label: c[2] for label, c in CLASSES.items()})
    while True:
        for _ in range(APPEND_EVERY):
            label = next(labels)
            shape, width, _ = CLASSES[label]
            lo = int(rng.integers(0, N_ROWS - width))
            yield ("read", label, Read(shape, lo, lo + width))
        yield ("append", random_rows(rng, N_ROWS, APPEND_ROWS))


def build(seed: int):
    """Load, shard, decompose, warm, then cap the view cache."""
    from repro.faults import FaultProfile
    from repro.shard.session import ShardedSession
    from repro.storage.column import IntType
    from repro.storage.decompose import set_view_budget, view_cache_bytes

    set_view_budget(None)
    data = _data(seed)
    session = ShardedSession(N_SHARDS)
    session.create_table(
        "events", {"value": IntType(), "grp": IntType(), "amount": IntType()},
        {k: data[k] for k in ("value", "grp", "amount")},
    )
    for column in ("value", "grp", "amount"):
        session.bwdecompose("events", column, 24 if column == "value" else 32)
    session.create_table("marks", {"t": IntType()}, {"t": data["t"]},
                         partition=False)
    session.bwdecompose("marks", "t", 24)
    for shape, width, _ in CLASSES.values():
        for k in range(WARM_WINDOWS):
            lo = (N_ROWS - width) * (2 * k + 1) // (2 * WARM_WINDOWS)
            session.query(Read(shape, lo, lo + width).builder(session).build())
    working_set = view_cache_bytes()
    per_shard = int(working_set / N_SHARDS * VIEW_BUDGET_SHARE)
    session.set_view_budget(per_shard)
    session.inject_faults(FaultProfile(
        transient_rate=0.05, straggler_rate=0.05, straggler_factor=4.0,
    ), seed=seed)
    return session, working_set, per_shard


class Client:
    """The one client: runs operations in order and records what it sees."""

    def __init__(self, session, outcome: Outcome, recorder=None) -> None:
        from repro.errors import ReproError

        self.session = session
        self.outcome = outcome
        self.rec = recorder
        self._errors = ReproError
        self.appends: list[dict] = []
        self.appended_rows = 0
        self.redecomposed = 0
        self.compactions = 0
        #: (label, seconds, read, version, result)
        self.queries: list[tuple] = []
        self.append_s: list[float] = []
        #: Seconds spent inside the program (queries, appends, compactions).
        self.busy = 0.0
        self.delta_rows: list[int] = []

    def _call(self, name: str, fn, *args):
        if self.rec is None:
            return fn(*args)
        self.rec.qid += 1
        with self.rec.span(name):
            return fn(*args)

    def step(self, op) -> None:
        self.outcome.attempted += 1
        if op[0] == "append":
            rows = op[1]
            t0 = time.perf_counter()
            try:
                self._call("bench.append", self.session.append, "events", rows)
            except self._errors as exc:
                self.outcome.error(f"append: {type(exc).__name__}: {exc}")
                return
            self.append_s.append(time.perf_counter() - t0)
            self.appends.append(rows)
            self.appended_rows += len(rows["value"])
            if self.session.catalog.delta_rows("events") >= COMPACT_ROWS:
                self._call("bench.compact", self.session.compact, "events")
                self.compactions += 1
                self.redecomposed += len(self.session.catalog.table("events"))
            self.busy += time.perf_counter() - t0
            return
        _, label, read = op
        self.delta_rows.append(self.session.catalog.delta_rows("events"))
        query = read.builder(self.session).build()
        t0 = time.perf_counter()
        try:
            result = self._call(f"bench.query.{label}", self.session.query, query)
        except self._errors as exc:
            self.outcome.error(f"{read}: {type(exc).__name__}: {exc}")
            return
        dt = time.perf_counter() - t0
        self.busy += dt
        self.queries.append((label, dt, read, len(self.appends), result))

    def run(self, ops, n_ops: int) -> list:
        """Run the next ``n_ops`` of ``ops``; returns them."""
        done = []
        for op in itertools.islice(ops, n_ops):
            self.step(op)
            done.append(op)
        return done

    def latencies(self, label: str | None = None) -> list[float]:
        return [dt for lb, dt, *_ in self.queries if label in (None, lb)]


def _check(client: Client, seed: int, outcome: Outcome) -> None:
    data = _data(seed)
    base = {k: data[k] for k in ("value", "grp", "amount")}
    answers = [(read, version, result)
               for _, _, read, version, result in client.queries]
    check_answers(answers, Oracle(base, data["t"], client.appends), outcome)


def run(seed: int, seconds: float, trace: bool):
    outcome = Outcome()
    setup_s, (session, working_set, per_shard) = timed_setups(
        lambda: build(seed), repeats=1 if trace else SETUP_REPEATS)
    print(f"decoded-view working set {working_set / 2**20:.1f} MiB; budget "
          f"{per_shard / 2**20:.1f} MiB per shard x {N_SHARDS}")
    ops = op_stream(seed)
    if trace:
        return _run_traced(seed, seconds, session, ops, outcome)
    client = Client(session, outcome)
    t0 = time.perf_counter()
    with GcPauses() as gc_pauses:
        client.run(ops, round(OPS_PER_SECOND * seconds))
    gc_pauses.report(time.perf_counter() - t0)
    rss = peak_rss_mb()
    _check(client, seed, outcome)
    lat = client.latencies()
    p50 = median(lat) * 1e3
    p_tail = highest_tail(lat)
    if p_tail is None:
        raise RuntimeError(f"only {len(lat)} queries: the run is too short "
                           "for a tail")
    pct, p_tail = p_tail[0], p_tail[1] * 1e3
    for label in CLASSES:
        xs = client.latencies(label)
        print(f"  {label:8s} share {len(xs) / len(lat):6.1%}  "
              f"p50 {median(xs) * 1e3:8.2f} ms  "
              f"above p{pct:g} {sum(x * 1e3 > p_tail for x in xs):4d}")
    print(f"{len(lat)} queries, {len(client.append_s)} appends, "
          f"{client.compactions} compactions")
    print(f"named sharded_p50_ms {p50:.4f} ms")
    print(f"named sharded_tail_ms {p_tail:.4f} ms (p{pct:g})")
    return outcome, {
        "setup_s": setup_s, "p50_ms": p50, "tail_ms": p_tail,
        "side_ms": median(client.append_s) * 1e3,
        "ops_per_s": len(lat) / client.busy, "peak_rss_mb": rss,
    }


def _run_traced(seed, seconds, session, ops, outcome):
    plain = Client(session, outcome)
    with GcPauses() as gc_pauses:
        done = plain.run(ops, round(OPS_PER_SECOND * seconds / 2))
    recorder = Recorder()
    traced = Client(session, outcome, recorder)
    traced.appends = plain.appends
    with recorder:
        traced.run(iter(done), len(done))
    _check(plain, seed, outcome)
    _check(traced, seed, outcome)
    results = [q[4] for q in traced.queries]
    n = len(results)
    self_all = recorder.self_by_name()
    fragments = recorder.inclusive_under("engine.ar_run", ancestor="shard.execute")
    executes = recorder.inclusive_under("shard.execute")
    plans = recorder.inclusive_under("shard.plan")
    appends = recorder.inclusive_under("ingest.append")
    compacts = recorder.inclusive_under("ingest.compact")
    breakers = session.executor.breakers.values()

    def per_query(*names: str) -> float:
        return sum(self_all.get(name, 0.0) for name in names) / n * 1e3

    return outcome, recorder, {
        "opt.plan_ms": per_query("opt.plan_for", "opt.rewrite"),
        "engine.ar_glue_ms": per_query("engine.ar_run"),
        "core.approx_ms": per_query("core.approx"),
        "core.candidates_ms": per_query("core.candidates"),
        "core.intervals_ms": per_query("core.intervals"),
        "core.refine_ms": per_query("core.refine"),
        "core.aggregates_ms": per_query("core.aggregates"),
        "storage.decode_ms": per_query("storage.decode"),
        "storage.views_ms": per_query("storage.views"),
        "device.scatter_ms": per_query("device.scatter"),
        "device.kernels_ms": per_query("device.kernels"),
        "ingest.append_ms": median(appends) * 1e3,
        "ingest.compact_ms": median(compacts) * 1e3 if compacts else 0.0,
        "ingest.compactions": plain.compactions + traced.compactions,
        "ingest.rewrite_amplification": (
            (plain.redecomposed + traced.redecomposed)
            / (plain.appended_rows + traced.appended_rows)),
        "ingest.delta_rows_mean": sum(traced.delta_rows) / len(traced.delta_rows),
        "ingest.delta_union_ms": per_query("ingest.delta_union"),
        "shard.plan_ms": sum(plans) / n * 1e3,
        "shard.coord_ms": (sum(executes) - sum(fragments)) / n * 1e3,
        "shard.fragment_ms": sum(fragments) / len(fragments) * 1e3,
        "shard.fragments_per_query": sum(len(r.fragment_seconds) for r in results) / n,
        "shard.pruned_share": sum(len(r.pruned_shards) for r in results) / (n * N_SHARDS),
        "shard.modeled_wall_ms": sum(r.wall_clock_seconds for r in results) / n * 1e3,
        "shard.modeled_recovery_ms": sum(r.recovery_seconds for r in results) / n * 1e3,
        "faults.retries_per_query": sum(r.retries for r in results) / n,
        "faults.hedges_per_query": sum(len(r.hedged_shards) for r in results) / n,
        "faults.breaker_opens": sum(b.opened_count for b in breakers),
        "faults.degraded_share": sum(r.degraded for r in results) / n,
        "runtime.gc_ms": gc_pauses.seconds / len(done) * 1e3,
        "bench.trace_overhead": geomean(
            median(traced.latencies(label)) / median(plain.latencies(label))
            for label in CLASSES if traced.latencies(label)
        ),
        **view_metrics(),
    }
