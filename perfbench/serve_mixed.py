"""serve-mixed: an open-loop read/write mix through ``Session.serve()``.

Reads and writes arrive as a seeded Poisson process at a fixed rate
(``RATE``, well below the saturation throughput) and are timed from the
moment they were due.  One thread plays both the clients and the
server loop: the scheduler is cooperative, so it submits every
operation that is due, otherwise executes one batch (by waiting on the
oldest outstanding read), and otherwise polls for the next arrival.  A
closed saturation phase that always keeps a backlog follows and gives
``serve_qps``.

Reads are builder queries: count/sum/min/avg windows, a grouped share and
a band-join share; most repeat a fixed dashboard panel that fits the
256-entry plan cache, the rest are fresh ad-hoc windows.  Every 20th
operation is a ``submit_write`` append; the delta watermark sits above
the open phase's writes and makes compaction run four times under
saturation.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from common import (
    GcPauses, Outcome, highest_tail, median, peak_rss_mb, timed_setups,
)
from layers import view_metrics
from tracing import Recorder
from windows import Oracle, Read, check_answers, random_rows

N_ROWS = 1_000_000
MARKS = 2_000
#: Set-ups per run (one takes ~0.45 s); ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Operations per second in the open phase: ~1/8 of the saturation
#: throughput (~215 ops/s on a 2-core host), which keeps the server busy
#: ~20% of the open phase.  Nearer half the saturation rate the open
#: loop's batches are small and the server is busy 40-100%, so the
#: medians straddle arrivals that find it idle and arrivals that wait for
#: a batch, and flip from run to run.
RATE = 25.0
#: The open phase sends RATE x OPEN_SHARE x seconds operations (~68% of
#: the run).
OPEN_SHARE = 0.68
#: Every WRITE_EVERY-th operation is a write (5%); a fixed stride keeps
#: the write count, and so the write tail's sample count, steady.
WRITE_EVERY = 20
#: 300-row writes against a 10000-row watermark: the open phase's 21
#: writes (at 25 s) stay below it, so the read tail is not a count of reads
#: caught behind one or two compaction stalls (which flipped the p95
#: between runs); the saturation phase's 125 writes compact four times.
WRITE_ROWS = 300
DELTA_WATERMARK = 10_000
MAX_BATCH = 16
MAX_IN_FLIGHT = 64
#: Saturation keeps this many reads outstanding and sends
#: SATURATION_RATE x seconds operations (~11 s at ~230 ops/s; at ~7 s
#: its throughput varied ~13% from run to run, at ~11 s ~5%).
SATURATION_BACKLOG = 2 * MAX_BATCH
SATURATION_RATE = 100
PANEL_SHARE = 0.75
#: Dashboard panel: (kind, copies); windows are drawn once per seed.
PANEL = (("count", 6), ("sum", 6), ("min", 6), ("avg", 6),
         ("grouped", 5), ("band", 3))
#: Ad-hoc read kinds and their shares.
ADHOC = (("count", 0.2), ("sum", 0.2), ("min", 0.2), ("avg", 0.2),
         ("grouped", 0.12), ("band", 0.08))
WINDOW = {"count": 10_000, "sum": 10_000, "min": 10_000, "avg": 10_000,
          "grouped": 20_000, "band": 5_000}
#: Latency limit on the read tail (p95 at 25 s: the highest ladder
#: percentile with ≥ 10 reads beyond it).
READ_LIMIT_MS = 250.0


@dataclass
class Write:
    rows: dict


def _window(rng, kind: str) -> Read:
    lo = int(rng.integers(0, N_ROWS - WINDOW[kind]))
    return Read(kind, lo, lo + WINDOW[kind])


def _data(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    data = random_rows(rng, N_ROWS, N_ROWS)
    data["t"] = rng.integers(0, N_ROWS, MARKS)
    return data


def _panel(seed: int) -> list[Read]:
    rng = np.random.default_rng([seed, 3])
    return [_window(rng, kind) for kind, copies in PANEL for _ in range(copies)]


def op_stream(seed: int):
    """Seeded endless stream of (gap seconds, operation)."""
    rng = np.random.default_rng([seed, 4])
    panel = _panel(seed)
    kinds = [k for k, _ in ADHOC]
    shares = [p for _, p in ADHOC]
    for i in itertools.count(1):
        gap = float(rng.exponential(1.0 / RATE))
        if i % WRITE_EVERY == 0:
            op = Write(random_rows(rng, N_ROWS, WRITE_ROWS))
        elif rng.random() < PANEL_SHARE:
            op = panel[int(rng.integers(0, len(panel)))]
        else:
            op = _window(rng, kinds[int(rng.choice(len(kinds), p=shares))])
        yield gap, op


def build(seed: int):
    """Generate and load the tables, open the scheduler, warm the panel."""
    from repro.engine.session import Session
    from repro.storage.column import IntType

    data = _data(seed)
    session = Session()
    session.create_table(
        "events", {"value": IntType(), "grp": IntType(), "amount": IntType()},
        {k: data[k] for k in ("value", "grp", "amount")},
    )
    session.bwdecompose("events", "value", 24)
    session.bwdecompose("events", "grp", 32)
    session.bwdecompose("events", "amount", 32)
    session.create_table("marks", {"t": IntType()}, {"t": data["t"]})
    session.bwdecompose("marks", "t", 24)
    server = session.serve(max_batch=MAX_BATCH, max_in_flight=MAX_IN_FLIGHT,
                           delta_watermark=DELTA_WATERMARK)
    handles = [read.builder(session).submit(server) for read in _panel(seed)]
    server.drain()
    for h in handles:
        h.result()
    return session, server


# ----------------------------------------------------------------------
# The load loop
# ----------------------------------------------------------------------
def _wait_until(t: float) -> None:
    """Spin until ``t``.  A polling server loop notices an arrival within
    microseconds and keeps its core awake; sleeping instead adds the
    wake-up jitter and cold-core slowdown of an idle CPU to every read,
    which varied the median read latency by ~25% from run to run."""
    while time.perf_counter() < t:
        pass


class Client:
    """Submits operations and executes batches; records what it sees."""

    def __init__(self, session, server, outcome: Outcome, recorder=None) -> None:
        from repro.errors import ReproError

        self.session = session
        self.server = server
        self.outcome = outcome
        self.rec = recorder
        self._errors = ReproError
        self.writes: list[dict] = []
        #: (read, version, result or exception) for the answer check
        self.answers: list[tuple] = []
        self.pending: deque = deque()
        self.read_lat: list[float] = []
        self.read_kinds: list[str] = []
        self.write_lat: list[float] = []
        self.queue_wait: list[float] = []
        self.lags: list[float] = []
        self.backlog: list[tuple[float, int]] = []
        self.delta_rows: list[int] = []
        self.batch_walls: list[tuple[float, int]] = []
        self.batches = server.stats.batches
        self._compactions = server.stats.compactions
        self.redecomposed = 0
        self.completed = 0

    def _call(self, name: str, fn, *args):
        if self.rec is None:
            return fn(*args)
        self.rec.qid += 1
        with self.rec.span(name):
            return fn(*args)

    def submit(self, op, due: float | None) -> None:
        self.outcome.attempted += 1
        now = time.perf_counter()
        if due is not None:
            self.lags.append(now - due)
        if isinstance(op, Write):
            self._call("bench.write", self.server.submit_write, "events", op.rows)
            self.writes.append(op.rows)
            self.completed += 1
            if due is not None:
                self.write_lat.append(time.perf_counter() - due)
            return
        self.delta_rows.append(self.session.catalog.delta_rows("events"))
        builder = op.builder(self.session)
        t0 = time.perf_counter()
        try:
            handle = self._call("bench.submit", builder.submit, self.server)
        except self._errors as exc:
            self.outcome.error(f"submit {op}: {type(exc).__name__}: {exc}")
            return
        self.pending.append((handle, op, due))
        self._collect(t0)

    def execute_one(self) -> None:
        head = self.pending[0][0]
        t0 = time.perf_counter()
        try:
            self._call("bench.execute", head.result)
        except self._errors:
            pass  # recorded per handle by _collect
        self._collect(t0)

    def _collect(self, t0: float) -> None:
        """Record every outstanding read that a call starting at ``t0``
        completed; their batch ran inside that call."""
        stats = self.server.stats
        ran = stats.batches - self.batches
        if stats.compactions > self._compactions:
            self.redecomposed += (stats.compactions - self._compactions) * len(
                self.session.catalog.table("events"))
            self._compactions = stats.compactions
        if ran == 0:
            return
        now = time.perf_counter()
        self.batches = stats.batches
        self.batch_walls.append((now - t0, ran))
        still = deque()
        version = len(self.writes)
        for handle, op, due in self.pending:
            if not handle.done():
                still.append((handle, op, due))
                continue
            self.completed += 1
            if due is not None:  # open phase: timed from when it was due
                self.read_lat.append(now - due)
                self.read_kinds.append(op.kind)
                self.queue_wait.append(t0 - due)
            try:
                result = handle.result()
            except self._errors as exc:
                self.outcome.error(f"{op}: {type(exc).__name__}: {exc}")
                continue
            self.answers.append((op, version, result))
        self.pending = still

    # -- phases -----------------------------------------------------------
    def open_phase(self, ops, n_ops: int) -> float:
        """Send the next ``n_ops`` of ``ops`` (gap, op) on their Poisson
        schedule; returns the seconds until the last was due.  A fixed
        count, not a fixed duration, fixes the read and write sample
        counts behind each percentile."""
        start = time.perf_counter()
        walls0 = len(self.batch_walls)
        it = iter(ops)
        due = start
        sent = 0
        gap, op = next(it)
        due += gap
        while sent < n_ops:
            now = time.perf_counter()
            while due <= now and sent < n_ops:
                self.submit(op, due)
                sent += 1
                if sent < n_ops:
                    gap, op = next(it)
                    due += gap
            self.backlog.append((time.perf_counter() - start, len(self.pending)))
            if self.pending:
                self.execute_one()
            elif sent < n_ops:
                _wait_until(due)
        while self.pending:
            self.execute_one()
        scheduled = due - start
        self.busy_share = sum(w for w, _ in self.batch_walls[walls0:]) / scheduled
        return scheduled

    def saturation_phase(self, ops, n_ops: int) -> float:
        """Closed loop that keeps a backlog until the next ``n_ops`` of
        ``ops`` are done; returns completed ops / s.  A fixed count fixes
        the number of compactions the phase pays (four at 25 s)."""
        it = iter(ops)
        done0 = self.completed
        sent = 0
        start = time.perf_counter()
        while sent < n_ops or self.pending:
            while len(self.pending) < SATURATION_BACKLOG and sent < n_ops:
                self.submit(next(it)[1], None)
                sent += 1
            if self.pending:
                self.execute_one()
        return (self.completed - done0) / (time.perf_counter() - start)


def _validity(client: Client, seconds: float) -> list[str]:
    """Reasons the open phase cannot be reported (empty = valid)."""
    problems = []
    quarter = seconds / 4
    means = []
    for k in range(4):
        xs = [n for t, n in client.backlog if k * quarter <= t < (k + 1) * quarter]
        means.append(sum(xs) / len(xs) if xs else 0.0)
    if all(a < b for a, b in zip(means, means[1:])) and means[3] > 2 * means[0] + 4:
        problems.append(f"backlog kept growing (quarter means {means})")
    lag_p50 = median(client.lags) * 1e3
    if lag_p50 > 100:
        problems.append(f"generator fell behind (median lag {lag_p50:.1f} ms)")
    return problems


def _check(client: Client, seed: int, outcome: Outcome) -> None:
    data = _data(seed)
    base = {k: data[k] for k in ("value", "grp", "amount")}
    check_answers(client.answers, Oracle(base, data["t"], client.writes), outcome)


def run(seed: int, seconds: float, trace: bool):
    outcome = Outcome()
    setup_s, (session, server) = timed_setups(
        lambda: build(seed), repeats=1 if trace else SETUP_REPEATS)
    ops = op_stream(seed)
    if trace:
        return _run_traced(seed, seconds, session, server, ops, outcome)
    client = Client(session, server, outcome)
    t0 = time.perf_counter()
    with GcPauses() as gc_pauses:
        open_s = client.open_phase(ops, round(RATE * OPEN_SHARE * seconds))
        qps = client.saturation_phase(ops, round(SATURATION_RATE * seconds))
    gc_pauses.report(time.perf_counter() - t0)
    rss = peak_rss_mb()
    problems = _validity(client, open_s)
    _check(client, seed, outcome)
    for p in problems:
        print(f"INVALID RUN: {p}")
    if problems:
        raise SystemExit(3)
    read_p50 = median(client.read_lat) * 1e3
    read_tail = highest_tail(client.read_lat)
    if read_tail is None:
        raise RuntimeError(f"only {len(client.read_lat)} reads: the run is too "
                           "short for a read tail")
    read_pct, read_tail = read_tail[0], read_tail[1] * 1e3
    write_p50 = median(client.write_lat) * 1e3
    write_tail = highest_tail(client.write_lat)
    print(f"open phase: {len(client.read_lat)} reads, {len(client.write_lat)} "
          f"writes at {RATE:g} ops/s; {server.stats.compactions} compactions; "
          f"generator lag p50 {median(client.lags) * 1e3:.3f} ms, "
          f"max {max(client.lags) * 1e3:.1f} ms")
    print(f"server busy {client.busy_share:.0%} of the open phase")
    for kind in sorted(set(client.read_kinds)):
        lats = [lat for k, lat in zip(client.read_kinds, client.read_lat)
                if k == kind]
        print(f"  {kind:8s} share {len(lats) / len(client.read_lat):6.1%}  "
              f"p50 {median(lats) * 1e3:8.2f} ms  "
              f"above p{read_pct:g} {sum(l * 1e3 > read_tail for l in lats):4d}")
    print(f"read p{read_pct:g} {read_tail:.3f} ms vs limit "
          f"{READ_LIMIT_MS:g} ms: {'met' if read_tail <= READ_LIMIT_MS else 'MISSED'}")
    print(f"named read_p50_ms {read_p50:.4f} ms")
    print(f"named read_tail_ms {read_tail:.4f} ms (p{read_pct:g})")
    print(f"named write_p50_ms {write_p50:.4f} ms")
    if write_tail is None:
        print(f"named write_tail_ms nan ms (only {len(client.write_lat)} "
              "writes: no percentile has 10 beyond it)")
    else:
        print(f"named write_tail_ms {write_tail[1] * 1e3:.4f} ms "
              f"(p{write_tail[0]:g} of {len(client.write_lat)} writes)")
    print(f"named serve_qps {qps:.4f} 1/s")
    return outcome, {
        "setup_s": setup_s, "p50_ms": read_p50, "tail_ms": read_tail,
        "side_ms": write_p50, "ops_per_s": qps, "peak_rss_mb": rss,
    }


def _run_traced(seed, seconds, session, server, ops, outcome):
    half = seconds / 2
    plain = Client(session, server, outcome)
    n_open = round(RATE * OPEN_SHARE * half)
    n_saturation = round(SATURATION_RATE * half)
    with GcPauses() as gc_pauses:
        plain.open_phase(ops, n_open)
        qps_plain = plain.saturation_phase(ops, n_saturation)
    stats = server.stats
    before = (stats.batches, sum(k * v for k, v in stats.batch_size_counts.items()),
              stats.fused_queries)
    recorder = Recorder()
    traced = Client(session, server, outcome, recorder)
    traced.writes = plain.writes
    with recorder:
        traced.open_phase(ops, n_open)
        qps_traced = traced.saturation_phase(ops, n_saturation)
    _check(plain, seed, outcome)
    _check(traced, seed, outcome)
    reads = len(traced.answers)
    self_all = recorder.self_by_name()
    batches = stats.batches - before[0]
    appends = recorder.inclusive_under("ingest.append")
    compacts = recorder.inclusive_under("ingest.compact")
    walls = [w for w, _ in plain.batch_walls]
    ran = sum(n for _, n in plain.batch_walls)

    def per_read(*names: str) -> float:
        return sum(self_all.get(name, 0.0) for name in names) / reads * 1e3

    metrics = {
        "opt.plan_ms": per_read("opt.plan_for", "opt.rewrite"),
        "opt.plan_cache_hits": stats.plan_cache_hits,
        "opt.plan_cache_hit_rate": stats.plan_cache_hit_rate,
        "engine.ar_glue_ms": per_read("engine.ar_run", "engine.cooperative"),
        "serve.batch_ms": sum(walls) / ran * 1e3,
        "serve.batch_size_mean": (
            (sum(k * v for k, v in stats.batch_size_counts.items()) - before[1])
            / batches),
        "serve.fused_share": (stats.fused_queries - before[2]) / reads,
        "serve.queue_wait_ms": sum(plain.queue_wait) / len(plain.queue_wait) * 1e3,
        "serve.backlog_max": max(n for _, n in plain.backlog),
        "serve.generator_lag_p50_ms": median(plain.lags) * 1e3,
        "serve.generator_lag_max_ms": max(plain.lags) * 1e3,
        "serve.backpressure_stalls": stats.backpressure_stalls,
        "serve.modeled_scan_sharing_gain": stats.modeled_scan_sharing_gain,
        "ingest.append_ms": median(appends) * 1e3 if appends else 0.0,
        "ingest.compact_ms": median(compacts) * 1e3 if compacts else 0.0,
        "ingest.compactions": stats.compactions,
        "ingest.rewrite_amplification": (
            (plain.redecomposed + traced.redecomposed) / stats.write_rows),
        "ingest.delta_rows_mean": (
            sum(plain.delta_rows) / len(plain.delta_rows)),
        "ingest.delta_union_ms": per_read("ingest.delta_union"),
        "core.approx_ms": per_read("core.approx"),
        "core.candidates_ms": per_read("core.candidates"),
        "core.intervals_ms": per_read("core.intervals"),
        "core.refine_ms": per_read("core.refine"),
        "core.aggregates_ms": per_read("core.aggregates"),
        "storage.decode_ms": per_read("storage.decode"),
        "storage.views_ms": per_read("storage.views"),
        "device.scatter_ms": per_read("device.scatter"),
        "device.kernels_ms": per_read("device.kernels"),
        "runtime.gc_ms": gc_pauses.seconds / (n_open + n_saturation) * 1e3,
        "bench.trace_overhead": qps_plain / qps_traced,
        **view_metrics(),
    }
    return outcome, recorder, metrics
