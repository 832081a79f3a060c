"""paper-queries: the paper's own queries as SQL, in ``ar`` and ``classic``.

A closed loop with one client sends a seeded stream of TPC-H Q1, Q6 and
Q14 at SF 0.17 (~1M lineitems) and the spatial range conjunction over
seeded windows (1M GPS fixes) through ``Session.execute``.  Every instance
runs in both modes, alternating which runs first, so ``classic`` (the
CPU-only bypass) is measured on the same inputs as ``ar``.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from common import (
    GcPauses, Outcome, geomean, median, peak_rss_mb, stratified, timed_setups,
)
from layers import view_metrics
from tracing import Recorder

SF = 0.17
SPATIAL_POINTS = 1_000_000
CLASSES = ("q1", "q6", "q14", "spatial")
TPCH_CLASSES = ("q1", "q6", "q14")
#: Set-ups per run (one takes ~1.5 s and varies ±20%, mostly in the
#: first Q1 warm-up); ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Instances of each class per shuffled cycle of the stream.  Q1 costs ~10x
#: Q6 per instance, so it gets the smallest share; every class still gets
#: ≥ 10 instances in a run.
CYCLE = {"q1": 4, "q6": 7, "q14": 7, "spatial": 6}
#: Stream instances re-checked against sqlite3 (plus one canonical
#: instance per class).
SQLITE_SAMPLE = 4
_EPOCH = date(1970, 1, 1).toordinal()
#: Table I's query window (lon/lat, degrees).
_LON = (2.68288, 2.70228)
_LAT = (50.4222, 50.4485)


@dataclass(frozen=True)
class Instance:
    cls: str
    params: tuple

    @property
    def sql(self) -> str:
        return SQL_BUILDERS[self.cls](*self.params)


def _day(iso: str) -> int:
    return date.fromisoformat(iso).toordinal() - _EPOCH


def _q1_cutoff(delta_days: int) -> str:
    return (date(1998, 12, 1) - timedelta(days=delta_days)).isoformat()


def q1_sql(delta_days: int) -> str:
    return (
        "select returnflag, linestatus, sum(quantity) as sum_qty, "
        "sum(extendedprice) as sum_base_price, "
        "sum(extendedprice * (1 - discount)) as sum_disc_price, "
        "sum(extendedprice * (1 - discount) * (1 + tax)) as sum_charge, "
        "avg(quantity) as avg_qty, avg(extendedprice) as avg_price, "
        "avg(discount) as avg_disc, count(*) as count_order "
        f"from lineitem where shipdate <= '{_q1_cutoff(delta_days)}' "
        "group by returnflag, linestatus"
    )


def q6_sql(year: int, disc: int, qty: int) -> str:
    return (
        "select sum(extendedprice * discount) as revenue from lineitem "
        f"where shipdate >= '{year}-01-01' and shipdate < '{year + 1}-01-01' "
        f"and discount between {(disc - 1) / 100:.2f} and {(disc + 1) / 100:.2f} "
        f"and quantity < {qty}"
    )


def _month_bounds(year: int, month: int) -> tuple[str, str]:
    nxt = (year + 1, 1) if month == 12 else (year, month + 1)
    return f"{year}-{month:02d}-01", f"{nxt[0]}-{nxt[1]:02d}-01"


def q14_sql(year: int, month: int) -> str:
    start, end = _month_bounds(year, month)
    return (
        "select sum(case when part.p_type like 'PROMO%' "
        "then extendedprice * (1 - discount) else 0 end) as promo_revenue, "
        "sum(extendedprice * (1 - discount)) as total_revenue "
        "from lineitem join part on lineitem.partkey = part.key "
        f"where shipdate >= '{start}' and shipdate < '{end}'"
    )


def spatial_sql(lon_lo: float, lon_hi: float, lat_lo: float, lat_hi: float) -> str:
    return (
        f"select count(lon) as n from trips where lon between {lon_lo:.5f} "
        f"and {lon_hi:.5f} and lat between {lat_lo:.5f} and {lat_hi:.5f}"
    )


SQL_BUILDERS = {"q1": q1_sql, "q6": q6_sql, "q14": q14_sql, "spatial": spatial_sql}

#: The paper's own parameters: the instance the per-class counts and
#: modeled ledgers are read from.
CANONICAL = {
    "q1": Instance("q1", (90,)),
    "q6": Instance("q6", (1994, 6, 24)),
    "q14": Instance("q14", (1995, 9)),
    "spatial": Instance("spatial", (_LON[0], _LON[1], _LAT[0], _LAT[1])),
}


def instance_stream(seed: int):
    """Seeded, endless stream of query instances with varied parameters."""
    rng = np.random.default_rng([seed, 1])
    for cls in stratified(np.random.default_rng([seed, 9]), CYCLE):
        if cls == "q1":
            params = (int(rng.integers(60, 121)),)
        elif cls == "q6":
            params = (int(rng.integers(1993, 1998)), int(rng.integers(2, 10)),
                      int(rng.integers(24, 26)))
        elif cls == "q14":
            params = (int(rng.integers(1993, 1998)), int(rng.integers(1, 13)))
        else:
            lon_c = float(np.mean(_LON) + rng.uniform(-0.01, 0.01))
            lat_c = float(np.mean(_LAT) + rng.uniform(-0.01, 0.01))
            scale = float(rng.uniform(0.5, 2.0))
            half_lon = (_LON[1] - _LON[0]) / 2 * scale
            half_lat = (_LAT[1] - _LAT[0]) / 2 * scale
            params = (round(lon_c - half_lon, 5), round(lon_c + half_lon, 5),
                      round(lat_c - half_lat, 5), round(lat_c + half_lat, 5))
        yield Instance(cls, params)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _configs(seed: int):
    from repro.workloads.spatial import SpatialConfig
    from repro.workloads.tpch import TpchConfig

    return (TpchConfig(scale_factor=SF, seed=1000 + seed),
            SpatialConfig(n_points=SPATIAL_POINTS, seed=2000 + seed))


def build_sessions(seed: int) -> dict:
    """Generate, decompose and warm both sessions (one call = one set-up)."""
    from repro.workloads.spatial import build_spatial_session
    from repro.workloads.tpch import build_tpch_session

    tpch_cfg, spatial_cfg = _configs(seed)
    tpch = build_tpch_session(tpch_cfg)
    spatial = build_spatial_session(spatial_cfg)
    sessions = {"q1": tpch, "q6": tpch, "q14": tpch, "spatial": spatial}
    for inst in CANONICAL.values():
        for mode in ("ar", "classic"):
            sessions[inst.cls].execute(inst.sql, mode=mode)
    return sessions


# ----------------------------------------------------------------------
# The oracle (numpy + stdlib sqlite3, outside the codebase's kernels)
# ----------------------------------------------------------------------
class Oracle:
    """The generated inputs, held outside the engine, plus sqlite3."""

    def __init__(self, seed: int) -> None:
        from repro.workloads.spatial import generate_trips
        from repro.workloads.tpch import (
            generate_lineitem, generate_part, part_type_dictionary,
        )

        tpch_cfg, spatial_cfg = _configs(seed)
        self.li = generate_lineitem(tpch_cfg)
        part = generate_part(tpch_cfg)
        names = part_type_dictionary().values
        trips = generate_trips(spatial_cfg)
        # decimal(8,5) / decimal(7,5): stored as round(v * 10^5).
        self.lon = np.rint(trips["lon"] * 1e5).astype(np.int64)
        self.lat = np.rint(trips["lat"] * 1e5).astype(np.int64)
        self._part = part
        self._names = names
        self._db: sqlite3.Connection | None = None

    @staticmethod
    def _spatial_codes(p) -> tuple[int, ...]:
        return tuple(int(round(v * 1e5)) for v in p)

    # -- sqlite3 -------------------------------------------------------
    def db(self) -> sqlite3.Connection:
        if self._db is None:
            db = sqlite3.connect(":memory:")
            cols = ("quantity", "extendedprice", "discount", "tax",
                    "shipdate", "returnflag", "linestatus", "partkey")
            db.execute(f"create table lineitem ({', '.join(cols)})")
            db.executemany(
                "insert into lineitem values (?,?,?,?,?,?,?,?)",
                zip(*(self.li[c].tolist() for c in cols)),
            )
            db.execute("create table part (key, p_type)")
            db.executemany(
                "insert into part values (?,?)",
                zip(self._part["key"].tolist(),
                    [self._names[c] for c in self._part["p_type"]]),
            )
            db.execute("create table trips (lon, lat)")
            db.executemany("insert into trips values (?,?)",
                           zip(self.lon.tolist(), self.lat.tolist()))
            self._db = db
        return self._db

    def sqlite_answer(self, inst: Instance) -> tuple[dict[str, list], int]:
        """Exact answer columns in the engine's scaled-integer units, and
        the number of rows that satisfy the query's predicates."""
        p = inst.params
        if inst.cls == "q1":
            rows = self.db().execute(
                "select returnflag, linestatus, sum(quantity), "
                "sum(extendedprice), sum(extendedprice * (100 - discount)), "
                "sum(extendedprice * (100 - discount) * (100 + tax)), "
                "sum(discount), count(*) from lineitem where shipdate <= ? "
                "group by returnflag, linestatus order by returnflag, linestatus",
                (_day(_q1_cutoff(p[0])),),
            ).fetchall()
            cols = list(zip(*rows))
            n = cols[7]
            return {
                "returnflag": list(cols[0]), "linestatus": list(cols[1]),
                "sum_qty": list(cols[2]), "sum_base_price": list(cols[3]),
                "sum_disc_price": list(cols[4]), "sum_charge": list(cols[5]),
                "avg_qty": [s / c for s, c in zip(cols[2], n)],
                "avg_price": [s / c for s, c in zip(cols[3], n)],
                "avg_disc": [s / c for s, c in zip(cols[6], n)],
                "count_order": list(n),
            }, sum(n)
        if inst.cls == "q6":
            year, disc, qty = p
            rev, n = self.db().execute(
                "select sum(extendedprice * discount), count(*) from lineitem "
                "where shipdate >= ? and shipdate < ? and discount between ? "
                "and ? and quantity < ?",
                (_day(f"{year}-01-01"), _day(f"{year + 1}-01-01"),
                 disc - 1, disc + 1, qty),
            ).fetchone()
            return {"revenue": [rev]}, n
        if inst.cls == "q14":
            start, end = _month_bounds(*p)
            promo, total, n = self.db().execute(
                "select sum(case when p.p_type like 'PROMO%' then "
                "l.extendedprice * (100 - l.discount) else 0 end), "
                "sum(l.extendedprice * (100 - l.discount)), count(*) "
                "from lineitem l "
                "join part p on l.partkey = p.key "
                "where l.shipdate >= ? and l.shipdate < ?",
                (_day(start), _day(end)),
            ).fetchone()
            return {"promo_revenue": [promo], "total_revenue": [total]}, n
        lo_lon, hi_lon, lo_lat, hi_lat = self._spatial_codes(p)
        (n,) = self.db().execute(
            "select count(*) from trips where lon between ? and ? "
            "and lat between ? and ?", (lo_lon, hi_lon, lo_lat, hi_lat),
        ).fetchone()
        return {"n": [n]}, n


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
_KEYS = {"q1": ("returnflag", "linestatus")}


def _columns(result, cls: str) -> dict[str, list]:
    keys = _KEYS.get(cls, ())
    r = result.sorted_by(*keys) if keys else result
    return {k: np.asarray(v).tolist() for k, v in r.columns.items()}


def check_bounds(inst: Instance, result) -> list[str]:
    """Every approximate bound must bracket the exact answer."""
    problems = []
    approx = result.approximate
    if approx is None:
        return [f"{inst.sql}: ar result carries no approximate answer"]
    for alias, bound in approx.aggregates.items():
        if bound is None:
            continue
        exact = np.asarray(result.columns[alias])
        if isinstance(bound, list):
            lo = [b.lo for b in bound]
            hi = [b.hi for b in bound]
            if alias.startswith("avg"):
                ok = all(min(lo) <= v <= max(hi) for v in exact.tolist())
            else:
                ok = sum(lo) <= exact.sum() <= sum(hi)
        else:
            ok = bound.lo <= exact[0] <= bound.hi
        if not ok:
            problems.append(
                f"{inst.sql}: approximate bound for {alias} does not bracket "
                f"the exact answer {exact.tolist()}"
            )
    return problems


def check_equal(label: str, got: dict, want: dict) -> list[str]:
    if got != want:
        return [f"{label}: got {got}, expected {want}"]
    return []


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _execute(session, inst: Instance, mode: str, outcome: Outcome):
    from repro.errors import ReproError

    outcome.attempted += 1
    try:
        return session.execute(inst.sql, mode=mode)
    except ReproError as exc:
        outcome.error(f"{mode} {inst.sql}: {type(exc).__name__}: {exc}")
        return None


def _run_stream(sessions, instances, outcome, deadline=None, recorder=None):
    """Run instances in both modes (alternating order) until ``deadline``
    or the end of ``instances``; returns the executed statements as
    ``(instance, mode, seconds, result)``.  With a ``recorder``, each
    statement is one root span."""
    done = []
    for i, inst in enumerate(instances):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        modes = ("ar", "classic") if i % 2 == 0 else ("classic", "ar")
        for mode in modes:
            session = sessions[inst.cls]
            if recorder is None:
                t0 = time.perf_counter()
                result = _execute(session, inst, mode, outcome)
                dt = time.perf_counter() - t0
            else:
                recorder.qid += 1
                with recorder.span(f"bench.{mode}.{inst.cls}"):
                    t0 = time.perf_counter()
                    result = _execute(session, inst, mode, outcome)
                    dt = time.perf_counter() - t0
            done.append((inst, mode, dt, result))
    return done


def _check(done, oracle: Oracle, outcome: Outcome, seed: int) -> None:
    by_inst: dict[int, dict] = {}
    for k, (inst, mode, _, result) in enumerate(done):
        by_inst.setdefault(k // 2, {"inst": inst})[mode] = result
    sample_rng = np.random.default_rng([seed, 7])
    pairs = list(by_inst.values())
    sampled = set(sample_rng.choice(
        len(pairs), size=min(SQLITE_SAMPLE, len(pairs)), replace=False
    ).tolist())
    for idx, pair in enumerate(pairs):
        inst, ar, classic = pair["inst"], pair.get("ar"), pair.get("classic")
        if ar is None or classic is None:
            continue
        ar_cols = _columns(ar, inst.cls)
        for problem in check_equal(f"ar vs classic, {inst.sql}",
                                   ar_cols, _columns(classic, inst.cls)):
            outcome.mismatch(problem)
        for problem in check_bounds(inst, ar):
            outcome.mismatch(problem)
        if idx in sampled:
            for problem in check_equal(f"ar vs sqlite3, {inst.sql}", ar_cols,
                                       oracle.sqlite_answer(inst)[0]):
                outcome.mismatch(problem)


def _canonical_facts(sessions, oracle: Oracle, outcome: Outcome) -> dict:
    """Exact per-class counts and modeled ledgers of the canonical
    instances (the paper's parameters) for each class in ``sessions``,
    checked against sqlite3."""
    facts = {}
    for cls, session in sessions.items():
        inst = CANONICAL[cls]
        outcome.attempted += 2
        ar = session.execute(inst.sql, mode="ar")
        classic = session.execute(inst.sql, mode="classic")
        ar_cols = _columns(ar, cls)
        answer, qualifying = oracle.sqlite_answer(inst)
        for problem in (
            check_equal(f"ar vs sqlite3, {inst.sql}", ar_cols, answer)
            + check_equal(f"ar vs classic, {inst.sql}", ar_cols,
                          _columns(classic, cls))
            + check_bounds(inst, ar)
        ):
            outcome.mismatch(problem)
        by_kind = ar.timeline.seconds_by_kind()
        # A refined result reports its refined rows; the approximation
        # subplan alone reports the candidates it hands to refinement.
        outcome.attempted += 1
        candidates = session.execute(
            inst.sql, mode="approximate").approximate.candidate_rows
        facts[cls] = {
            "candidate_rows": candidates,
            "candidate_precision": qualifying / candidates if candidates else 0.0,
            "modeled_gpu_ms": by_kind.get("gpu", 0.0) * 1e3,
            "modeled_bus_ms": by_kind.get("bus", 0.0) * 1e3,
            "modeled_cpu_ms": by_kind.get("cpu", 0.0) * 1e3,
            "modeled_ar_over_classic": (
                ar.timeline.total_seconds() / classic.timeline.total_seconds()
            ),
        }
    return facts


def run(seed: int, seconds: float, trace: bool) -> tuple:
    outcome = Outcome()
    setup_s, sessions = timed_setups(
        lambda: build_sessions(seed), repeats=1 if trace else SETUP_REPEATS
    )
    stream = instance_stream(seed)
    if not trace:
        t0 = time.perf_counter()
        with GcPauses() as gc_pauses:
            done = _run_stream(sessions, stream, outcome, deadline=t0 + seconds)
        gc_pauses.report(time.perf_counter() - t0)
        rss = peak_rss_mb()
        oracle = Oracle(seed)
        _check(done, oracle, outcome, seed)
        _canonical_facts(sessions, oracle, outcome)
        return outcome, end_to_end(done, setup_s, rss)

    # Traced run: the same statements untraced, then traced.
    t0 = time.perf_counter()
    with GcPauses() as gc_pauses:
        plain = _run_stream(sessions, stream, outcome, deadline=t0 + seconds / 2)
    instances = [inst for inst, _, _, _ in plain[::2]]
    caches = [sessions["q1"]._plan_cache, sessions["spatial"]._plan_cache]
    hits0 = sum(c.hits for c in caches)
    lookups0 = sum(c.hits + c.misses for c in caches)
    recorder = Recorder()
    with recorder:
        traced = _run_stream(sessions, instances, outcome, recorder=recorder)
    hits = sum(c.hits for c in caches) - hits0
    lookups = sum(c.hits + c.misses for c in caches) - lookups0
    oracle = Oracle(seed)
    _check(plain, oracle, outcome, seed)
    facts = _canonical_facts(sessions, oracle, outcome)
    metrics = per_layer(traced, recorder, facts)
    metrics.update(view_metrics())
    # The paper's "A&R Space Constraint" set-up (shipdate 24 bits on the
    # device, 8 refined on the CPU): here the approximation is not exact,
    # so candidate precision falls below 1 and refinement filters rows.
    from repro.workloads.tpch import build_tpch_session

    space = build_tpch_session(_configs(seed)[0], space_constrained=True)
    space_facts = _canonical_facts(dict.fromkeys(TPCH_CLASSES, space),
                                   oracle, outcome)
    metrics.update(_fact_metrics({f"{cls}_space": f
                                  for cls, f in space_facts.items()}))
    metrics["runtime.gc_ms"] = gc_pauses.seconds / len(plain) * 1e3
    metrics["opt.plan_cache_hits"] = hits
    metrics["opt.plan_cache_hit_rate"] = hits / lookups if lookups else 0.0
    metrics["bench.trace_overhead"] = geomean(
        median(_times(traced, cls, mode)) / median(_times(plain, cls, mode))
        for cls in CLASSES for mode in ("ar", "classic")
        if _times(traced, cls, mode)
    )
    return outcome, recorder, metrics


def _times(done, cls: str, mode: str) -> list[float]:
    return [dt for inst, m, dt, r in done
            if inst.cls == cls and m == mode and r is not None]


def _class_medians(done, mode: str) -> dict[str, float]:
    out = {}
    for cls in CLASSES:
        times = _times(done, cls, mode)
        if not times:
            raise RuntimeError(f"no completed {mode} {cls} instance in the run")
        out[cls] = median(times) * 1e3
    return out


def end_to_end(done, setup_s: float, rss: float) -> dict:
    ar = _class_medians(done, "ar")
    classic = _class_medians(done, "classic")
    counts = {cls: sum(1 for inst, m, _, _ in done
                       if inst.cls == cls and m == "ar") for cls in CLASSES}
    named = {
        "q1_ms": ar["q1"], "q6_ms": ar["q6"], "q14_ms": ar["q14"],
        "spatial_ms": ar["spatial"], "classic_ms": geomean(classic.values()),
    }
    for cls in CLASSES:
        print(f"{cls:8s} ar {ar[cls]:9.3f} ms  classic {classic[cls]:9.3f} ms  "
              f"ar/classic {ar[cls] / classic[cls]:5.2f}  (n={counts[cls]})")
    for name, value in named.items():
        print(f"named {name} {value:.4f} ms")
    return {
        "setup_s": setup_s,
        "p50_ms": geomean(ar.values()),
        "tail_ms": ar["q1"],
        "side_ms": named["classic_ms"],
        # Statements per second of the nominal class mix, from the class
        # medians, so where the deadline cuts the stream does not matter.
        "ops_per_s": 2 * sum(CYCLE.values()) / sum(
            CYCLE[cls] * (ar[cls] + classic[cls]) / 1e3 for cls in CLASSES),
        "peak_rss_mb": rss,
    }


def per_layer(traced, recorder, facts) -> dict:
    n = len(traced)
    n_ar = sum(1 for _, m, _, _ in traced if m == "ar")
    ar_self = recorder.self_by_name(lambda root: root.startswith("bench.ar."))

    def per_ar(*names: str) -> float:
        return sum(ar_self.get(name, 0.0) for name in names) / n_ar * 1e3

    metrics = {
        "sql.parse_bind_ms":
            recorder.self_by_name().get("sql.parse_bind", 0.0) / n * 1e3,
        "opt.plan_ms": per_ar("opt.plan_for", "opt.rewrite"),
        "engine.ar_glue_ms": per_ar("engine.session_query", "engine.ar_run"),
        "core.approx_ms": per_ar("core.approx"),
        "core.candidates_ms": per_ar("core.candidates"),
        "core.intervals_ms": per_ar("core.intervals"),
        "core.refine_ms": per_ar("core.refine"),
        "core.aggregates_ms": per_ar("core.aggregates"),
        "storage.decode_ms": per_ar("storage.decode"),
        "storage.views_ms": per_ar("storage.views"),
        "device.scatter_ms": per_ar("device.scatter"),
        "device.kernels_ms": per_ar("device.kernels"),
    }
    for cls in CLASSES:
        runs = recorder.inclusive_under("engine.classic_run",
                                        ancestor=f"bench.classic.{cls}")
        metrics[f"engine.classic_{cls}_ms"] = median(runs) * 1e3 if runs else 0.0
    metrics.update(_fact_metrics(facts))
    return metrics


def _fact_metrics(facts: dict) -> dict:
    """``core.<label>.candidate_*`` and ``device.<label>.modeled_*``."""
    metrics = {}
    for label, values in facts.items():
        for key, value in values.items():
            layer = "core" if key.startswith("candidate") else "device"
            metrics[f"{layer}.{label}.{key}"] = value
    return metrics
