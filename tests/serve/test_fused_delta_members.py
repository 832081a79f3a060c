"""Fused batches with delta rows in flight: every member shares the pass.

Exact-mode ``avg`` needs its delta base run with avg lowered into
sum/count partials, and an exact ``min``/``max`` base may find no rows
although delta rows qualify.  Served members of those shapes run on the
session's one query path, like a solo ``run()``, so they fuse with their
``count`` batch mates.  Two pins:

* every served member's columns and Timeline are byte-identical to its
  solo run, single-device and on ``ShardedSession(4)``;
* every fused member consumes the shared cooperative pass (scan hits or
  theta runs) and runs no NumPy compare of its own — including the
  avg-with-delta member whose base executes a re-planned, avg-lowered
  plan.  Answers alone cannot show a dropped share; this test does.
"""

import numpy as np
import pytest

import repro.engine.ar_executor as ar_executor
from repro import IntType, Session
from repro.device.gpu import SimulatedGPU
from repro.shard import ShardedSession

N = 20_000
M = 400
DOMAIN = 40_000
#: The last window lies past every base value: its exact min/max base
#: slice is empty and only the delta rows answer it.
WINDOWS = [(1_000, 2_200), (1_500, 2_000), (DOMAIN + 40, DOMAIN + 70)]
AGGREGATES = {
    "count": lambda b: b.count("n"),
    "avg": lambda b: b.avg("w", "a"),
    "min": lambda b: b.min("w", "lo"),
    "max": lambda b: b.max("w", "hi"),
}


def make_session(kind, seed=31):
    rng = np.random.default_rng(seed)
    s = Session() if kind == "single" else ShardedSession(4)
    s.create_table(
        "fact", {"v": IntType(), "w": IntType()},
        {
            "v": rng.integers(0, DOMAIN, N).astype(np.int64),
            "w": rng.integers(0, 50, N).astype(np.int64),
        },
    )
    right = {"p": rng.integers(0, DOMAIN, M).astype(np.int64)}
    if kind == "single":
        s.create_table("r", {"p": IntType()}, right)
    else:
        s.create_table("r", {"p": IntType()}, right, partition=False)
    s.bwdecompose("fact", "v", 24)
    s.bwdecompose("fact", "w", 24)
    s.bwdecompose("r", "p", 24)
    delta_v = np.concatenate([
        rng.integers(0, DOMAIN, 150), np.arange(DOMAIN + 50, DOMAIN + 60),
    ]).astype(np.int64)
    s.append("fact", {
        "v": delta_v,
        "w": rng.integers(0, 50, delta_v.size).astype(np.int64),
    })
    return s


def scan_members(s):
    return [
        agg(s.table("fact").where("v", between=window))
        for window in WINDOWS
        for agg in AGGREGATES.values()
    ]


def theta_members(s):
    """Whole-column theta blocks sharing the right side ``r.p``."""
    return [
        agg(s.table("fact").theta_join("r", on=("v", "p"), op=op, delta=d))
        for op, d in (("<", 0.0), ("within", 48))
        for agg in (AGGREGATES["count"], AGGREGATES["avg"])
    ]


def assert_identical(solo, served):
    for a, b in zip(solo, served):
        assert a.columns.keys() == b.columns.keys()
        for k in a.columns:
            assert np.array_equal(a.columns[k], b.columns[k]), k
        assert a.timeline.span_tuples() == b.timeline.span_tuples()


def serve_all(s, builders):
    with s.serve(max_batch=16) as server:
        handles = [b.submit(server) for b in builders]
        server.drain()
    return server, [h.result() for h in handles]


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_served_aggregates_with_delta_match_solo(kind):
    s = make_session(kind)
    solo = [b.run() for b in scan_members(s)]
    server, served = serve_all(s, scan_members(s))
    assert server.stats.batches == 1
    assert server.stats.fused_queries == len(served)
    assert s.catalog.tables_with_delta()  # the rows stayed in flight
    assert_identical(solo, served)


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_fused_members_consume_the_shared_scan(kind, monkeypatch):
    s = make_session(kind)
    own_compares = []
    real = SimulatedGPU.scan_code_range

    def spy(self, *args, **kwargs):
        if kwargs.get("precomputed_hits") is None:
            own_compares.append(kwargs.get("op"))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SimulatedGPU, "scan_code_range", spy)
    server, served = serve_all(s, scan_members(s))
    assert server.stats.fused_queries == len(served)
    assert own_compares == []


def test_fused_theta_members_consume_the_shared_runs(monkeypatch):
    s = make_session("single")
    solo = [b.run() for b in theta_members(s)]
    own_sweeps = []
    real = ar_executor.theta_join_approx

    def spy(*args, **kwargs):
        if kwargs.get("precomputed_runs") is None:
            own_sweeps.append(kwargs.get("strategy"))
        return real(*args, **kwargs)

    monkeypatch.setattr(ar_executor, "theta_join_approx", spy)
    server, served = serve_all(s, theta_members(s))
    assert server.stats.fused_theta_queries == len(served)
    assert own_sweeps == []
    assert_identical(solo, served)
