"""Sharded serving with pending delta rows: the shared serve loop's delta
handling (fused-batch fold, watermark compaction) reaches the shards.

A fused per-shard batch must fold in-flight delta rows exactly as the
sharded solo ``query()`` does — same answers, same per-query Timeline —
and a scheduler whose writes pass the delta watermark must compact.
"""

import numpy as np

from repro import IntType
from repro.serve.scheduler import AdmissionPolicy
from repro.shard import ShardedSession, ShardScheduler

N = 8_000
DOMAIN = 50_000
#: Nested windows inside one code band, so every shard they touch sees all
#: three members and the batch fuses.
WINDOWS = [(0, 12_000), (3_000, 9_000), (5_000, 6_500)]


def make_sharded(seed=13):
    rng = np.random.default_rng(seed)
    s = ShardedSession(4)
    base = rng.integers(0, DOMAIN, N).astype(np.int64)
    s.create_table("events", {"value": IntType()}, {"value": base})
    s.bwdecompose("events", "value", 24)
    return s, base


def count_query(s, window):
    return s.table("events").where("value", between=window).count("n")


def recount(values, window):
    lo, hi = window
    return int(((values >= lo) & (values <= hi)).sum())


def test_fused_batch_folds_pending_delta():
    s, base = make_sharded()
    # 50 delta rows inside every window, so a dropped fold shows.
    delta = np.linspace(5_000, 6_500, 50).astype(np.int64)
    s.append("events", {"value": delta})
    everything = np.concatenate([base, delta])

    solo = [count_query(s, w).run(mode="ar") for w in WINDOWS]
    with s.serve(max_batch=8) as server:
        handles = [count_query(s, w).submit(server) for w in WINDOWS]
        served = [h.result() for h in handles]
        assert server.stats.fused_batches == 1
        assert server.stats.fused_queries == len(WINDOWS)

    for window, a, b in zip(WINDOWS, solo, served):
        truth = recount(everything, window)
        assert a.scalar("n") == truth
        assert b.scalar("n") == truth
        assert a.timeline.span_tuples() == b.timeline.span_tuples()
        assert a.wall_clock_seconds == b.wall_clock_seconds


def test_sharded_scheduler_compacts_past_watermark():
    s, base = make_sharded()
    server = ShardScheduler(s, AdmissionPolicy(delta_watermark=100))
    extra = np.arange(0, 15_000, 100, dtype=np.int64)  # 150 rows
    server.submit_write("events", {"value": extra})
    handle = count_query(s, WINDOWS[0]).submit(server)
    result = handle.result()
    server.close()

    assert server.stats.compactions == 1
    assert not s.catalog.tables_with_delta()
    assert result.scalar("n") == recount(
        np.concatenate([base, extra]), WINDOWS[0]
    )
