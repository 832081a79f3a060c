"""Crash faults: graceful degradation with sound bounds; breaker lifecycle.

The second PR-7 acceptance pin: with one shard of four permanently down,
at least 95% of a mixed scan/theta workload returns ``degraded=True``
answers whose exact ungrouped-count intervals are sound — zero hangs,
zero unflagged wrong answers.  Plus the hedging and straggler story and
the circuit breaker's quarantine/probe integration with serving.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IntType
from repro.errors import DeviceFailure
from repro.faults import FaultProfile, RetryPolicy
from repro.serve import handles
from repro.shard import ShardedSession

N = 8_000
M = 400
DOMAIN = 80_000
N_SHARDS = 4


def make_sharded(retry_policy=None, seed=9):
    rng = np.random.default_rng(seed)
    s = ShardedSession(N_SHARDS, retry_policy=retry_policy)
    s.create_table(
        "fact",
        {"v": IntType(), "w": IntType()},
        {
            "v": rng.integers(0, DOMAIN, N).astype(np.int64),
            "w": rng.integers(0, 30, N).astype(np.int64),
        },
    )
    s.create_table(
        "dim", {"p": IntType()},
        {"p": rng.integers(0, DOMAIN, M).astype(np.int64)},
        partition=False,
    )
    s.bwdecompose("fact", "v", 24)
    s.bwdecompose("dim", "p", 24)
    return s


def wide_count(s, lo, hi):
    return s.table("fact").where("v", between=(lo, hi)).count(alias="n")


def theta_count(s, lo, hi):
    return (
        s.table("fact")
        .where("v", between=(lo, hi))
        .theta_join("dim", on=("v", "p"), op="within", delta=64)
        .count(alias="n")
    )


#: Wide windows (≥ half the domain) so every query straddles the dead
#: shard's code band instead of pruning around it.
WINDOWS = [
    (0, DOMAIN // 2), (DOMAIN // 4, 3 * DOMAIN // 4),
    (DOMAIN // 2, DOMAIN), (DOMAIN // 8, 7 * DOMAIN // 8), (0, DOMAIN),
]


class TestDegradedSoundness:
    def test_scan_count_interval_brackets_truth(self):
        healthy = make_sharded()
        crashed = make_sharded()
        crashed.inject_faults(FaultProfile(crash_shards=frozenset({1})))
        for lo, hi in WINDOWS:
            truth = wide_count(healthy, lo, hi).run().scalar("n")
            r = wide_count(crashed, lo, hi).run()
            assert r.degraded
            assert 0.0 < r.shard_coverage < 1.0
            assert r.dead_shards == [1]
            iv = r.approximate.aggregates["n"]
            assert iv.lo <= truth <= iv.hi, (lo, hi)
            # The survivors' exact count is the certain lower bound.
            assert iv.lo == r.scalar("n")

    def test_theta_count_interval_brackets_truth(self):
        healthy = make_sharded()
        crashed = make_sharded()
        crashed.inject_faults(FaultProfile(crash_shards=frozenset({2})))
        for lo, hi in WINDOWS:
            truth = theta_count(healthy, lo, hi).run().scalar("n")
            r = theta_count(crashed, lo, hi).run()
            if not r.degraded:
                continue  # window missed the dead band: exact, fine
            iv = r.approximate.aggregates["n"]
            assert iv.lo <= truth <= iv.hi, (lo, hi)

    def test_all_shards_dead_raises_not_hangs(self):
        crashed = make_sharded()
        crashed.inject_faults(
            FaultProfile(crash_shards=frozenset(range(N_SHARDS)))
        )
        with pytest.raises(DeviceFailure):
            wide_count(crashed, 0, DOMAIN).run()

    def test_degraded_coverage_matches_row_split(self):
        crashed = make_sharded()
        crashed.inject_faults(FaultProfile(crash_shards=frozenset({0})))
        rows = crashed.shard_rows("fact")
        r = wide_count(crashed, 0, DOMAIN).run()
        assert r.shard_coverage == pytest.approx(
            (sum(rows) - rows[0]) / sum(rows)
        )

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        dead=st.integers(0, N_SHARDS - 1),
        lo=st.integers(0, DOMAIN // 2),
        width=st.integers(DOMAIN // 2, DOMAIN),
    )
    def test_crash_interval_soundness_property(self, dead, lo, width):
        healthy = make_sharded()
        crashed = make_sharded()
        crashed.inject_faults(FaultProfile(crash_shards=frozenset({dead})))
        hi = min(lo + width, DOMAIN)
        truth = wide_count(healthy, lo, hi).run().scalar("n")
        r = wide_count(crashed, lo, hi).run()
        if not r.degraded:
            assert r.scalar("n") == truth
            return
        iv = r.approximate.aggregates["n"]
        assert iv.lo <= truth <= iv.hi


class TestAcceptanceNinetyFivePercent:
    def test_mixed_workload_mostly_degraded_never_wrong(self):
        healthy = make_sharded()
        crashed = make_sharded()
        crashed.inject_faults(FaultProfile(crash_shards=frozenset({1})))
        outcomes = []
        for lo, hi in WINDOWS * 2:
            for build, kind in ((wide_count, "scan"), (theta_count, "theta")):
                truth = build(healthy, lo, hi).run().scalar("n")
                r = build(crashed, lo, hi).run()  # completes: no hangs
                outcomes.append(r.degraded)
                if r.degraded:
                    iv = r.approximate.aggregates["n"]
                    assert iv.lo <= truth <= iv.hi, (kind, lo, hi)
                else:
                    # Unflagged answers must be exactly right (the dead
                    # shard was pruned or held no qualifying rows).
                    assert r.scalar("n") == truth, (kind, lo, hi)
        assert sum(outcomes) / len(outcomes) >= 0.95


class TestStragglersAndHedging:
    def test_hedge_restores_ledger_identity(self):
        healthy = make_sharded()
        slow = make_sharded()
        inj = slow.inject_faults(FaultProfile())
        inj.slow_next(3, 50.0)
        clean = wide_count(healthy, 0, DOMAIN).run()
        hedged = wide_count(slow, 0, DOMAIN).run()
        assert hedged.hedged_shards == [3]
        assert (
            hedged.timeline.span_tuples() == clean.timeline.span_tuples()
        )
        assert hedged.recovery_seconds > 0.0  # the loser attempt is billed
        # Completion beats waiting out the straggler by a wide margin.
        assert hedged.wall_clock_seconds < 50.0 * clean.wall_clock_seconds / 2

    def test_hedging_disabled_keeps_slow_ledger(self):
        slow = make_sharded(retry_policy=RetryPolicy(hedge=False))
        inj = slow.inject_faults(FaultProfile())
        inj.slow_next(3, 50.0)
        r = wide_count(slow, 0, DOMAIN).run()
        assert r.hedged_shards == []
        healthy = make_sharded()
        clean = wide_count(healthy, 0, DOMAIN).run()
        assert r.wall_clock_seconds > clean.wall_clock_seconds

    def test_straggler_scale_multiplies_recorded_seconds(self):
        slow = make_sharded(retry_policy=RetryPolicy(hedge=False))
        inj = slow.inject_faults(FaultProfile())
        healthy = make_sharded()
        clean = wide_count(healthy, 0, DOMAIN).run()
        inj.slow_next(0, 7.0)
        r = wide_count(slow, 0, DOMAIN).run()
        assert r.fragment_seconds[0] == pytest.approx(
            7.0 * clean.fragment_seconds[0]
        )
        assert r.fragment_seconds[1:] == pytest.approx(
            clean.fragment_seconds[1:]
        )


class TestBreakerServingIntegration:
    def test_quarantined_shard_leaves_admission_headroom(self):
        s = make_sharded()
        inj = s.inject_faults(FaultProfile())
        inj.crash(2)
        threshold = s.executor._breaker(2).failure_threshold
        for _ in range(threshold):
            wide_count(s, 0, DOMAIN).run()
        assert s.executor.quarantined_shards() == {2}
        with s.serve() as server:
            # The dead pool is excluded from the min-headroom computation.
            healthy_headrooms = [
                shard.machine.gpu.pool.headroom(1.0)
                for shard in s.sharded_catalog.shards
                if shard.index != 2
            ]
            bounded = [h for h in healthy_headrooms if h is not None]
            assert server._batch_budget() == (
                min(bounded) if bounded else None
            )
            h = server.submit(wide_count(s, 0, DOMAIN))
            r = h.result()
            assert r.degraded and h.state == handles.DEGRADED
            assert server.stats.degraded == 1

    def test_breaker_fast_fails_without_retry_budget(self):
        s = make_sharded()
        inj = s.inject_faults(FaultProfile())
        inj.crash(1)
        threshold = s.executor._breaker(1).failure_threshold
        burned = [wide_count(s, 0, DOMAIN).run().retries for _ in range(threshold)]
        assert all(r > 0 for r in burned)  # closed breaker pays retries
        post = wide_count(s, 0, DOMAIN).run()
        assert post.retries == 0  # open breaker: skip instantly
        assert post.degraded

    def test_probe_recovers_after_restore(self):
        s = make_sharded()
        inj = s.inject_faults(FaultProfile())
        inj.crash(3)
        breaker = s.executor._breaker(3)
        for _ in range(breaker.failure_threshold):
            wide_count(s, 0, DOMAIN).run()
        assert breaker.quarantined
        inj.restore(3)
        for _ in range(breaker.cooldown_queries + 1):
            r = wide_count(s, 0, DOMAIN).run()
        assert breaker.state == "closed"
        assert not r.degraded
        healthy = make_sharded()
        clean = wide_count(healthy, 0, DOMAIN).run()
        assert r.timeline.span_tuples() == clean.timeline.span_tuples()
        assert r.scalar("n") == clean.scalar("n")
