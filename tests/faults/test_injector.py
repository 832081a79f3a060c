"""Unit tests: fault profiles, the seeded injector, the circuit breaker."""

import pytest

from repro.device.memory import MemoryPool
from repro.errors import DeviceFailure, TransientAllocationError
from repro.faults import CircuitBreaker, FaultInjector, FaultProfile, RetryPolicy
from repro.faults.breaker import CLOSED, HALF_OPEN, OPEN


class TestFaultProfile:
    def test_defaults_are_healthy(self):
        p = FaultProfile()
        assert p.crash_shards == frozenset()
        assert p.flaky_first_k == 0
        assert p.transient_rate == 0.0

    @pytest.mark.parametrize("kw", [
        {"transient_rate": 1.5},
        {"straggler_rate": -0.1},
        {"alloc_fault_rate": 2.0},
        {"flaky_first_k": -1},
        {"straggler_factor": 0.5},
        {"alloc_pressure": 1.5},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            FaultProfile(**kw)


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        profile = FaultProfile(transient_rate=0.3, straggler_rate=0.2)

        def decisions(seed):
            inj = FaultInjector(profile, seed=seed)
            out = []
            for q in range(50):
                for s in range(4):
                    f = inj.begin_attempt(s, (q, s))
                    out.append((f.dispatch_error is not None, f.scale))
            return out

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_flaky_first_k_counts_per_fragment(self):
        inj = FaultInjector(FaultProfile(flaky_first_k=2))
        key = (1, 0)
        first = inj.begin_attempt(0, key)
        second = inj.begin_attempt(0, key)
        third = inj.begin_attempt(0, key)
        assert first.dispatch_error is not None
        assert second.dispatch_error is not None
        assert second.dispatch_error.transient
        assert third.dispatch_error is None
        # A different fragment key starts its own attempt count.
        assert inj.begin_attempt(0, (2, 0)).dispatch_error is not None

    def test_flaky_shards_restriction(self):
        inj = FaultInjector(
            FaultProfile(flaky_first_k=1, flaky_shards=frozenset({1}))
        )
        assert inj.begin_attempt(0, (1, 0)).dispatch_error is None
        assert inj.begin_attempt(1, (1, 1)).dispatch_error is not None

    def test_crash_restore(self):
        inj = FaultInjector(FaultProfile())
        assert inj.begin_attempt(2, (1, 2)).dispatch_error is None
        inj.crash(2)
        err = inj.begin_attempt(2, (2, 2)).dispatch_error
        assert isinstance(err, DeviceFailure)
        assert not err.transient
        assert err.shard_index == 2
        inj.restore(2)
        assert inj.begin_attempt(2, (3, 2)).dispatch_error is None

    def test_attempt_counters_stay_bounded_over_a_long_run(self):
        """Counters of finished query clocks are dropped: after 500
        faulted queries the injector holds one query's fragments."""
        import numpy as np

        from repro import IntType
        from repro.shard import ShardedSession

        s = ShardedSession(4)
        values = np.arange(0, 4_000, dtype=np.int64)
        s.create_table("t", {"v": IntType()}, {"v": values})
        s.bwdecompose("t", "v", 16)
        inj = s.inject_faults(FaultProfile(flaky_first_k=1))
        for _ in range(500):
            r = s.table("t").where("v", between=(0, 4_000)).count("n").run()
            assert r.retries == 4 and not r.degraded
        assert len(inj._attempts) <= s.n_shards

    def test_slow_next_is_one_shot(self):
        inj = FaultInjector(FaultProfile())
        inj.slow_next(0, 10.0)
        assert inj.begin_attempt(0, (1, 0)).scale == 10.0
        assert inj.begin_attempt(0, (2, 0)).scale == 1.0
        with pytest.raises(ValueError):
            inj.slow_next(0, 0.5)


class TestAllocHook:
    def test_fires_only_under_pressure(self):
        inj = FaultInjector(
            FaultProfile(alloc_fault_rate=1.0, alloc_pressure=0.5), seed=0
        )
        pool = MemoryPool("gpu0", 1000)
        inj.install([pool])
        pool.allocate("cold", 100)  # 10% utilization: below pressure
        with pytest.raises(TransientAllocationError):
            pool.allocate("hot", 500)  # 60%: the hook fires
        assert not pool.holds("hot")  # the failed allocation left no trace
        assert pool.allocated == 100

    def test_unbounded_pool_never_hiccups(self):
        inj = FaultInjector(
            FaultProfile(alloc_fault_rate=1.0, alloc_pressure=0.0)
        )
        pool = MemoryPool("host", None)
        inj.install([pool])
        pool.allocate("x", 10**9)  # no capacity, no pressure, no fault


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        p = RetryPolicy(backoff_base_seconds=0.001, backoff_multiplier=2.0)
        assert p.backoff_seconds(0) == pytest.approx(0.001)
        assert p.backoff_seconds(1) == pytest.approx(0.002)
        assert p.backoff_seconds(2) == pytest.approx(0.004)

    def test_validation(self):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(PlanError):
            RetryPolicy(deadline_seconds=-1.0)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3, cooldown_queries=5)
        assert b.state == CLOSED
        b.record_failure(1)
        b.record_failure(2)
        assert b.state == CLOSED and b.allow(3)
        b.record_failure(3)
        assert b.state == OPEN and b.quarantined
        assert not b.allow(4)

    def test_success_resets_the_streak(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure(1)
        b.record_success()
        b.record_failure(2)
        assert b.state == CLOSED

    def test_half_open_probe_recovers(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_queries=3)
        b.record_failure(1)
        assert b.state == OPEN
        assert not b.allow(2)  # cooling down
        assert b.allow(4)  # cooldown elapsed: one probe admitted
        assert b.state == HALF_OPEN
        assert not b.allow(4)  # no second fragment during the probe
        b.record_success()
        assert b.state == CLOSED and not b.quarantined

    def test_failed_probe_reopens(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_queries=2)
        b.record_failure(1)
        assert b.allow(3)
        b.record_failure(3)
        assert b.state == OPEN
        assert not b.allow(4)  # a fresh cooldown started at the probe
        assert b.allow(5)
        assert b.opened_count == 2
