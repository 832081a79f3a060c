"""Composable fault profiles and the deterministic, seeded injector.

A :class:`FaultProfile` declares *what can go wrong* — crashed shards,
flaky-first-K fragments, seeded transient dispatch failures, stragglers,
allocator hiccups under memory pressure; a :class:`FaultInjector` owns the
seeded RNG and the per-fragment attempt bookkeeping that turns the profile
into *deterministic* per-attempt fault decisions.  The same seed, profile
and execution order always produce the same faults, so every chaos run is
replayable — the property the byte-identity and soundness tests lean on.

The injector also supports imperative control (:meth:`FaultInjector.crash`
/ :meth:`~FaultInjector.restore` / :meth:`~FaultInjector.slow_next`) for
walkthroughs that kill a shard mid-workload and watch the serving layer
degrade and recover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeviceFailure, TransientAllocationError


@dataclass(frozen=True)
class FaultProfile:
    """What can go wrong, per shard and per fragment attempt.

    Every knob defaults to "healthy"; profiles compose by setting several
    at once.  ``*_shards=None`` means the fault applies to every shard.
    """

    #: Shards that are permanently down: every fragment dispatched to them
    #: raises :class:`~repro.errors.DeviceFailure` (non-transient).
    crash_shards: frozenset[int] = frozenset()
    #: The first K attempts of every fragment fail with a *transient*
    #: :class:`~repro.errors.DeviceFailure`; attempt K+1 succeeds.  The
    #: canonical retry-identity profile (K < max_attempts recovers fully).
    flaky_first_k: int = 0
    #: Restrict flakiness to these shards (None = all shards).
    flaky_shards: frozenset[int] | None = None
    #: Seeded probability that any fragment attempt fails transiently at
    #: dispatch — the chaos-bench sweep's fault-rate axis.
    transient_rate: float = 0.0
    #: Seeded probability that an attempt runs slowed (a straggler): its
    #: timeline spans are scaled by ``straggler_factor``.
    straggler_rate: float = 0.0
    straggler_factor: float = 4.0
    straggler_shards: frozenset[int] | None = None
    #: Seeded probability that a device allocation fails with
    #: :class:`~repro.errors.TransientAllocationError` — but only when the
    #: pool is under pressure (utilization ≥ ``alloc_pressure``).
    alloc_fault_rate: float = 0.0
    #: Minimum pool utilization (allocated/capacity, including the pending
    #: request) for allocator faults to fire; 0.0 = any allocation.
    alloc_pressure: float = 0.0

    def __post_init__(self) -> None:
        for name in ("transient_rate", "straggler_rate", "alloc_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.flaky_first_k < 0:
            raise ValueError("flaky_first_k must be non-negative")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be at least 1.0")
        if not 0.0 <= self.alloc_pressure <= 1.0:
            raise ValueError("alloc_pressure must be in [0, 1]")

    def targets(self, restriction: frozenset[int] | None, shard: int) -> bool:
        return restriction is None or shard in restriction


@dataclass
class AttemptFaults:
    """The injector's verdict for one fragment attempt."""

    #: Raise this before running anything (crash / flaky / transient).
    dispatch_error: DeviceFailure | None = None
    #: Timeline scale of the attempt (1.0 = healthy, > 1.0 = straggler).
    scale: float = 1.0


class FaultInjector:
    """Deterministic fault decisions for a sharded execution.

    One injector serves one :class:`~repro.shard.executor.ShardExecutor`;
    the executor calls :meth:`begin_attempt` once per fragment attempt
    (attempt numbers are tracked per ``(query, shard)`` key, which is what
    makes flaky-first-K well defined under retries) and installs
    :meth:`alloc_hook` on each shard's device pool.
    """

    def __init__(self, profile: FaultProfile, *, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        #: Attempt counters of the current query clock's fragments only:
        #: ``(clock, shard) -> attempts``, dropped when a new clock starts.
        self._attempts: dict[tuple, int] = {}
        self._clock = None
        #: Imperatively crashed / restored shards (layered over the
        #: profile's static ``crash_shards``).
        self._down: set[int] = set(profile.crash_shards)
        #: One-shot straggler factors: shard -> factor for its next attempt.
        self._slow_next: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Imperative control (examples / chaos walkthroughs)
    # ------------------------------------------------------------------
    def crash(self, shard_index: int) -> None:
        """Take a shard down permanently (until :meth:`restore`)."""
        self._down.add(shard_index)

    def restore(self, shard_index: int) -> None:
        """Bring a crashed shard back (profile crashes stay restorable too)."""
        self._down.discard(shard_index)

    def slow_next(self, shard_index: int, factor: float) -> None:
        """Make the shard's next attempt a straggler, scaled by ``factor``."""
        if factor < 1.0:
            raise ValueError("straggler factor must be at least 1.0")
        self._slow_next[shard_index] = factor

    @property
    def down_shards(self) -> frozenset[int]:
        return frozenset(self._down)

    # ------------------------------------------------------------------
    # Executor-facing API
    # ------------------------------------------------------------------
    def begin_attempt(self, shard_index: int, key: tuple) -> AttemptFaults:
        """The verdict for attempt #n of fragment ``key`` on this shard.

        ``key`` identifies the fragment across retries (the executor uses
        a per-query sequence number plus the shard index); each call
        advances that fragment's attempt counter.  A key with a new
        sequence number starts a new query, whose predecessors' counters
        are never read again and are dropped.
        """
        profile = self.profile
        if key[0] != self._clock:
            self._clock = key[0]
            self._attempts.clear()
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        if shard_index in self._down:
            return AttemptFaults(dispatch_error=DeviceFailure(
                f"shard {shard_index} is down",
                shard_index=shard_index, transient=False,
            ))
        if (
            profile.flaky_first_k > 0
            and profile.targets(profile.flaky_shards, shard_index)
            and attempt < profile.flaky_first_k
        ):
            return AttemptFaults(dispatch_error=DeviceFailure(
                f"shard {shard_index}: flaky fragment "
                f"(attempt {attempt + 1} of first {profile.flaky_first_k})",
                shard_index=shard_index, transient=True,
            ))
        if profile.transient_rate > 0.0 and (
            self._rng.random() < profile.transient_rate
        ):
            return AttemptFaults(dispatch_error=DeviceFailure(
                f"shard {shard_index}: transient dispatch failure",
                shard_index=shard_index, transient=True,
            ))
        scale = self._slow_next.pop(shard_index, 1.0)
        if (
            scale == 1.0
            and profile.straggler_rate > 0.0
            and profile.targets(profile.straggler_shards, shard_index)
            and self._rng.random() < profile.straggler_rate
        ):
            scale = profile.straggler_factor
        return AttemptFaults(scale=scale)

    def alloc_hook(self, pool, label: str, nbytes: int) -> None:
        """Fault hook for :class:`~repro.device.memory.MemoryPool`.

        Fires a seeded :class:`~repro.errors.TransientAllocationError`
        only when the pool is under the profile's pressure threshold —
        healthy pools never hiccup.
        """
        profile = self.profile
        if profile.alloc_fault_rate <= 0.0 or pool.capacity is None:
            return
        utilization = (pool.allocated + nbytes) / pool.capacity
        if utilization < profile.alloc_pressure:
            return
        if self._rng.random() < profile.alloc_fault_rate:
            raise TransientAllocationError(
                f"{pool.name}: transient allocation failure for {label!r} "
                f"({nbytes} bytes at {utilization:.0%} utilization)"
            )

    def install(self, pools) -> None:
        """Install :meth:`alloc_hook` on each given device pool."""
        for pool in pools:
            pool.fault_hook = self.alloc_hook

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, down={sorted(self._down)}, "
            f"profile={self.profile})"
        )
