"""Placement-aware serving: the PR-5 scheduler over a sharded catalog.

Same public surface as :class:`~repro.serve.scheduler.Scheduler` (submit /
submit_many / drain / close / stats / context manager) with three
placement-aware twists:

* queries route to the shard(s) holding their columns — the
  :class:`~repro.shard.planner.ShardPlanner` prunes fragments whose code
  band cannot contribute, so a batch member touching one shard leaves the
  other devices idle in the model;
* the device-memory admission budget is the **minimum headroom across
  shards** (a batch must fit on every device its members land on), with
  each member's expected scratch scaled down to its largest shard's share
  of the table's rows;
* same-column selection batches fuse **per shard**: each shard runs ONE
  cooperative pass over its own slice's sorted-code view and every
  member-fragment's candidate positions are carved out of it and injected
  back into the unchanged fragment kernel — per-query Timeline and merged
  Result stay byte-identical to the sharded solo run.

Theta batches run member-by-member (their fragments already share the
replicated right side's memoized views back to back, the PR-5 locality
story; the cross-member fused sweep remains single-device-only).

Everything else is the single-device batch loop, inherited unchanged:
batch forming, plan lookups through the session's plan cache, every
member run through :meth:`ShardedSession._run_query
<repro.shard.session.ShardedSession._run_query>` (the path the sharded
solo ``query()`` takes, pending delta rows included, so served and solo
answers and Timelines agree), and compaction past the delta watermark
between batches.
"""

from __future__ import annotations

from ..engine.cooperative import (
    ScanRequest,
    cooperative_pass_seconds,
    cooperative_scan_hits,
)
from ..plan.physical import ApproxScanSelect
from ..serve.scheduler import AdmissionPolicy, Scheduler, _Pending

__all__ = ["AdmissionPolicy", "ShardScheduler"]


class ShardScheduler(Scheduler):
    """A :class:`Scheduler` whose batches execute across the shards."""

    # ``session`` is a ShardedSession: .catalog is the global planning
    # catalog (what _estimate_scratch_bytes reads); _plan / _run_query are
    # the same hooks the single-device session offers.

    # ------------------------------------------------------------------
    # Admission: budget and scratch become placement-aware
    # ------------------------------------------------------------------
    def _healthy_pools(self) -> list:
        """Device pools of the shards whose circuit breaker is closed.

        Quarantined shards' fragments fast-fail to degraded answers without
        touching device memory, so a dead device must not throttle
        admission for the survivors.
        """
        quarantined = self.session.executor.quarantined_shards()
        return [
            shard.machine.gpu.pool
            for shard in self.session.sharded_catalog.shards
            if shard.index not in quarantined
        ]

    def _batch_budget(self) -> int | None:
        """The scarcest healthy device's scaled free bytes (None = ∞)."""
        fraction = self.policy.device_headroom_fraction
        headrooms = [p.headroom(fraction) for p in self._healthy_pools()]
        bounded = [h for h in headrooms if h is not None]
        return min(bounded) if bounded else None

    def _admission_capacity(self) -> int | None:
        """Fail-fast bound: the smallest healthy shard pool's capacity."""
        capacities = [p.capacity for p in self._healthy_pools()]
        bounded = [c for c in capacities if c is not None]
        if not bounded:
            return None
        return int(min(bounded) * self.policy.device_headroom_fraction)

    def _estimate_scratch_bytes(self, query, mode: str) -> int:
        """Expected per-device scratch: the largest shard's share.

        The solo estimate sizes the candidate output over the full table;
        on a sharded catalog each device sees only its slice, so the
        per-device claim is the estimate scaled by the biggest shard's
        row fraction (replicated tables keep the full-size estimate).
        """
        total = super()._estimate_scratch_bytes(query, mode)
        if total <= 0:
            return total
        catalog = self.session.sharded_catalog
        if not catalog.is_partitioned(query.table):
            return total
        rows = catalog.shard_rows(query.table)
        n = sum(rows)
        if n == 0:
            return 0
        return int(total * max(rows) / n)

    # ------------------------------------------------------------------
    # Batch execution: the shared loop, sharded kernels
    # ------------------------------------------------------------------
    def _run_fused_theta_batch(self, batch: list[_Pending]) -> None:
        """Members run one by one: their fragments already share the
        replicated right side's memoized views back to back; the
        cross-member fused sweep is single-device."""
        for pending in batch:
            self._run_member(pending)

    def _run_fused_scan_batch(self, batch: list[_Pending]) -> None:
        """Per-shard cooperative passes for the batch's shared first scans.

        Looks up every member's sharded plan, then — shard by shard —
        evaluates all member-fragments' first-scan predicates in one pass
        over that shard's sorted-code view and hands each fragment's
        carved positions to the member's run as per-shard ``scan_hits``.
        A member whose fragment on some shard does not open with the
        fingerprint scan (predicate reordering) simply gets no injection
        there; pruned shards contribute no pass at all.
        """
        _, table, column_name = batch[0].group[0]
        catalog = self.session.sharded_catalog
        lowered = self._plan_members(batch)  # (pending, ShardedPlan)
        if not lowered:
            return
        # member index -> shard index -> hits of its fragment's opening scan
        hits_for: dict[int, dict[int, object]] = {}
        for shard in catalog.shards:
            column = shard.catalog.decomposition_of(table, column_name)
            if column is None:
                continue  # empty shard (or never decomposed here)
            requests: list[ScanRequest] = []
            members: list[int] = []  # member index per request
            for i, (_, plan) in enumerate(lowered):
                for fragment in plan.fragments:
                    if fragment.shard_index != shard.index:
                        continue
                    first = (
                        fragment.plan.ops[0]
                        if fragment.plan is not None and fragment.plan.ops
                        else None
                    )
                    if (
                        isinstance(first, ApproxScanSelect)
                        and first.column == column_name
                    ):
                        requests.append(ScanRequest(
                            str(len(members)), first.predicate.vrange
                        ))
                        members.append(i)
            if len(requests) < 2:
                continue  # nothing on this shard to share
            hits_by_label = cooperative_scan_hits(column, requests)
            total_hits = sum(h.size for h in hits_by_label.values())
            self.stats.modeled_fused_scan_seconds += cooperative_pass_seconds(
                shard.machine.gpu, column, len(requests), total_hits
            )
            for label, i in enumerate(members):
                hits = hits_by_label[str(label)]
                hits_for.setdefault(i, {})[shard.index] = hits
                # What this member's fragment would bill for its solo scan
                # on this shard — the baseline of the modeled sharing gain.
                self.stats.modeled_solo_scan_seconds += (
                    cooperative_pass_seconds(
                        shard.machine.gpu, column, 1, hits.size
                    )
                )
        if hits_for:
            self.stats.fused_batches += 1
            self.stats.fused_queries += len(hits_for)
        for i, (pending, plan) in enumerate(lowered):
            self._run_member(pending, plan, scan_hits=hits_for.get(i))
