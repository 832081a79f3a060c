"""Tracing from outside the program, for the benchmark's traced runs.

Nothing under ``src/`` is edited: each layer's public entry points are
wrapped where their callers look the name up (every module attribute bound
to the same function object, or the class attribute for methods), and the
originals are put back when the run ends.  Spans live in memory as
``[name, start, end, parent, query id]`` and are written out once, as a
Chrome-trace JSON that opens in Perfetto.

A span's self time is its duration minus the part its child spans cover;
the benchmark's own root spans (``bench.*``) hold what no layer span covers,
so layer self times plus the unattributed share sum to the traced wall.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Span name -> entry points it wraps, as "module:attr" or
#: "module:Class.method".  The layer is the span name's first component.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "sql.parse_bind": (
        "repro.sql.parser:parse",
        "repro.sql.binder:bind",
    ),
    "opt.plan_for": (
        "repro.engine.session:Session.plan_for",
        "repro.serve.scheduler:Scheduler._plan_for",
    ),
    "opt.rewrite": ("repro.plan.rewriter:rewrite_to_ar_plan",),
    "engine.session_query": ("repro.engine.session:Session.query",),
    "engine.ar_run": ("repro.engine.ar_executor:ArExecutor.run",),
    "engine.classic_run": ("repro.engine.bulk:ClassicExecutor.run",),
    "engine.cooperative": (
        "repro.engine.cooperative:cooperative_scan_hits",
        "repro.engine.cooperative:cooperative_theta_runs",
    ),
    "core.approx": (
        "repro.core.approximate:select_approx",
        "repro.core.approximate:select_approx_narrow",
        "repro.core.approximate:project_approx",
        "repro.core.approximate:fk_join_approx",
        "repro.core.approximate:select_on_payload_approx",
        "repro.core.approximate:certain_mask",
        "repro.core.approximate:minmax_approx",
        "repro.core.approximate:sum_approx",
        "repro.core.approximate:count_approx",
        "repro.core.approximate:avg_approx",
        "repro.core.grouping:group_approx",
        "repro.core.grouping:group_approx_from_keys",
        "repro.core.theta:theta_join_approx",
    ),
    "core.candidates": (
        "repro.core.candidates:Approximation.narrowed",
        "repro.core.candidates:Approximation.with_payload",
        "repro.core.candidates:PairCandidates.narrowed",
        "repro.core.candidates:RunPairCandidates.narrowed",
        "repro.core.candidates:RunPairCandidates.rows_narrowed",
        "repro.core.intervals:IntervalColumn.take",
    ),
    "core.intervals": (
        "repro.core.intervals:IntervalColumn.__init__",
        "repro.core.intervals:IntervalColumn.exact",
        "repro.core.intervals:IntervalColumn.from_bounds",
        "repro.core.intervals:IntervalColumn.add",
        "repro.core.intervals:IntervalColumn.sub",
        "repro.core.intervals:IntervalColumn.neg",
        "repro.core.intervals:IntervalColumn.mul",
        "repro.core.intervals:IntervalColumn.floordiv",
        "repro.core.intervals:IntervalColumn.power",
        "repro.core.intervals:IntervalColumn.add_scalar",
        "repro.core.intervals:IntervalColumn.mul_scalar",
        "repro.core.intervals:IntervalColumn.is_exact",
        "repro.core.intervals:IntervalColumn.sum_interval",
        "repro.core.intervals:IntervalColumn.min_interval",
        "repro.core.intervals:IntervalColumn.max_interval",
        "repro.core.intervals:IntervalColumn.mean_interval",
    ),
    "core.refine": (
        "repro.core.refine:ship_candidates",
        "repro.core.refine:ship_pairs",
        "repro.core.refine:select_refine",
        "repro.core.refine:project_refine",
        "repro.core.refine:fk_join_refine",
        "repro.core.refine:align_via_translucent",
        "repro.core.refine:reconstruct_exact",
        "repro.core.refine:sum_refine",
        "repro.core.refine:count_refine",
        "repro.core.refine:avg_refine",
        "repro.core.refine:minmax_refine",
        "repro.core.grouping:group_refine",
        "repro.core.theta:theta_join_refine",
        "repro.core.pair_agg:pair_rows",
        "repro.core.pair_agg:group_pair_rows",
        "repro.core.pair_agg:ungrouped_pair_gids",
        "repro.core.pair_agg:pair_result_columns",
        "repro.core.pair_agg:aggregate_pairs",
        "repro.core.pair_agg:right_run_partials",
        "repro.core.pair_agg:aggregate_pairs_right",
    ),
    "core.aggregates": (
        "repro.core.aggregates:grouped_sum",
        "repro.core.aggregates:grouped_count",
        "repro.core.aggregates:grouped_min",
        "repro.core.aggregates:grouped_max",
        "repro.core.aggregates:grouped_avg",
        "repro.core.aggregates:grouped_sum_interval",
        "repro.core.aggregates:grouped_count_interval",
    ),
    "storage.views": (
        "repro.storage.decompose:BwdColumn.approx_codes",
        "repro.storage.decompose:BwdColumn.approx_codes_i64",
        "repro.storage.decompose:BwdColumn.approx_at",
        "repro.storage.decompose:BwdColumn.residuals",
        "repro.storage.decompose:BwdColumn.sort_permutation",
        "repro.storage.decompose:BwdColumn.sorted_approx_codes",
        "repro.storage.decompose:BwdColumn.residual_at",
        "repro.storage.decompose:BwdColumn.reconstruct",
    ),
    "storage.decode": (
        "repro.storage.bitpack:unpack_codes",
        "repro.storage.bitpack:unpack_codes_range",
        "repro.storage.bitpack:gather_codes",
    ),
    "device.scatter": ("repro.device.gpu:scrambled_like_parallel_scatter",),
    "device.kernels": (
        "repro.device.gpu:SimulatedGPU.scan_code_range",
        "repro.device.gpu:SimulatedGPU.refine_positions_code_range",
        "repro.device.gpu:SimulatedGPU.gather_codes",
        "repro.device.gpu:SimulatedGPU.full_scan_codes",
        "repro.device.gpu:SimulatedGPU.hash_group",
        "repro.device.gpu:SimulatedGPU.minmax_candidates",
        "repro.device.gpu:SimulatedGPU.elementwise",
        "repro.device.gpu:SimulatedGPU.reduce",
    ),
    "serve.submit": (
        "repro.serve.scheduler:Scheduler.submit",
        "repro.serve.scheduler:Scheduler.submit_write",
    ),
    "serve.execute": (
        "repro.serve.handles:QueryHandle.result",
        "repro.serve.scheduler:Scheduler.drain",
    ),
    "ingest.append": (
        "repro.engine.session:Session.append",
        "repro.shard.session:ShardedSession.append",
    ),
    "ingest.compact": (
        "repro.engine.session:Session.compact",
        "repro.shard.session:ShardedSession.compact",
    ),
    "ingest.delta_union": (
        "repro.ingest.union:run_with_delta",
        "repro.ingest.union:apply_delta",
        "repro.shard.session:ShardedSession._query_with_delta",
    ),
    "shard.session_query": ("repro.shard.session:ShardedSession.query",),
    "shard.plan": ("repro.shard.planner:ShardPlanner.plan",),
    "shard.execute": ("repro.shard.executor:ShardExecutor.execute",),
}


def _import_all_repro() -> None:
    """Import every ``repro`` module so that each alias of an entry point
    is bound before patching (lazy in-function imports read the defining
    module's attribute at call time, which is patched too)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Set by the benchmark before each operation; stamped on its spans.
        self.qid = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.qid])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrapper(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(idx)

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        _import_all_repro()
        for name, targets in ENTRY_POINTS.items():
            for target in targets:
                self._install_one(name, target)

    def _install_one(self, name: str, target: str) -> None:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrapper(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self._wrapper(name, raw.__func__))
            elif isinstance(raw, property):
                patched = property(self._wrapper(name, raw.fget))
            elif callable(raw):
                patched = self._wrapper(name, raw)
            else:
                raise TypeError(f"cannot trace {target}: {type(raw).__name__}")
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, patched)
            return
        original = getattr(module, attr)
        patched = self._wrapper(name, original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, patched)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self seconds (duration minus child coverage)."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def roots(self) -> list[int]:
        """Index of each span's root span."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(i if s[3] < 0 else out[s[3]])
        return out

    def self_by_name(self, root_filter=None) -> dict[str, float]:
        """Self seconds per span name, optionally only under root spans
        whose name passes ``root_filter``."""
        totals: dict[str, float] = defaultdict(float)
        roots = self.roots() if root_filter is not None else None
        for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
            if roots is not None and not root_filter(self.spans[roots[i]][0]):
                continue
            totals[s[0]] += own
        return dict(totals)

    def root_wall(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def inclusive_under(self, name: str, ancestor: str | None = None) -> list[float]:
        """Durations of spans called ``name`` (optionally only those with an
        ``ancestor``-named span above them)."""
        out = []
        for s in self.spans:
            if s[0] != name:
                continue
            if ancestor is not None and not self._has_ancestor(s, ancestor):
                continue
            out.append(s[2] - s[1])
        return out

    def _has_ancestor(self, span: list, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            p = self.spans[parent]
            if p[0] == name:
                return True
            parent = p[3]
        return False

    def layer_table(self) -> dict[str, float]:
        """Self seconds per layer; ``bench`` is the unattributed remainder."""
        table: dict[str, float] = defaultdict(float)
        for name, own in self.self_by_name().items():
            table[name.split(".")[0]] += own
        return dict(table)

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (complete events), Perfetto-compatible."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": s[0], "cat": s[0].split(".")[0], "ph": "X",
                "ts": round((s[1] - t0) * 1e6, 3),
                "dur": round((s[2] - s[1]) * 1e6, 3),
                "pid": 1, "tid": 1,
                "args": {"query": s[4], "parent": s[3], "index": i},
            }
            for i, s in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}
        ))

