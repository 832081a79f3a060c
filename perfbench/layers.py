"""Completes a traced run's per-layer metrics and writes its outputs."""

from __future__ import annotations

import json

from common import ROOT

OUT_DIR = ROOT / ".bench_out"


def per_layer_names() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer"]]


def view_metrics() -> dict:
    """The decoded-view cache now; call while the workload's session lives."""
    from repro.storage.decompose import view_cache_bytes, view_eviction_stats

    return {
        "storage.view_cache_mb": view_cache_bytes() / 2**20,
        "storage.view_evictions": view_eviction_stats()[0],
    }


def finish(recorder, workload: str, seed: int, measured: dict) -> dict:
    """Fill every per-layer metric (0 where this workload does not load the
    layer), add the unattributed share, print the layer self-time table
    and write the Chrome trace."""
    names = per_layer_names()
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise RuntimeError(f"measured metrics missing from BENCHMARK.json: {unknown}")
    metrics = dict.fromkeys(names, 0.0)
    metrics.update(measured)
    table = recorder.layer_table()
    wall = recorder.root_wall()
    metrics["bench.unattributed_share"] = table.get("bench", 0.0) / wall

    print(f"layer self time, {workload} (traced wall {wall * 1e3:.1f} ms)")
    for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
        label = "unattributed" if layer == "bench" else layer
        print(f"  {label:14s} {seconds * 1e3:11.1f} ms  {seconds / wall:7.2%}")
    print(f"  {'sum':14s} {sum(table.values()) * 1e3:11.1f} ms  "
          f"{sum(table.values()) / wall:7.2%}")
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    recorder.write_chrome_trace(path)
    print(f"chrome trace: {path.relative_to(ROOT)} ({len(recorder.spans)} spans)")
    return metrics
