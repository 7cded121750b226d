"""Per-layer metrics of one traced repetition.

Layer = module name (``io``, ``core``, ``viz``, ``parallel``, ``gen``)
plus ``bench`` for the harness itself. Timed metrics come from the
spans the harness put around public calls; counts come from the
program's public counters (``gbo.stats.snapshot()``, ``IoStats``,
``ShardedResult``). A metric a workload cannot produce — a layer it
never enters, or a counter invisible from outside — reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

MB = 1e6

#: Span / aggregate names reported as their inclusive seconds.
TIMED = (
    "io.read_fn_s", "io.open_s", "io.read_into_s",
    "core.gbo_open_s", "core.gbo_close_s", "core.add_unit_s",
    "core.wait_unit_s", "core.finish_unit_s", "core.delete_unit_s",
    "core.record_insert_s", "core.query_s",
    "viz.begin_s", "viz.extract_s", "viz.draw_s", "viz.image_s",
    "viz.encode_s", "viz.view_s",
    "parallel.fleet_open_s", "parallel.render_all_s",
    "parallel.copy_out_s", "parallel.fleet_close_s",
    "bench.unattributed_s",
)

#: per-layer name -> gbo.stats.snapshot() key, value passed through.
_STAT_COUNTS = {
    "core.visible_io_s": "visible_io_seconds",
    "core.io_worker_busy_s": "io_thread_read_seconds",
    "core.io_worker_blocked_s": "io_thread_blocked_seconds",
    "core.units_prefetched": "units_prefetched",
    "core.units_read_foreground": "units_read_foreground",
    "core.units_reloaded": "units_reloaded",
    "core.evictions": "evictions",
    "core.load_yields": "load_yields",
    "core.wait_hits": "wait_hits",
    "core.wait_misses": "wait_misses",
    "core.queue_depth_peak": "queue_depth_peak",
    "core.derived_hits": "derived_hits",
    "core.derived_misses": "derived_misses",
    "core.derived_evictions": "derived_evictions",
    "core.compute_tasks": "compute_tasks",
    "core.compute_steals": "compute_steals",
    "core.compute_dispatches": "compute_dispatches",
    "core.compute_fallback_inline": "compute_fallback_inline",
    "core.compute_task_s": "compute_task_seconds",
}

#: per-layer name -> stats key holding bytes, reported in MB.
_STAT_MB = {
    "core.mem_high_water_mb": "mem_high_water_bytes",
    "core.derived_mb": "derived_bytes",
    "core.compute_token_mb": "compute_token_bytes",
    "core.compute_result_token_mb": "compute_result_token_bytes",
}

_IO_COUNTS = {
    "io.bytes_read": "bytes_read", "io.read_calls": "read_calls",
    "io.seeks": "seeks", "io.settles": "settles",
    "io.virtual_s": "virtual_seconds",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(result: dict) -> Dict[str, float]:
    """Every per-layer metric one traced repetition can give (the
    ``gen.*`` and host metrics are the parent's to add)."""
    trace = result["trace"]
    inclusive, counts = trace["inclusive"], trace["counts"]
    stats, io, extra = result["stats"], result["io"], result["extra"]
    out: Dict[str, float] = {name: inclusive.get(name, 0.0)
                             for name in TIMED}
    for name, key in _STAT_COUNTS.items():
        out[name] = stats.get(key, 0)
    for name, key in _STAT_MB.items():
        out[name] = stats.get(key, 0) / MB
    for name, key in _IO_COUNTS.items():
        out[name] = io.get(key, 0)
    out["io.read_mb_s"] = _ratio(out["io.bytes_read"] / MB,
                                 out["io.read_fn_s"])
    out["core.record_insert_us_per_buffer"] = 1e6 * _ratio(
        out["core.record_insert_s"], counts.get("core.record_insert_s", 0))
    out["core.query_us_per_call"] = 1e6 * _ratio(
        out["core.query_s"], extra.get("queries", 0))
    out["core.wait_hit_ratio"] = _ratio(
        out["core.wait_hits"], out["core.wait_hits"] + out["core.wait_misses"])
    out["core.derived_hit_ratio"] = _ratio(
        out["core.derived_hits"],
        out["core.derived_hits"] + out["core.derived_misses"])
    out["core.compute_inline_ratio"] = _ratio(
        out["core.compute_steals"], out["core.compute_tasks"])
    triangles = result["outputs"].get("triangles") or sum(
        sum(per_op)
        for per_op in result["outputs"].get("op_triangles", {}).values())
    out["viz.triangles"] = triangles
    out["viz.us_per_triangle"] = 1e6 * _ratio(
        out["viz.extract_s"] + out["viz.draw_s"], triangles)
    hits = extra.get("view_hits", [])
    for name, wanted in (("viz.view_hit_p50_ms", True),
                         ("viz.view_miss_p50_ms", False)):
        times = [ms for ms, hit in zip(result["items_ms"], hits)
                 if hit is wanted]
        out[name] = statistics.median(times) if times else 0.0
    for name in ("parallel.shard_visible_io_s", "parallel.shard_io_busy_s",
                 "parallel.frames_max_over_mean", "parallel.pressure_rounds",
                 "parallel.reclaims", "parallel.frame_token_mb"):
        out[name] = extra.get(name, 0.0)
    return out


def blocking_shares(result: dict) -> Dict[str, float]:
    """Each layer's share of the traced wall along the main thread's
    blocking path; the shares (``bench`` included) sum to 1."""
    trace = result["trace"]
    shares: Dict[str, float] = {}
    for name, seconds in trace["blocking"].items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + seconds
    return {layer: _ratio(seconds, trace["wall_s"])
            for layer, seconds in sorted(shares.items())}


def median_of(metric_dicts: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over several traced repetitions."""
    return {name: statistics.median(d[name] for d in metric_dicts)
            for name in metric_dicts[0]}
