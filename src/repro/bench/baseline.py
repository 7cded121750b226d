"""Bench-regression guard: compare current results to committed baselines.

Seeds the bench trajectory: a snapshot of the micro-bench means and the
derived-cache bench metrics lives in ``benchmarks/baselines/``, and CI
fails when a current run regresses more than the tolerance (default
25 %).

Wall-clock seconds are not comparable across machines, so time metrics
are compared *calibrated*: divided by :func:`calibration_seconds` (a
fixed numpy workload timed on the same host). Ratio/count metrics —
the derived cache's speedup and hit counts are deterministic functions
of the workload — compare directly.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.bench.derived import calibration_seconds

#: Default allowed fractional regression before the guard fails.
DEFAULT_TOLERANCE = 0.25

MICRO_BASELINE = "core_micro.json"
DERIVED_BASELINE = "derived_cache.json"
SERVICE_BASELINE = "service_tenants.json"
SHARDED_BASELINE = "sharded_gbo.json"
COMPUTE_PROC_BASELINE = "compute_proc.json"

#: pytest-benchmark artifact name expected in the results directory.
MICRO_RESULTS = "benchmark_core_micro.json"
DERIVED_RESULTS = "BENCH_derived_cache.json"
SERVICE_RESULTS = "BENCH_service_tenants.json"
SHARDED_RESULTS = "BENCH_sharded_gbo.json"
COMPUTE_PROC_RESULTS = "BENCH_compute_proc.json"


def _read_json(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def distill_micro(benchmark_payload: dict) -> Dict[str, float]:
    """pytest-benchmark JSON -> {test name: mean seconds}."""
    return {
        bench["name"]: float(bench["stats"]["mean"])
        for bench in benchmark_payload.get("benchmarks", [])
    }


def distill_derived(payload: dict) -> Dict[str, float]:
    """BENCH_derived_cache.json -> the guarded scalar metrics."""
    rows = {row["scenario"]: row for row in payload["scenarios"]}
    return {
        "speedup_compute": float(payload["speedup_compute"]),
        "bit_identical": bool(payload["bit_identical"]),
        "derived_hits_on": float(rows["cache_on"]["derived_hits"]),
        "squeezed_evictions": float(
            rows["squeezed"]["derived_evictions"]
        ),
        "compute_wall_on_s": float(rows["cache_on"]["compute_wall_s"]),
        "calibration_s": float(payload["calibration_s"]),
    }


def distill_service(payload: dict) -> Dict[str, float]:
    """BENCH_service_tenants.json -> the guarded scalar metrics."""
    fairness = payload["fairness"]
    scale = payload["async_scale"]
    thrash = fairness["tenants"].get("thrash", {})
    return {
        "isolation_held": bool(fairness["isolation_held"]),
        "unfair_evictions": float(
            fairness["total_unfair_evictions"]
            + scale["unfair_evictions"]
        ),
        "thrash_evictions": float(thrash.get("evictions", 0)),
        "clients_served": float(scale["clients_served"]),
        "sessions_leaked": float(scale["sessions_leaked"]),
        "scale_wall_s": float(scale["wall_s"]),
        "calibration_s": float(payload["calibration_s"]),
    }


def distill_sharded(payload: dict) -> Dict[str, float]:
    """BENCH_sharded_gbo.json -> the guarded scalar metrics."""
    rows = {row["scenario"]: row for row in payload["scenarios"]}
    four = rows["sharded4"]
    return {
        "bit_identical": bool(payload["bit_identical"]),
        "sweep_speedup_4": float(payload["sweep_speedup_4"]),
        "n_frames_4": float(four["n_frames"]),
        "pressure_rounds_4": float(four["pressure_rounds"]),
        "wall_sharded4_s": float(four["wall_s"]),
        "calibration_s": float(payload["calibration_s"]),
    }


def distill_compute_proc(payload: dict) -> Dict[str, float]:
    """BENCH_compute_proc.json -> the guarded scalar metrics."""
    rows = {row["scenario"]: row for row in payload["scenarios"]}
    proc = rows["process4"]
    return {
        "bit_identical": bool(payload["bit_identical"]),
        "sim_speedup_process4": float(payload["sim_speedup_process4"]),
        "sim_speedup_thread4": float(payload["sim_speedup_thread4"]),
        "compute_dispatches_proc4": float(proc["compute_dispatches"]),
        "compute_wall_proc4_s": float(proc["compute_wall_s"]),
        "calibration_s": float(payload["calibration_s"]),
    }


def update_baselines(results_dir: str, baselines_dir: str) -> List[str]:
    """Rewrite the baselines from the current results; returns the
    files written (skips artifacts that were not produced)."""
    os.makedirs(baselines_dir, exist_ok=True)
    written: List[str] = []
    micro = _read_json(os.path.join(results_dir, MICRO_RESULTS))
    if micro is not None:
        path = os.path.join(baselines_dir, MICRO_BASELINE)
        with open(path, "w") as f:
            json.dump(
                {
                    "calibration_s": calibration_seconds(),
                    "benches": distill_micro(micro),
                },
                f, indent=1, sort_keys=True,
            )
        written.append(path)
    derived = _read_json(os.path.join(results_dir, DERIVED_RESULTS))
    if derived is not None:
        path = os.path.join(baselines_dir, DERIVED_BASELINE)
        with open(path, "w") as f:
            json.dump(distill_derived(derived), f, indent=1,
                      sort_keys=True)
        written.append(path)
    service = _read_json(os.path.join(results_dir, SERVICE_RESULTS))
    if service is not None:
        path = os.path.join(baselines_dir, SERVICE_BASELINE)
        with open(path, "w") as f:
            json.dump(distill_service(service), f, indent=1,
                      sort_keys=True)
        written.append(path)
    sharded = _read_json(os.path.join(results_dir, SHARDED_RESULTS))
    if sharded is not None:
        path = os.path.join(baselines_dir, SHARDED_BASELINE)
        with open(path, "w") as f:
            json.dump(distill_sharded(sharded), f, indent=1,
                      sort_keys=True)
        written.append(path)
    compute_proc = _read_json(
        os.path.join(results_dir, COMPUTE_PROC_RESULTS)
    )
    if compute_proc is not None:
        path = os.path.join(baselines_dir, COMPUTE_PROC_BASELINE)
        with open(path, "w") as f:
            json.dump(distill_compute_proc(compute_proc), f, indent=1,
                      sort_keys=True)
        written.append(path)
    return written


def compare_micro(results_dir: str, baselines_dir: str,
                  tolerance: float) -> List[str]:
    """Calibrated-mean comparison of every baselined micro bench."""
    baseline = _read_json(os.path.join(baselines_dir, MICRO_BASELINE))
    current = _read_json(os.path.join(results_dir, MICRO_RESULTS))
    if baseline is None:
        return []
    if current is None:
        return [f"missing current micro results {MICRO_RESULTS!r} "
                f"(run bench_core_micro with --benchmark-json)"]
    failures: List[str] = []
    calib_base = baseline["calibration_s"]
    calib_now = calibration_seconds()
    means_now = distill_micro(current)
    for name, mean_base in sorted(baseline["benches"].items()):
        mean_now = means_now.get(name)
        if mean_now is None:
            failures.append(
                f"micro bench {name!r} is baselined but was not run "
                f"(update the baseline if it was removed)"
            )
            continue
        norm_base = mean_base / calib_base
        norm_now = mean_now / calib_now
        if norm_now > norm_base * (1.0 + tolerance):
            failures.append(
                f"micro bench {name!r} regressed: calibrated mean "
                f"{norm_now:.3f} vs baseline {norm_base:.3f} "
                f"(> +{tolerance:.0%})"
            )
    return failures


def compare_derived(results_dir: str, baselines_dir: str,
                    tolerance: float) -> List[str]:
    """Derived-cache bench comparison (ratios/counts + calibrated
    compute wall)."""
    baseline = _read_json(os.path.join(baselines_dir, DERIVED_BASELINE))
    current_payload = _read_json(
        os.path.join(results_dir, DERIVED_RESULTS)
    )
    if baseline is None:
        return []
    if current_payload is None:
        return [f"missing current results {DERIVED_RESULTS!r} "
                f"(run bench_derived_cache)"]
    current = distill_derived(current_payload)
    failures: List[str] = []
    if not current["bit_identical"]:
        failures.append(
            "derived cache no longer bit-identical to the uncached "
            "pipeline"
        )
    if current["squeezed_evictions"] <= 0:
        failures.append(
            "squeezed-budget scenario no longer evicts cache entries"
        )
    for key in ("speedup_compute", "derived_hits_on"):
        floor = baseline[key] * (1.0 - tolerance)
        if current[key] < floor:
            failures.append(
                f"derived metric {key!r} regressed: {current[key]:.2f} "
                f"vs baseline {baseline[key]:.2f} (> -{tolerance:.0%})"
            )
    norm_base = (
        baseline["compute_wall_on_s"] / baseline["calibration_s"]
    )
    norm_now = current["compute_wall_on_s"] / current["calibration_s"]
    if norm_now > norm_base * (1.0 + tolerance):
        failures.append(
            f"derived cache_on calibrated compute wall regressed: "
            f"{norm_now:.2f} vs baseline {norm_base:.2f} "
            f"(> +{tolerance:.0%})"
        )
    return failures


def compare_service(results_dir: str, baselines_dir: str,
                    tolerance: float) -> List[str]:
    """Service bench comparison: fairness invariants are exact,
    client scale may only grow, the asyncio wall is calibrated."""
    baseline = _read_json(os.path.join(baselines_dir, SERVICE_BASELINE))
    current_payload = _read_json(
        os.path.join(results_dir, SERVICE_RESULTS)
    )
    if baseline is None:
        return []
    if current_payload is None:
        return [f"missing current results {SERVICE_RESULTS!r} "
                f"(run bench_service_tenants)"]
    current = distill_service(current_payload)
    failures: List[str] = []
    if not current["isolation_held"]:
        failures.append("per-tenant budget isolation no longer holds")
    if current["unfair_evictions"] > 0:
        failures.append(
            f"{current['unfair_evictions']:.0f} unfair evictions "
            "(baseline invariant is zero)"
        )
    if current["sessions_leaked"] > 0:
        failures.append(
            f"{current['sessions_leaked']:.0f} sessions leaked after "
            "the asyncio scale run"
        )
    if current["thrash_evictions"] <= 0:
        failures.append(
            "thrash tenant no longer churns — the fairness workload "
            "stopped exercising eviction"
        )
    if current["clients_served"] < baseline["clients_served"]:
        failures.append(
            f"asyncio clients served dropped: "
            f"{current['clients_served']:.0f} vs baseline "
            f"{baseline['clients_served']:.0f}"
        )
    norm_base = baseline["scale_wall_s"] / baseline["calibration_s"]
    norm_now = current["scale_wall_s"] / current["calibration_s"]
    if norm_now > norm_base * (1.0 + tolerance):
        failures.append(
            f"asyncio scale calibrated wall regressed: "
            f"{norm_now:.2f} vs baseline {norm_base:.2f} "
            f"(> +{tolerance:.0%})"
        )
    return failures


def compare_sharded(results_dir: str, baselines_dir: str,
                    tolerance: float) -> List[str]:
    """Sharded-GBO bench comparison: bit-identity and the >= 2x sweep
    bar are exact, the 4-shard wall is calibrated."""
    baseline = _read_json(os.path.join(baselines_dir, SHARDED_BASELINE))
    current_payload = _read_json(
        os.path.join(results_dir, SHARDED_RESULTS)
    )
    if baseline is None:
        return []
    if current_payload is None:
        return [f"missing current results {SHARDED_RESULTS!r} "
                f"(run bench_sharded_gbo)"]
    current = distill_sharded(current_payload)
    failures: List[str] = []
    if not current["bit_identical"]:
        failures.append(
            "sharded frames no longer bit-identical to the serial GBO"
        )
    if current["sweep_speedup_4"] < 2.0:
        failures.append(
            f"simulated 4-shard aggregate throughput "
            f"{current['sweep_speedup_4']:.2f}x dropped below the "
            f"2x acceptance bar"
        )
    floor = baseline["sweep_speedup_4"] * (1.0 - tolerance)
    if current["sweep_speedup_4"] < floor:
        failures.append(
            f"sharded metric 'sweep_speedup_4' regressed: "
            f"{current['sweep_speedup_4']:.2f} vs baseline "
            f"{baseline['sweep_speedup_4']:.2f} (> -{tolerance:.0%})"
        )
    if current["n_frames_4"] != baseline["n_frames_4"]:
        failures.append(
            f"4-shard run rendered {current['n_frames_4']:.0f} frames "
            f"vs baseline {baseline['n_frames_4']:.0f}"
        )
    norm_base = (
        baseline["wall_sharded4_s"] / baseline["calibration_s"]
    )
    norm_now = (
        current["wall_sharded4_s"] / current["calibration_s"]
    )
    # The fleet wall is dominated by process spawn + interpreter
    # startup, which the CPU calibration workload does not model and
    # which swings with host load — triple the single-process
    # tolerance so only a genuine blow-up (not spawn noise) trips.
    wall_tolerance = 3.0 * tolerance
    if norm_now > norm_base * (1.0 + wall_tolerance):
        failures.append(
            f"4-shard calibrated wall regressed: {norm_now:.2f} vs "
            f"baseline {norm_base:.2f} (> +{wall_tolerance:.0%})"
        )
    return failures


def compare_compute_proc(results_dir: str, baselines_dir: str,
                         tolerance: float) -> List[str]:
    """Compute-plane bench comparison: bit-identity and the >= 3x
    simulated process/4 bar are exact, the process-backend compute
    wall is calibrated with a spawn-noise-tolerant bar."""
    baseline = _read_json(
        os.path.join(baselines_dir, COMPUTE_PROC_BASELINE)
    )
    current_payload = _read_json(
        os.path.join(results_dir, COMPUTE_PROC_RESULTS)
    )
    if baseline is None:
        return []
    if current_payload is None:
        return [f"missing current results {COMPUTE_PROC_RESULTS!r} "
                f"(run bench_compute_proc)"]
    current = distill_compute_proc(current_payload)
    failures: List[str] = []
    if not current["bit_identical"]:
        failures.append(
            "process-backend frames no longer bit-identical to the "
            "serial renderer"
        )
    if current["compute_dispatches_proc4"] <= 0:
        failures.append(
            "process backend dispatched no tasks to worker processes "
            "— the token path is no longer exercised"
        )
    if current["sim_speedup_process4"] < 3.0:
        failures.append(
            f"simulated process/4 compute speedup "
            f"{current['sim_speedup_process4']:.2f}x dropped below "
            f"the 3x acceptance bar"
        )
    if (current["sim_speedup_thread4"]
            >= current["sim_speedup_process4"]):
        failures.append(
            "simulated thread/4 no longer trails process/4 — the GIL "
            "model inverted"
        )
    floor = baseline["sim_speedup_process4"] * (1.0 - tolerance)
    if current["sim_speedup_process4"] < floor:
        failures.append(
            f"compute_proc metric 'sim_speedup_process4' regressed: "
            f"{current['sim_speedup_process4']:.2f} vs baseline "
            f"{baseline['sim_speedup_process4']:.2f} "
            f"(> -{tolerance:.0%})"
        )
    norm_base = (
        baseline["compute_wall_proc4_s"] / baseline["calibration_s"]
    )
    norm_now = (
        current["compute_wall_proc4_s"] / current["calibration_s"]
    )
    # Worker-process spawn and interpreter startup dominate small runs
    # and swing with host load — same tripled tolerance as the sharded
    # fleet wall, so only a genuine blow-up (not spawn noise) trips.
    wall_tolerance = 3.0 * tolerance
    if norm_now > norm_base * (1.0 + wall_tolerance):
        failures.append(
            f"process/4 calibrated compute wall regressed: "
            f"{norm_now:.2f} vs baseline {norm_base:.2f} "
            f"(> +{wall_tolerance:.0%})"
        )
    return failures


def compare_all(results_dir: str, baselines_dir: str,
                tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """All guards; returns the list of regression descriptions."""
    return (
        compare_micro(results_dir, baselines_dir, tolerance)
        + compare_derived(results_dir, baselines_dir, tolerance)
        + compare_service(results_dir, baselines_dir, tolerance)
        + compare_sharded(results_dir, baselines_dir, tolerance)
        + compare_compute_proc(results_dir, baselines_dir, tolerance)
    )
