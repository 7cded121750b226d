#!/usr/bin/env python3
"""GODIVA end-to-end benchmark: one command, every metric by name.

``run.py --workload W --seed N --seconds S --trace 0|1`` is how
BENCHMARK.json's ``command`` is driven: for S seconds, set up and run
the workload again and again, each repetition in a fresh child process
and checked against an independent reference, then print one JSON
object as the last line of stdout — the end-to-end metrics with
``--trace 0``, the per-layer metrics (traced repetitions alternate
with untraced ones) with ``--trace 1``.

Without ``--workload`` the same measurement is made of every workload
in turn and printed as one report; ``--aa`` makes two sets of five such
runs, alternating, and fails if the sets' medians disagree by more than
a metric's bound; ``--quick``
uses tiny item counts and a single repetition of each kind.

It measures the real pipeline only, from outside: nothing under ``src``
is changed and ``repro.simulate`` is never used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
if not os.path.isdir(os.path.join(REPO, "src", "repro")):
    raise SystemExit(f"{REPO}/src/repro not found: the benchmark measures "
                     "the program in the checkout it is part of")
sys.path.insert(0, os.path.join(REPO, "src"))

import layers      # noqa: E402  (needs the path above)
import workloads   # noqa: E402

DATA_ROOT = os.path.join(REPO, "benchmarks", ".data", "e2e")
#: A run makes at least this many repetitions of each kind (untraced,
#: and traced when tracing) however short its window; --quick makes one.
MIN_REPETITIONS = 3
#: A repetition takes 2-4 s; one still running after this is killed and
#: all its items count as failed.
REP_TIMEOUT_S = 60.0
#: item_tail_ms is the highest percentile with this many samples beyond
#: it, and is left out (reads 0) below twice as many samples.
TAIL_SAMPLES_BEYOND = 10
#: --aa compares the medians of two sets of this many runs each.
AA_RUNS = 5
SHM_DIR = "/dev/shm"


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------

def host_info() -> dict:
    import numpy

    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else [])
    return {
        "cpu_count": os.cpu_count() or 1,
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_avg_start": os.getloadavg()[0],
    }


def usable_cores(host: dict) -> int:
    return len(host["affinity"]) or host["cpu_count"]


# ----------------------------------------------------------------------
# One repetition in a fresh child process
# ----------------------------------------------------------------------

def _godiva_segments() -> set:
    try:
        return {name for name in os.listdir(SHM_DIR)
                if name.startswith("godiva")}
    except OSError:
        return set()


def run_repetition(prep: dict, work_dir: str, index: int,
                   traced: bool) -> dict:
    """Run one repetition; returns its result, or ``{"error": ...}``
    when the child died, timed out or raised."""
    rep_dir = os.path.join(work_dir, f"rep{index:03d}")
    os.makedirs(rep_dir)
    os.makedirs(os.path.join(DATA_ROOT, "traces"), exist_ok=True)
    spec = {
        "prep": prep, "out_dir": os.path.join(rep_dir, "out"),
        "traced": traced,
        "trace_path": os.path.join(
            DATA_ROOT, "traces",
            f"{prep['workload']}-seed{prep['seed']}.json"),
        "result_path": os.path.join(rep_dir, "result.json"),
    }
    spec_path = os.path.join(rep_dir, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    before = _godiva_segments()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--rep", spec_path],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        code = child.wait(timeout=REP_TIMEOUT_S)
        error = None if code == 0 else f"child exited with code {code}"
    except subprocess.TimeoutExpired:
        error = f"timed out after {REP_TIMEOUT_S:.0f} s"
    finally:
        # The child leads its own session: take its workers down too.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    result: dict = {"error": error}
    if error is None:
        with open(spec["result_path"]) as f:
            result = json.load(f)
        result["error"] = None
    result["leaked_segments"] = []
    if prep["workload"] in workloads.NEEDS_TWO_CORES:
        for name in sorted(_godiva_segments() - before):
            result["leaked_segments"].append(name)
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except OSError:
                pass
    shutil.rmtree(rep_dir, ignore_errors=True)
    return result


def child_main(spec_path: str) -> int:
    """``--rep``: run one repetition here and write its result."""
    with open(spec_path) as f:
        spec = json.load(f)
    result = workloads.run(spec["prep"], spec["out_dir"], spec["traced"],
                           spec["trace_path"])
    with open(spec["result_path"], "w") as f:
        json.dump(result, f)
    return 0


# ----------------------------------------------------------------------
# The measuring loop: one workload, one seed, one window
# ----------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, quick: bool,
            traced: bool, host: dict) -> dict:
    """Set up and repeat ``workload`` until ``seconds`` have passed.

    Every repetition starts from a fresh set-up (the dataset generated
    again from the seed into a new directory; ``setup_s`` is the fastest
    of them) and is checked item by item against the reference, which
    is computed once. With ``traced`` every second repetition is the
    traced replay. Every mode of this file measures through here.
    """
    size = workloads.SIZES["quick" if quick else "default"][workload]
    repetitions = (1 if quick else MIN_REPETITIONS) * (2 if traced else 1)
    work_dir = os.path.join(DATA_ROOT, f"run-{os.getpid()}-{workload}")
    os.makedirs(work_dir)
    entry: dict = {"attempted": 0, "failed": 0, "problems": []}
    setups: List[dict] = []
    plain: List[dict] = []       # successful untraced repetitions
    replays: List[dict] = []     # successful traced repetitions
    problems: List[str] = entry["problems"]
    reference = None
    try:
        deadline = time.perf_counter() + seconds
        count, longest = 0, 0.0
        while count < repetitions or \
                time.perf_counter() + longest < deadline:
            started = time.perf_counter()
            set_up_dir = os.path.join(work_dir, f"setup{count}")
            os.makedirs(set_up_dir)
            prep = workloads.set_up(workload, seed, size, set_up_dir)
            prep["setup_s"] = time.perf_counter() - started
            setups.append(prep)
            if reference is None:
                t0 = time.perf_counter()
                reference = workloads.reference(prep, work_dir)
                entry["reference_s"] = time.perf_counter() - t0
                started += entry["reference_s"]
            prep["reference"] = reference
            as_replay = traced and count % 2 == 1
            result = run_repetition(prep, work_dir, count, as_replay)
            shutil.rmtree(set_up_dir)
            items = workloads.items_attempted(prep)
            entry["attempted"] += items
            if result["error"] is not None:
                problems.extend([result["error"]] * items)
            else:
                problems.extend(workloads.check(prep, result))
                problems.extend(f"leaked shared-memory segment {name}"
                                for name in result["leaked_segments"])
                (replays if as_replay else plain).append(result)
            longest = max(longest, time.perf_counter() - started)
            count += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    entry["failed"] = len(problems)
    del problems[20:]
    entry["setup_s"] = [prep["setup_s"] for prep in setups]
    entry["rep_wall_s"] = [rep["wall_s"] for rep in plain]
    if plain:
        entry["end_to_end"] = end_to_end(plain, setups)
    if plain and replays:
        entry["per_layer"] = per_layer(plain, replays, setups, host)
        samples = pooled_items(plain + replays)
        entry["item_tail"] = {"samples": len(samples),
                              "percentile": tail(samples)[1]}
        trace = replays[-1]["trace"]
        entry["trace"] = {"wall_s": trace["wall_s"],
                          "blocking_s": trace["blocking"],
                          "busy_s": trace["busy"],
                          "shares": layers.blocking_shares(replays[-1])}
    return entry


def end_to_end(plain: List[dict], setups: List[dict]) -> Dict[str, float]:
    """The end-to-end metrics of a run's untraced repetitions.

    The reference host is a shared VM whose neighbours slow it by
    1.3-1.8x for anything from a fraction of a second to half an hour,
    so the median of a handful of repetitions says which minute it ran
    in, not how fast the program is. Noise of that kind only ever adds
    time, so each timing is the one the run's best repetition showed:
    the smallest wall, the smallest CPU time, the smallest median item,
    the fastest set-up. Every value reported was observed.
    """
    return {
        "wall_s": min(rep["wall_s"] for rep in plain),
        "cpu_s": min(rep["cpu_s"] for rep in plain),
        "item_p50_ms": min(statistics.median(rep["items_ms"])
                           for rep in plain),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in plain),
        "setup_s": min(prep["setup_s"] for prep in setups),
    }


def per_layer(plain: List[dict], replays: List[dict], setups: List[dict],
              host: dict) -> Dict[str, float]:
    values = layers.median_of([layers.layer_metrics(rep) for rep in replays])
    values["item_tail_ms"] = tail(pooled_items(plain + replays))[0]
    values["gen.generate_s"] = min(prep["generate_s"] for prep in setups)
    values["gen.dataset_mb"] = setups[-1]["dataset_mb"]
    values["bench.host_cores"] = host["cpu_count"]
    values["bench.affinity_cores"] = usable_cores(host)
    values["bench.load_avg_start"] = host["load_avg_start"]
    # Fastest against fastest, for the reason end_to_end gives.
    values["bench.trace_gap_frac"] = (
        min(rep["trace"]["wall_s"] for rep in replays)
        / min(rep["wall_s"] for rep in plain) - 1.0)
    return values


def pooled_items(reps: List[dict]) -> List[float]:
    return [ms for rep in reps for ms in rep["items_ms"]]


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    TAIL_SAMPLES_BEYOND pooled samples beyond it; (0, 0) when there are
    too few samples for one."""
    if len(samples) < 2 * TAIL_SAMPLES_BEYOND:
        return 0.0, 0.0
    rank = len(samples) - TAIL_SAMPLES_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / len(samples)


def skipped(workload: str, host: dict) -> bool:
    return workload in workloads.NEEDS_TWO_CORES and usable_cores(host) < 2


# ----------------------------------------------------------------------
# One workload: what BENCHMARK.json's command runs
# ----------------------------------------------------------------------

def run_one(args, contract: dict) -> int:
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    host = host_info()
    print(f"host: {json.dumps(host)}", flush=True)
    if skipped(args.workload, host):
        print("skipped: 1 core", file=sys.stderr)
        return 3
    entry = measure(args.workload, args.seed, args.seconds, args.quick,
                    bool(args.trace), host)
    for problem in entry["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    if kind not in entry:
        print("no repetition completed", file=sys.stderr)
        return 1
    print(f"set-ups: {json.dumps(entry['setup_s'])}; reference pass "
          f"{entry['reference_s']:.3f} s; walls of the untraced "
          f"repetitions: {json.dumps(entry['rep_wall_s'])}", flush=True)
    if args.trace:
        print(f"item_tail_ms: {json.dumps(entry['item_tail'])}; "
              "blocking-path shares: "
              f"{json.dumps(entry['trace']['shares'])}", flush=True)
    print(json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {m["name"]: {"value": entry[kind][m["name"]],
                                "unit": m["unit"]} for m in contract[kind]},
    }), flush=True)
    return 0


# ----------------------------------------------------------------------
# Every workload in turn: the report, --aa, --quick
# ----------------------------------------------------------------------

def run_set(args, contract: dict, traced: bool) -> dict:
    """One measurement of every workload; the report names each metric
    with its unit."""
    host = host_info()
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    report: dict = {"seed": args.seed, "seconds": args.seconds,
                    "quick": args.quick, "host": host, "workloads": {}}
    for name in (w["name"] for w in contract["workloads"]):
        if skipped(name, host):
            report["workloads"][name] = "skipped: 1 core"
            continue
        entry = measure(name, args.seed, args.seconds, args.quick, traced,
                        host)
        if "end_to_end" in entry:
            entry["end_to_end"]["failed_frac"] = (
                entry["failed"] / entry["attempted"])
        for kind in ("end_to_end", "per_layer"):
            if kind in entry:
                entry[kind] = {
                    metric: {"value": value, "unit": units.get(metric, "1")}
                    for metric, value in entry[kind].items()}
        report["workloads"][name] = entry
    return report


def compare_sets(a: List[dict], b: List[dict], contract: dict
                 ) -> Tuple[List[str], bool]:
    """The A/A table: per workload x end-to-end metric, the medians of
    two sets of runs and their relative difference beside the bound."""
    lines = [f"{'workload':<22} {'metric':<13} {'A':>10} {'B':>10} "
             f"{'diff':>7} {'bound':>6}"]
    ok = True
    for name, first in a[0]["workloads"].items():
        if isinstance(first, str):              # "skipped: 1 core"
            lines.append(f"{name:<22} {first}")
            continue
        entries_a = [report["workloads"][name] for report in a]
        entries_b = [report["workloads"][name] for report in b]
        if not all("end_to_end" in entry for entry in entries_a + entries_b):
            lines.append(f"{name:<22} no result")
            ok = False
            continue
        for metric in contract["end_to_end"]:
            va, vb = (statistics.median(
                entry["end_to_end"][metric["name"]]["value"]
                for entry in entries) for entries in (entries_a, entries_b))
            diff = abs(vb - va) / va
            within = diff <= metric["bound"]
            ok = ok and within
            lines.append(
                f"{name:<22} {metric['name']:<13} {va:>10.4g} {vb:>10.4g} "
                f"{diff:>6.1%} {metric['bound']:>6.0%}"
                + ("" if within else "  EXCEEDED"))
        failed = sum(entry["failed"] for entry in entries_a + entries_b)
        lines.append(f"{name:<22} {'failed':<13} {failed:>10d}")
        ok = ok and failed == 0
    return lines, ok


def run_all(args, contract: dict) -> int:
    if not args.aa:
        report = run_set(args, contract, traced=True)
        print(json.dumps(report, indent=1))
        failed = sum(entry["failed"]
                     for entry in report["workloads"].values()
                     if not isinstance(entry, str))
        return 1 if failed else 0
    # The two sets' runs alternate, so both see the same hours of the host.
    sets = [run_set(args, contract, traced=False)
            for _ in range(2 * AA_RUNS)]
    lines, ok = compare_sets(sets[0::2], sets[1::2], contract)
    print(json.dumps({"A": sets[0::2], "B": sets[1::2]}, indent=1))
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="measure this workload only and end with the "
                             "one-line JSON result")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring window per workload "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny item counts, one repetition of each kind")
    parser.add_argument("--aa", action="store_true",
                        help="two alternating sets of runs of every "
                             "workload, compared against the bounds")
    parser.add_argument("--rep", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rep:
        return child_main(args.rep)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else contract["run_seconds"]
    if args.workload:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    raise SystemExit(main())
