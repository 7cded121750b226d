"""Schema check of the end-to-end benchmark on its ``--quick`` sizes.

Not part of tier-1 (``testpaths = ["tests"]``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``. It asserts the
report's shape and the run's correctness — never a timing.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def run_quick(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--seed", "0", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


@pytest.fixture(scope="module")
def report():
    return json.loads(run_quick())


def _measured(report):
    return {name: entry for name, entry in report["workloads"].items()
            if not isinstance(entry, str)}


def test_names_every_workload(report, contract):
    assert list(report["workloads"]) == [
        w["name"] for w in contract["workloads"]]
    for name, entry in report["workloads"].items():
        # The only acceptable non-result is the honest 1-core skip.
        assert not isinstance(entry, str) or entry == "skipped: 1 core"


def test_host_is_recorded(report):
    host = report["host"]
    assert host["cpu_count"] >= 1 and host["python"] and host["numpy"]
    assert "affinity" in host and "load_avg_start" in host


def test_every_metric_present_with_its_unit(report, contract):
    for name, entry in _measured(report).items():
        for kind in ("end_to_end", "per_layer"):
            for metric in contract[kind]:
                got = entry[kind][metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(got["value"], (int, float))
        assert entry["item_tail"]["samples"] >= 1


def test_nothing_failed(report):
    for name, entry in _measured(report).items():
        assert entry["attempted"] >= 1, name
        assert entry["failed"] == 0, (name, entry["problems"])
        assert entry["end_to_end"]["failed_frac"]["value"] == 0


def test_traced_wall_is_attributed_to_named_layers(report):
    for name, entry in _measured(report).items():
        trace = entry["trace"]
        # Self times along the blocking path add up to the root span by
        # construction; what must stay small is the part of it that no
        # named span covers.
        assert trace["blocking_s"]["bench.unattributed_s"] \
            <= 0.02 * trace["wall_s"], name
        assert abs(sum(trace["shares"].values()) - 1.0) <= 1e-6, name


def test_workloads_stress_the_layers_they_name(report):
    measured = _measured(report)
    churn = measured["unit_churn"]["trace"]["shares"]
    assert churn.get("viz", 0.0) == 0.0
    batch = measured["batch_render"]["trace"]["shares"]
    assert batch["viz"] > 0.8
    if "batch_render_proc2" in measured:
        layers = measured["batch_render_proc2"]["per_layer"]
        assert layers["core.compute_dispatches"]["value"] > 0
    if "fleet_shards2" in measured:
        assert measured["fleet_shards2"]["trace"]["shares"]["parallel"] > 0.9


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_one_workload_ends_with_the_contract_line(contract, trace, kind):
    """``--workload`` is how BENCHMARK.json's command is driven."""
    stdout = run_quick("--workload", "paced_prefetch", "--trace", str(trace))
    line = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in contract[kind]]
    for metric in contract[kind]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
