"""The paper's library stands alone: what ``import repro`` loads.

GODIVA ships as "a stand-alone, portable user library" (PAPER.md §1),
and every process that hosts a GBO — a spawned shard host or compute
worker among them — pays this closure on start. Each test imports one
module in a fresh interpreter (the sanitizer off, as by default) and
reads back the ``repro.*`` modules it loaded; ADR-016 records why the
set is what it is.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Everything ``import repro`` loads: the §3 GBO (records, index, units,
#: scheduler, memory, eviction, stats, derived cache, compute plane,
#: arena seam — not the shared-memory arena) and the zero-cost tracked
#: primitives.
PAPER_CLOSURE = frozenset({
    "repro",
    "repro.analysis",
    "repro.analysis.primitives",
    "repro.analysis.races",
    "repro.core",
    "repro.core.arena",
    "repro.core.cache",
    "repro.core.compute",
    "repro.core.config",
    "repro.core.database",
    "repro.core.derived",
    "repro.core.index",
    "repro.core.io_scheduler",
    "repro.core.memory",
    "repro.core.memory_manager",
    "repro.core.record",
    "repro.core.record_engine",
    "repro.core.stats",
    "repro.core.types",
    "repro.core.units",
    "repro.errors",
    "repro.structures",
    "repro.structures.priorityqueue",
})

#: The closure's source lines: 5 827 when pinned (6 079 before the
#: shared-memory arena left it, ADR-017), against the ROADMAP's
#: 6 000 target.
LINE_CEILING = 6_000

#: Tiers and tools the GBO must not drag in: the service and fleet
#: tiers, the process compute backend, the rendering layer, and the
#: checkers' lock facts and lock-order graph.
FORBIDDEN = ("repro.service", "repro.parallel", "repro.viz",
             "repro.core.compute_proc", "repro.core.child",
             "repro.core.shared_arena",
             "repro.analysis.lockfacts", "repro.analysis.lockorder")

_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
loaded = {name: getattr(mod, "__file__", None)
          for name, mod in list(sys.modules.items())
          if name == "repro" or name.startswith("repro.")}
print(json.dumps({"modules": loaded, "asyncio": "asyncio" in sys.modules}))
"""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ANALYSIS"}
    env["PYTHONPATH"] = SRC
    return env


def _load(module: str) -> dict:
    done = subprocess.run([sys.executable, "-c", _PROBE, module],
                          env=_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def closure() -> dict:
    return _load("repro")


def test_import_repro_loads_exactly_the_paper_closure(closure):
    assert set(closure["modules"]) == PAPER_CLOSURE
    assert not closure["asyncio"]


def test_closure_is_under_its_line_ceiling(closure):
    lines = 0
    for path in closure["modules"].values():
        with open(path, encoding="utf-8") as source:
            lines += sum(1 for _ in source)
    assert lines <= LINE_CEILING


def test_closure_loads_no_other_tier(closure):
    assert not [name for name in closure["modules"]
                if any(name == f or name.startswith(f + ".")
                       for f in FORBIDDEN)]


def test_database_module_loads_the_same_closure(closure):
    assert set(_load("repro.core.database")["modules"]) == set(
        closure["modules"])


def test_shard_host_module_loads_no_service_tier():
    """What a spawned shard host imports: the fleet, without the
    multi-tenant service or asyncio."""
    loaded = _load("repro.parallel.sharded")
    assert not [name for name in loaded["modules"]
                if name.startswith("repro.service")]
    assert not loaded["asyncio"]


@pytest.mark.parametrize("package", ["repro", "repro.core"])
def test_no_engine_layer_name_is_exported(package):
    """The engine layer (REP107) is reached through its modules inside
    ``repro.core``, never through a package's public face."""
    module = importlib.import_module(package)
    engine = {"RecordEngine", "MemoryManager", "IoScheduler", "LoadYield"}
    assert not engine & set(module.__all__)
    assert not [name for name in engine if hasattr(module, name)]


def test_viz_package_does_not_load_the_batch_tool():
    """``repro.viz`` serves Voyager's names on first use, so the package
    import leaves ``repro.viz.voyager`` for ``python -m`` to run."""
    assert "repro.viz.voyager" not in _load("repro.viz")["modules"]
    from repro.viz import Voyager, VoyagerConfig, VoyagerResult, voyager

    assert (Voyager, VoyagerConfig, VoyagerResult) == (
        voyager.Voyager, voyager.VoyagerConfig, voyager.VoyagerResult)


def test_voyager_runs_as_a_module_without_runtime_warning():
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.viz.voyager", "--help"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
