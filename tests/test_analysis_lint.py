"""repro-lint: each rule on synthetic sources, baseline mechanics, and
the repo-cleanliness gate CI enforces."""

import os

import pytest

from repro.analysis import lint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC = '"""Module docstring."""\n'


def rules(source, path="src/repro/somewhere.py"):
    return [v.rule for v in lint.lint_source(source, path)]


class TestRep101BareThreadingPrimitives:
    def test_threading_attribute_call_flagged(self):
        src = DOC + "import threading\nLOCK = threading.Lock()\n"
        assert rules(src) == ["REP101"]

    def test_imported_name_call_flagged(self):
        src = DOC + (
            "from threading import Condition\n"
            "COND = Condition()\n"
        )
        assert rules(src) == ["REP101"]

    def test_aliased_import_flagged(self):
        src = DOC + (
            "from threading import Lock as Mutex\n"
            "LOCK = Mutex()\n"
        )
        assert rules(src) == ["REP101"]

    def test_all_primitive_kinds_flagged(self):
        src = DOC + "import threading\n" + "\n".join(
            f"V{i} = threading.{kind}()" for i, kind in enumerate(
                ("Lock", "RLock", "Condition", "Semaphore")
            )
        ) + "\n"
        assert rules(src) == ["REP101"] * 4

    def test_analysis_package_is_exempt(self):
        src = DOC + "import threading\nLOCK = threading.Lock()\n"
        assert rules(src, "src/repro/analysis/primitives.py") == []

    def test_tracked_factories_are_clean(self):
        src = DOC + (
            "from repro.analysis.primitives import TrackedLock\n"
            "LOCK = TrackedLock()\n"
        )
        assert rules(src) == []


class TestRep102WaitOutsideWhile:
    def test_bare_wait_flagged(self):
        src = DOC + "def _f(cond):\n    cond.wait()\n"
        assert rules(src) == ["REP102"]

    def test_attribute_receiver_flagged(self):
        src = DOC + (
            "class _C:\n"
            "    def _g(self):\n"
            "        self._cond.wait(1.0)\n"
        )
        assert rules(src) == ["REP102"]

    def test_wait_inside_while_is_clean(self):
        src = DOC + (
            "def _f(cond, ready):\n"
            "    while not ready():\n"
            "        cond.wait()\n"
        )
        assert rules(src) == []

    def test_nested_def_does_not_inherit_while(self):
        src = DOC + (
            "def _f(cond):\n"
            "    while True:\n"
            "        def _g():\n"
            "            cond.wait()\n"
        )
        assert rules(src) == ["REP102"]

    def test_non_condition_receiver_ignored(self):
        src = DOC + "def _f(queue):\n    queue.wait()\n"
        assert rules(src) == []


class TestRep103PaperAliases:
    def test_camelcase_definition_flagged(self):
        src = DOC + "def addUnit() -> None:\n    pass\n"
        assert rules(src) == ["REP103"]

    def test_alias_call_flagged(self):
        src = DOC + "def _f(gbo):\n    gbo.waitUnit('u')\n"
        assert rules(src) == ["REP103"]

    def test_snake_case_is_clean(self):
        src = DOC + "def _f(gbo):\n    gbo.wait_unit('u')\n"
        assert rules(src) == []

    def test_alias_table_covers_figure1_interfaces(self):
        # The three interface groups of Figure 1 plus the schema and
        # memory calls — and none of them survives on the GBO.
        from repro.core.database import GBO

        for name in ("defineField", "defineRecord", "insertField",
                     "commitRecordType", "newRecord", "allocFieldBuffer",
                     "commitRecord", "getFieldBuffer",
                     "getFieldBufferSize", "addUnit", "readUnit",
                     "waitUnit", "finishUnit", "deleteUnit",
                     "cancelUnit", "setMemSpace"):
            assert name in lint.PAPER_ALIAS_NAMES
            assert not hasattr(GBO, name)


class TestRep104MutableDefaults:
    @pytest.mark.parametrize("default", ["[]", "{}", "dict()", "set()",
                                         "[x for x in ()]"])
    def test_mutable_default_flagged(self, default):
        src = DOC + f"def _f(arg={default}):\n    return arg\n"
        assert rules(src) == ["REP104"]

    def test_keyword_only_default_flagged(self):
        src = DOC + "def _f(*, arg=[]):\n    return arg\n"
        assert rules(src) == ["REP104"]

    def test_none_default_is_clean(self):
        src = DOC + "def _f(arg=None):\n    return arg\n"
        assert rules(src) == []


class TestRep105Docstrings:
    def test_missing_module_docstring(self):
        assert rules("X = 1\n") == ["REP105"]

    def test_public_class_needs_docstring(self):
        src = DOC + "class Widget:\n    pass\n"
        assert rules(src) == ["REP105"]

    def test_public_function_needs_docstring(self):
        src = DOC + "def run(x: int) -> int:\n    return x + 1\n"
        assert rules(src) == ["REP105"]

    def test_private_and_trivial_defs_exempt(self):
        src = DOC + (
            "def _helper(x):\n"
            "    return x\n"
            "def stub() -> None:\n"
            "    ...\n"
        )
        assert rules(src) == []


class TestRep106Annotations:
    def test_missing_parameter_annotation_reported_by_name(self):
        src = DOC + (
            "def run(count) -> int:\n"
            '    """Doc."""\n'
            "    return count\n"
        )
        violations = lint.lint_source(src, "src/repro/x.py")
        assert [v.rule for v in violations] == ["REP106"]
        assert "count" in violations[0].message

    def test_missing_return_annotation_reported(self):
        src = DOC + (
            "def run(count: int):\n"
            '    """Doc."""\n'
            "    return count\n"
        )
        violations = lint.lint_source(src, "src/repro/x.py")
        assert [v.rule for v in violations] == ["REP106"]
        assert "return" in violations[0].message

    def test_self_and_properties_exempt(self):
        src = DOC + (
            "class Widget:\n"
            '    """Doc."""\n'
            "    def size(self, n: int) -> int:\n"
            '        """Doc."""\n'
            "        return n\n"
            "    @property\n"
            "    def name(self):\n"
            '        """Doc."""\n'
            "        return 'w'\n"
        )
        assert rules(src) == []


class TestRep107EngineImports:
    def test_engine_module_import_flagged(self):
        src = DOC + (
            "from repro.core.record_engine import RecordEngine\n"
        )
        violations = lint.lint_source(src, "src/repro/viz/x.py")
        assert [v.rule for v in violations] == ["REP107"]
        assert "repro.api" in violations[0].message

    def test_leaked_engine_name_from_core_flagged(self):
        src = DOC + (
            "from repro.core import GBO, MemoryManager\n"
        )
        violations = lint.lint_source(src, "src/repro/viz/x.py")
        assert [v.rule for v in violations] == ["REP107"]
        assert "MemoryManager" in violations[0].message

    def test_plain_module_import_flagged(self):
        src = DOC + "import repro.core.io_scheduler\n"
        assert rules(src, "src/repro/viz/x.py") == ["REP107"]

    def test_facade_imports_are_clean(self):
        src = DOC + (
            "from repro.core import GBO\n"
            "from repro.core.units import UnitHandle\n"
        )
        assert rules(src, "src/repro/viz/x.py") == []

    @pytest.mark.parametrize("path, expected", [
        ("src/repro/core/database.py", []),
        # A session is a GBO facade: the service needs no engine layer.
        ("src/repro/service/service.py", ["REP107"]),
    ], ids=["src/repro/core/database.py", "src/repro/service/service.py"])
    def test_only_core_exempt(self, path, expected):
        src = DOC + (
            "from repro.core.memory_manager import MemoryManager\n"
        )
        assert rules(src, path) == expected


class TestRep107ArenaImports:
    """The arena seam's blessed surface is wider than the engine's —
    the parallel layer and the API facade allocate directly — but the
    rendering layer must stay arena-agnostic."""

    def test_viz_arena_import_flagged(self):
        src = DOC + "from repro.core.arena import SharedMemoryArena\n"
        violations = lint.lint_source(src, "src/repro/viz/image.py")
        assert [v.rule for v in violations] == ["REP107"]
        assert "arena-agnostic" in violations[0].message

    def test_viz_arena_submodule_import_flagged(self):
        src = DOC + "from repro.core import arena\n"
        assert rules(src, "src/repro/viz/x.py") == ["REP107"]

    def test_viz_plain_arena_import_flagged(self):
        src = DOC + "import repro.core.arena\n"
        assert rules(src, "src/repro/viz/x.py") == ["REP107"]

    @pytest.mark.parametrize("path", [
        "src/repro/core/database.py",
        "src/repro/service/service.py",
        "src/repro/parallel/sharded.py",
        "src/repro/api.py",
    ])
    def test_blessed_surface_exempt(self, path):
        src = DOC + "from repro.core.arena import HeapArena\n"
        assert rules(src, path) == []


class TestRep108EngineTimeAndIo:
    def test_time_sleep_in_core_flagged(self):
        src = DOC + (
            "import time\n"
            "def _f():\n"
            "    time.sleep(0.1)\n"
        )
        assert rules(src, "src/repro/core/x.py") == ["REP108"]

    def test_bare_open_in_core_flagged(self):
        src = DOC + (
            "def _f(path):\n"
            "    with open(path) as f:\n"
            "        return f.read()\n"
        )
        assert rules(src, "src/repro/core/x.py") == ["REP108"]

    def test_outside_core_is_clean(self):
        src = DOC + (
            "import time\n"
            "def _f(path):\n"
            "    time.sleep(0.1)\n"
            "    return open(path)\n"
        )
        assert rules(src, "src/repro/io/x.py") == []
        assert rules(src, "src/repro/gen/x.py") == []

    def test_injected_seams_are_clean(self):
        src = DOC + (
            "class _C:\n"
            "    def _f(self):\n"
            "        self._clock.sleep(0.1)\n"
            "        return self._read(4)\n"
        )
        assert rules(src, "src/repro/core/x.py") == []


class TestRep109GuardedFieldCoverage:
    def test_unregistered_uncontracted_field_flagged(self):
        src = DOC + (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
        )
        violations = lint.lint_source(src, "src/repro/x.py")
        assert [v.rule for v in violations] == ["REP109"]
        assert violations[0].symbol == "Widget._items"

    def test_registered_field_is_clean(self):
        src = DOC + (
            "@guarded_by('_units', lock='_lock')\n"
            "class UnitStore:\n"
            '    """Doc."""\n'
        )
        assert rules(src) == []

    def test_lock_held_contract_covers_field(self):
        src = DOC + (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
            "    def _get(self):\n"
            '        """Read the items. Lock held."""\n'
            "        return self._items\n"
        )
        assert rules(src) == []

    def test_undecorated_class_is_clean(self):
        src = DOC + "class Widget:\n" + '    """Doc."""\n'
        assert rules(src) == []


class TestRep110EngineKnobDefaults:
    def test_redeclared_defaults_flagged(self):
        """A parameter (positional or keyword-only) and a dataclass
        field, each named like an EngineConfig field and defaulted."""
        src = DOC + (
            "def _open(mem_mb, io_workers=1, *, compute_backend='thread'):\n"
            "    return mem_mb\n"
            "class _Spec:\n"
            "    derived_cache: bool = True\n"
        )
        violations = lint.lint_source(src, "src/repro/viz/x.py")
        assert [v.rule for v in violations] == ["REP110"] * 3
        assert [v.symbol for v in violations] == [
            "_open.io_workers", "_open.compute_backend",
            "_Spec.derived_cache",
        ]

    def test_forwarding_tiers_are_clean(self):
        """Forwarded keywords, a required parameter of a knob's name, a
        tier's own budget *amount*, and the declaration itself."""
        src = DOC + (
            "def _open(mem_mb=384.0, **engine):\n"
            "    return _build(io_workers=2, **engine)\n"
            "def _scheduler(io_workers, budget_bytes):\n"
            "    return io_workers\n"
            "class _Spec:\n"
            "    config: object\n"
            "    render: bool = True\n"
        )
        assert rules(src, "src/repro/viz/x.py") == []
        declared = DOC + "class _Config:\n    io_workers: int = 1\n"
        assert rules(declared, "src/repro/core/config.py") == []
        assert rules(declared, "src/repro/simulate/runner.py") == []

    def test_knob_names_are_the_dataclass_fields(self):
        import dataclasses

        from repro.core.config import EngineConfig

        assert lint.ENGINE_KNOB_NAMES == {
            f.name for f in dataclasses.fields(EngineConfig)
        }


class TestRep111OneSpawnSite:
    @pytest.mark.parametrize("source", [
        "import multiprocessing\nP = multiprocessing.Process(target=print)\n",
        "import multiprocessing as mp\nQ = mp.Queue()\n",
        "import multiprocessing\nCTX = multiprocessing.get_context('spawn')\n",
        "import multiprocessing.pool\nP = multiprocessing.pool.Pool(2)\n",
        "from multiprocessing import Pipe\nA, B = Pipe()\n",
        "from multiprocessing import SimpleQueue as SQ\nQ = SQ()\n",
        "from multiprocessing.pool import Pool\nP = Pool(2)\n",
        "def _f():\n    from multiprocessing import get_context\n"
        "    return get_context()\n",
    ])
    def test_process_or_channel_construction_flagged(self, source):
        assert rules(DOC + source) == ["REP111"]

    def test_child_module_and_other_names_are_clean(self):
        spawn = DOC + (
            "import multiprocessing\n"
            "CTX = multiprocessing.get_context('spawn')\n"
        )
        assert rules(spawn, "src/repro/core/child.py") == []
        # Not multiprocessing: the thread-side queue, the simulator's
        # own Process and ProcessorPool, shared memory and the tracker.
        others = DOC + (
            "import queue\n"
            "from multiprocessing import resource_tracker, shared_memory\n"
            "from repro.simulate.engine import Process\n"
            "from repro.simulate.resources import ProcessorPool\n"
            "Q = queue.SimpleQueue()\n"
            "P = Process()\n"
            "POOL = ProcessorPool(2)\n"
            "SHM = shared_memory.SharedMemory(name='x')\n"
            "resource_tracker.ensure_running()\n"
        )
        assert rules(others) == []

    @pytest.mark.parametrize("source", [
        "from repro.core.child import Child\n"
        "C = Child(print, name='c', start_method='spawn')\n",
        "from repro.core import compute_proc\n"
        "P = compute_proc.ProcessComputePool(2, start_method='fork')\n",
    ])
    def test_literal_start_method_flagged(self, source):
        assert rules(DOC + source) == ["REP111"]

    def test_default_or_passed_through_start_method_is_clean(self):
        source = DOC + (
            "from repro.core.child import Child\n"
            "from repro.core.compute_proc import ProcessComputePool\n"
            "A = Child(print, name='a')\n"
            "B = Child(print, name='b', start_method=None)\n"
            "P = ProcessComputePool(2)\n"
            "def _make(pool):\n"
            "    \"\"\"D.\"\"\"\n"
            "    return Child(print, name='c',\n"
            "                 start_method=pool._start_method)\n"
        )
        assert rules(source) == []


def _def(name, body="return 1"):
    """A documented, annotated module-level function."""
    return f"def {name}() -> int:\n    '''D.'''\n    {body}\n"


class TestRep112Reachability:
    """Seeded repositories: a ``pyproject.toml`` whose one console
    script is ``repro.cli:main``, ``src/repro`` modules, and optional
    ``examples/`` and ``benchmarks/`` files."""

    @staticmethod
    def unreached(tmp_path, modules, examples="", benchmarks="",
                  lint_path="src/repro"):
        (tmp_path / "pyproject.toml").write_text(
            '[project]\nname = "repro"\n\n'
            '[project.scripts]\ntool = "repro.cli:main"\n\n'
            '[tool.setuptools]\npackage-dir = { "" = "src" }\n'
        )
        files = {"src/repro/__init__.py": DOC,
                 "src/repro/cli.py": DOC + _def("main", "return 0")}
        files.update(modules)
        if examples:
            files["examples/demo.py"] = examples
        if benchmarks:
            files["benchmarks/bench_demo.py"] = benchmarks
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        return sorted(
            v.symbol for v in lint.lint_paths([str(tmp_path / lint_path)])
            if v.rule == "REP112"
        )

    def test_dead_function_flagged(self, tmp_path):
        assert self.unreached(
            tmp_path, {"src/repro/mod.py": DOC + _def("orphan")}
        ) == ["orphan"]

    def test_script_and_top_level_statements_reach(self, tmp_path):
        cli = DOC + "from repro.mod import helper\n" + _def(
            "main", "return helper()")
        mod = DOC + _def("helper") + (
            "class Registered:\n    '''D.'''\n"
            "REGISTRY = {'r': Registered}\n"
        )
        assert self.unreached(tmp_path, {
            "src/repro/cli.py": cli, "src/repro/mod.py": mod,
        }) == []

    def test_examples_and_benchmarks_are_entry_points(self, tmp_path):
        assert self.unreached(
            tmp_path, {"src/repro/mod.py": DOC + _def("shown")
                       + _def("measured")},
            examples="from repro.mod import shown\nshown()\n",
            benchmarks=("import repro.mod\n\n\n"
                        "def test_it():\n    repro.mod.measured()\n"),
        ) == []

    def test_entry_dirs_found_whatever_path_is_linted(self, tmp_path):
        assert self.unreached(
            tmp_path, {"src/repro/mod.py": DOC + _def("shown")
                       + _def("orphan"),
                       "src/repro/other.py": DOC + _def("gone")},
            examples="from repro.mod import shown\nshown()\n",
            lint_path="src/repro/mod.py",
        ) == ["orphan"]

    def test_init_reexport_and_all_are_not_uses(self, tmp_path):
        init = DOC + (
            "from repro.mod import exported\n"
            "__all__ = ['exported']\n"
        )
        assert self.unreached(tmp_path, {
            "src/repro/__init__.py": init,
            "src/repro/mod.py": DOC + _def("exported"),
        }) == ["exported"]

    def test_use_from_dead_code_does_not_reach(self, tmp_path):
        mod = DOC + _def("dead", "return helper()") + _def("helper")
        assert self.unreached(
            tmp_path, {"src/repro/mod.py": mod}) == ["dead", "helper"]

    def test_string_naming_a_function_reaches_it(self, tmp_path):
        cli = DOC + _def(
            "main", "return dispatch('repro.mod:named_task')"
        ) + "def dispatch(spec: str) -> int:\n    '''D.'''\n    return 0\n"
        assert self.unreached(tmp_path, {
            "src/repro/cli.py": cli,
            "src/repro/mod.py": DOC + _def("named_task"),
        }) == []

    def test_exempt_packages_are_not_reported(self, tmp_path):
        assert self.unreached(tmp_path, {
            "src/repro/analysis/tool.py": DOC + _def(
                "unused_tool", "return core_helper()"),
            "src/repro/simulate/model.py": DOC + _def("unused_model"),
            "src/repro/core/helpers.py": DOC + _def("core_helper"),
        }) == []

    def test_baseline_holds_no_rep112_key(self):
        baseline = lint.load_baseline(
            os.path.join(REPO_ROOT, ".repro-lint-baseline.json"))
        assert baseline
        assert not [key for key in baseline if key.startswith("REP112:")]


class TestBaseline:
    def test_violation_key_is_line_number_free(self):
        src = DOC + "def run(count) -> int:\n    '''D.'''\n    return 1\n"
        (violation,) = lint.lint_source(src, "src/repro/x.py")
        assert violation.key == "REP106:src/repro/x.py:run"
        shifted = DOC + "\n\n" + src[len(DOC):]
        (moved,) = lint.lint_source(shifted, "src/repro/x.py")
        assert moved.key == violation.key
        assert moved.line != violation.line

    def test_round_trip(self, tmp_path):
        src = DOC + "import threading\nLOCK = threading.Lock()\n"
        violations = lint.lint_source(src, "src/repro/x.py")
        baseline_path = str(tmp_path / "baseline.json")
        lint.write_baseline(baseline_path, violations)
        assert lint.load_baseline(baseline_path) == {
            v.key for v in violations
        }

    def test_load_missing_baseline_is_empty(self, tmp_path):
        assert lint.load_baseline(str(tmp_path / "nope.json")) == set()

    def test_main_fails_on_new_then_passes_after_update(
        self, tmp_path, capsys
    ):
        module = tmp_path / "mod.py"
        module.write_text(DOC + "import threading\n"
                          "LOCK = threading.Lock()\n")
        baseline = str(tmp_path / "baseline.json")
        argv = [str(module), "--baseline", baseline]
        assert lint.main(argv) == 1
        assert "REP101" in capsys.readouterr().out
        assert lint.main(argv + ["--update-baseline"]) == 0
        assert lint.main(argv) == 0
        # A new violation alongside the baselined one still fails.
        module.write_text(module.read_text()
                          + "def _f(x=[]):\n    return x\n")
        assert lint.main(argv) == 1
        out = capsys.readouterr().out
        assert "REP104" in out and "1 baselined" in out

    def test_no_baseline_flag_reports_everything(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(DOC + "import threading\n"
                          "LOCK = threading.Lock()\n")
        baseline = str(tmp_path / "baseline.json")
        argv = [str(module), "--baseline", baseline]
        assert lint.main(argv + ["--update-baseline"]) == 0
        assert lint.main(argv + ["--no-baseline"]) == 1


class TestFileDiscovery:
    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text(DOC)
        (tmp_path / "pkg" / "a.py").write_text(DOC)
        (tmp_path / "pkg" / "notes.txt").write_text("x")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython.py").write_text("")
        found = [os.path.basename(p)
                 for p in lint.iter_python_files([str(tmp_path)])]
        assert found == ["a.py", "b.py"]


class TestRepoCleanliness:
    def test_src_repro_is_clean_with_committed_baseline(
        self, monkeypatch
    ):
        """The same gate CI runs: zero new violations over src/repro."""
        monkeypatch.chdir(REPO_ROOT)
        assert lint.main([]) == 0
