"""``repro-lint`` — custom AST lint rules for the GODIVA codebase.

Beyond generic style (ruff already runs in CI), this enforces the
repo-specific concurrency and API conventions that reviews kept
re-litigating by hand:

=======  ==============================================================
Rule     Meaning
=======  ==============================================================
REP101   No bare ``threading.Lock()``/``RLock()``/``Condition()``/
         ``Semaphore()`` outside :mod:`repro.analysis` — use the
         :func:`~repro.analysis.primitives.TrackedLock` /
         :func:`~repro.analysis.primitives.TrackedCondition` factories
         so the sanitizer can see every lock.
REP102   ``<something named *cond*>.wait(...)`` must be lexically inside
         a ``while`` loop: condition waits without a predicate re-check
         are lost-wakeup bugs waiting to happen.
REP103   No camelCase paper aliases (``addUnit``, ``defineField``, …)
         defined or called — the paper's C++ spellings left the
         library; :data:`PAPER_ALIAS_NAMES` is the list.
REP104   No mutable default arguments (list/dict/set literals,
         comprehensions, or constructor calls).
REP105   Public modules, classes, functions and methods need docstrings.
REP106   Public functions and methods need complete type annotations
         (every parameter and the return type).
REP107   No engine-layer imports (``RecordEngine``, ``UnitStore``,
         ``MemoryManager``, ``IoScheduler``, ``LoadYield``) outside
         :mod:`repro.core` — clients, the service among them, go
         through the blessed API (:mod:`repro.api`: ``GBO``,
         ``GodivaService``/``ServiceSession``). The arena seam
         (:mod:`repro.core.arena`) has a slightly wider blessed
         surface — the parallel layer and the API facade build on it
         directly — but rendering code (``repro/viz/``) must stay
         arena-agnostic: it receives zero-copy arrays, never the
         allocator.
REP108   No ``time.sleep(...)`` or bare ``open(...)`` inside
         ``repro/core/`` — engine code must go through the injected
         ``clock``/read-callback seams so the simulator and the tests
         control time and I/O.
REP109   Every ``@guarded_by``-declared field must appear in the
         machine-readable lock registry
         (:mod:`repro.analysis.lockfacts`) or be covered by a
         "Lock held." contract in its class, so the static checker
         (``repro-check``) can verify it.
REP110   No function parameter or dataclass field that is named like an
         :class:`~repro.core.config.EngineConfig` field *and* carries a
         default, outside ``repro/core/config.py`` and
         ``repro/simulate/`` — a tier forwards engine keywords
         (``**engine``) to the config, where each knob's default and
         rule live once (:data:`ENGINE_KNOB_NAMES` is the list).
REP111   No ``multiprocessing`` ``Process``/``Pool``/``Queue``/
         ``SimpleQueue``/``Pipe`` construction and no ``get_context``
         call (module attribute or imported name) outside
         ``repro/core/child.py`` — every child process is a
         :class:`~repro.core.child.Child`, so a message crosses a
         process boundary in exactly one place; and no string-literal
         ``start_method=`` passed to ``Child(...)`` or
         ``ProcessComputePool(...)`` — every child starts the
         platform-default way (a pass-through variable is fine).
REP112   Every module-level public function and class under
         ``src/repro`` is reachable from an entry point: a
         ``[project.scripts]`` target, a file under ``examples/`` or
         ``benchmarks/``, or a top-level statement of a ``src`` module.
         A use is a loaded name, an attribute, or a string spelling the
         name; imports and ``__all__`` are not uses, so an ``__init__``
         re-export reaches nothing. Only uses inside reached code count.
         ``repro/analysis/`` and ``repro/simulate/`` are exempt.
=======  ==============================================================

Pre-existing violations live in a committed baseline file
(``.repro-lint-baseline.json``); the build fails only on *new* ones,
so the rules can be adopted without a flag-day cleanup. Run
``repro-lint --update-baseline`` after deliberately accepting a new
suppression. The baseline/CLI machinery is shared with ``repro-check``
via :mod:`repro.analysis.baseline`.

The linter is pure ``ast`` — it never imports the code under analysis
(the REP109 registry lookup reads plain data from ``lockfacts``), so
it runs in a bare CI container in milliseconds. REP112 is the one
whole-program rule: :func:`lint_paths` runs it over the repository the
linted paths sit in (the nearest ancestor holding ``pyproject.toml``
and ``src/repro``), whatever subset of files is linted.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.baseline import (
    Finding,
    iter_python_files,
    load_baseline,
    make_parser,
    normalize_path,
    run_gate,
    write_baseline,
)
from repro.analysis.lockfacts import CONTRACT_RE, GUARDED_FIELDS

__all__ = [
    "PAPER_ALIAS_NAMES", "ENGINE_KNOB_NAMES", "Violation", "lint_source", "lint_paths",
    "iter_python_files", "load_baseline", "write_baseline", "main",
]

#: The paper's camelCase spellings of the GBO interface (Figure 1 plus
#: ``setMemSpace``, ``cancelUnit`` and the schema calls of section
#: 3.1); each is the snake_case method name with the words fused.
PAPER_ALIAS_NAMES = frozenset({
    "defineField", "defineRecord", "insertField", "commitRecordType",
    "newRecord", "allocFieldBuffer", "commitRecord", "getFieldBuffer",
    "getFieldBufferSize", "addUnit", "readUnit", "waitUnit",
    "finishUnit", "deleteUnit", "cancelUnit", "setMemSpace",
})

_THREADING_PRIMITIVES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Path fragments exempt from the concurrency rules: the sanitizer's
#: own wrappers must build on the raw primitives.
_CONCURRENCY_EXEMPT = ("repro/analysis/",)

#: Engine-layer modules and class names that only the core may import
#: (REP107); everyone else goes through ``repro.api`` / ``repro``
#: exports.
_ENGINE_MODULES = frozenset({
    "repro.core.record_engine",
    "repro.core.unit_store",
    "repro.core.memory_manager",
    "repro.core.io_scheduler",
})
_ENGINE_NAMES = frozenset({
    "RecordEngine", "UnitStore", "MemoryManager", "IoScheduler",
    "LoadYield",
})
_ENGINE_EXEMPT = ("repro/core/",)

#: The arena seam is engine-adjacent but deliberately wider: the
#: parallel layer (sharded GBO, shard hosts) and the API facade
#: allocate from arenas directly. Everyone else — above all the
#: rendering layer — must stay arena-agnostic.
_ARENA_MODULE = "repro.core.arena"
_ARENA_EXEMPT = (
    "repro/core/", "repro/service/", "repro/parallel/", "repro/api.py",
)

#: The fields of :class:`repro.core.config.EngineConfig` (REP110), as
#: data so the linter imports nothing it lints; a test holds the two in
#: step. A knob may carry a default where it is declared, and so may
#: the simulator's own model parameters of the same names.
ENGINE_KNOB_NAMES = frozenset({
    "budget_bytes", "background_io", "io_workers", "eviction_policy",
    "derived_cache", "compute_workers", "compute_backend",
    "compute_max_threads",
})
_ENGINE_KNOB_EXEMPT = ("repro/core/config.py", "repro/simulate/")

#: ``multiprocessing`` names that start a process or open a channel to
#: one (REP111) — only the supervised child may call them.
_PROCESS_NAMES = frozenset({
    "Process", "Pool", "Queue", "SimpleQueue", "Pipe", "get_context",
})
_PROCESS_EXEMPT = ("repro/core/child.py",)
#: Callables whose ``start_method=`` must not be a literal (REP111).
_START_METHOD_CALLEES = frozenset({"Child", "ProcessComputePool"})

#: Packages REP112 does not report (REP110's precedent): their defs
#: count as reached, so nothing they use is flagged either.
_REACH_EXEMPT = ("repro/analysis/", "repro/simulate/")
_ENTRY_DIRS = ("examples", "benchmarks")
#: A string that spells a (dotted / ``module:name``) identifier.
_NAME_STRING = re.compile(r"[A-Za-z_][\w.]*(?::[A-Za-z_]\w*)?")

_MUTABLE_DEFAULT_NODES = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque"})


class Violation(Finding):
    """One lint finding, identified stably for the baseline."""

    __slots__ = ()


def _is_exempt(path: str, fragments: Sequence[str]) -> bool:
    return any(fragment in path for fragment in fragments)


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.violations: List[Violation] = []
        self._scope: List[str] = []
        self._class_depth = 0
        self._while_depth = 0
        self._threading_imports: Set[str] = set()
        #: Local names bound to the multiprocessing package / one of
        #: its REP111 names.
        self._mp_modules: Set[str] = set()
        self._mp_names: Set[str] = set()
        self._concurrency_exempt = _is_exempt(path, _CONCURRENCY_EXEMPT)
        self._engine_exempt = _is_exempt(path, _ENGINE_EXEMPT)
        self._arena_exempt = _is_exempt(path, _ARENA_EXEMPT)
        self._core_module = "repro/core/" in path
        self._knob_exempt = _is_exempt(path, _ENGINE_KNOB_EXEMPT)
        self._process_exempt = _is_exempt(path, _PROCESS_EXEMPT)

    # -- plumbing ------------------------------------------------------
    def _qualname(self, name: Optional[str] = None) -> str:
        parts = self._scope + ([name] if name else [])
        return ".".join(parts) if parts else "<module>"

    def _add(self, rule: str, node: ast.AST, message: str,
             symbol: Optional[str] = None) -> None:
        self.violations.append(Violation(
            rule, self.path, getattr(node, "lineno", 0),
            symbol or self._qualname(), message,
        ))

    # -- imports (bare Lock()/Condition(); engine-layer boundary) ------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "threading":
            for alias in node.names:
                if alias.name in _THREADING_PRIMITIVES:
                    self._threading_imports.add(
                        alias.asname or alias.name
                    )
        if node.module and node.module.split(".")[0] == "multiprocessing":
            for alias in node.names:
                if alias.name in _PROCESS_NAMES:
                    self._mp_names.add(alias.asname or alias.name)
        if not self._engine_exempt and node.module is not None:
            if node.module in _ENGINE_MODULES:
                self._add(
                    "REP107", node,
                    f"engine-layer import from {node.module!r} outside "
                    f"repro.core/repro.service — use the blessed API "
                    f"(repro.api)",
                    symbol=f"import:{node.module}",
                )
            elif node.module in ("repro.core", "repro"):
                leaked = sorted(
                    alias.name for alias in node.names
                    if alias.name in _ENGINE_NAMES
                )
                if leaked:
                    self._add(
                        "REP107", node,
                        f"engine-layer names {', '.join(leaked)} "
                        f"imported outside repro.core/repro.service — "
                        f"use the blessed API (repro.api)",
                        symbol=f"import:{','.join(leaked)}",
                    )
        if not self._arena_exempt and node.module is not None:
            if node.module == _ARENA_MODULE or (
                node.module == "repro.core"
                and any(a.name == "arena" for a in node.names)
            ):
                self._add(
                    "REP107", node,
                    f"arena import from {_ARENA_MODULE!r} outside its "
                    f"blessed surface (repro.core/service/parallel, "
                    f"repro.api) — rendering and client code must stay "
                    f"arena-agnostic",
                    symbol=f"import:{_ARENA_MODULE}",
                )
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "multiprocessing":
                self._mp_modules.add((alias.asname or alias.name)
                                     .split(".")[0])
        if not self._engine_exempt:
            for alias in node.names:
                if alias.name in _ENGINE_MODULES:
                    self._add(
                        "REP107", node,
                        f"engine-layer import {alias.name!r} outside "
                        f"repro.core/repro.service — use the blessed "
                        f"API (repro.api)",
                        symbol=f"import:{alias.name}",
                    )
        if not self._arena_exempt:
            for alias in node.names:
                if alias.name == _ARENA_MODULE:
                    self._add(
                        "REP107", node,
                        f"arena import {_ARENA_MODULE!r} outside its "
                        f"blessed surface (repro.core/service/parallel, "
                        f"repro.api) — rendering and client code must "
                        f"stay arena-agnostic",
                        symbol=f"import:{_ARENA_MODULE}",
                    )
        self.generic_visit(node)

    # -- module docstring ----------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        if ast.get_docstring(node) is None:
            self._add("REP105", node, "module is missing a docstring",
                      symbol="<module>")
        self.generic_visit(node)

    # -- rule dispatch on defs -----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_camelcase_def(node)
        self._check_guarded_fields(node)
        self._check_engine_knob_defaults(node, [
            stmt.target.id for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
            and isinstance(stmt.target, ast.Name)
        ])
        if self._is_public_context(node.name) \
                and ast.get_docstring(node) is None:
            self._add("REP105", node,
                      f"public class {node.name!r} is missing a "
                      f"docstring", symbol=self._qualname(node.name))
        self._scope.append(node.name)
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        self._check_camelcase_def(node)
        self._check_mutable_defaults(node)
        args = node.args
        named = args.posonlyargs + args.args
        self._check_engine_knob_defaults(node, [
            arg.arg for arg in named[len(named) - len(args.defaults):]
        ] + [
            arg.arg for arg, default in zip(args.kwonlyargs,
                                            args.kw_defaults)
            if default is not None
        ])
        if self._is_public_context(node.name):
            if ast.get_docstring(node) is None \
                    and not self._is_trivial_def(node):
                self._add(
                    "REP105", node,
                    f"public function {node.name!r} is missing a "
                    f"docstring", symbol=self._qualname(node.name),
                )
            missing = self._missing_annotations(node)
            if missing:
                self._add(
                    "REP106", node,
                    f"public function {node.name!r} lacks type "
                    f"annotations for: {', '.join(missing)}",
                    symbol=self._qualname(node.name),
                )
        self._scope.append(node.name)
        while_depth = self._while_depth
        self._while_depth = 0   # a nested def starts a fresh context
        self.generic_visit(node)
        self._while_depth = while_depth
        self._scope.pop()

    def visit_While(self, node: ast.While) -> None:
        for child in node.body:
            self._while_depth += 1
            self.visit(child)
            self._while_depth -= 1
        for child in node.orelse:
            self.visit(child)

    # -- calls: bare primitives, cond.wait, alias calls ----------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not self._concurrency_exempt:
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "threading" \
                    and func.attr in _THREADING_PRIMITIVES:
                self._add(
                    "REP101", node,
                    f"bare threading.{func.attr}() — use the "
                    f"repro.analysis.primitives Tracked* factories",
                )
            elif isinstance(func, ast.Name) \
                    and func.id in self._threading_imports:
                self._add(
                    "REP101", node,
                    f"bare {func.id}() imported from threading — use "
                    f"the repro.analysis.primitives Tracked* factories",
                )
            if isinstance(func, ast.Attribute) and func.attr == "wait" \
                    and self._receiver_is_condition(func.value) \
                    and self._while_depth == 0:
                self._add(
                    "REP102", node,
                    "Condition.wait outside a while predicate loop — "
                    "spurious wakeups and missed notifies require "
                    "`while not predicate: cond.wait()`",
                )
        if not self._process_exempt and self._starts_process(func):
            self._add(
                "REP111", node,
                "multiprocessing process/channel built outside "
                "repro.core.child — spawn through repro.core.child.Child",
            )
        if self._pins_start_method(node):
            self._add(
                "REP111", node,
                "start_method pinned to a string literal — every child "
                "starts the platform-default way",
            )
        if isinstance(func, ast.Attribute) \
                and func.attr in PAPER_ALIAS_NAMES:
            self._add(
                "REP103", node,
                f"camelCase paper alias {func.attr!r} called — use the "
                f"snake_case API",
            )
        if self._core_module:
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "time" \
                    and func.attr == "sleep":
                self._add(
                    "REP108", node,
                    "time.sleep in engine code — use the injected "
                    "clock/condition seams so tests and the simulator "
                    "control time",
                )
            elif isinstance(func, ast.Name) and func.id == "open":
                self._add(
                    "REP108", node,
                    "bare open() in engine code — file I/O goes "
                    "through read callbacks / injected seams",
                )
        self.generic_visit(node)

    def _starts_process(self, func: ast.AST) -> bool:
        """REP111: ``func`` is a multiprocessing process/channel
        constructor or ``get_context``, spelled as an imported name or
        as an attribute of the imported package."""
        if isinstance(func, ast.Name):
            return func.id in self._mp_names
        if not isinstance(func, ast.Attribute) \
                or func.attr not in _PROCESS_NAMES:
            return False
        root = func.value
        while isinstance(root, ast.Attribute):
            root = root.value
        return isinstance(root, ast.Name) and root.id in self._mp_modules

    @staticmethod
    def _pins_start_method(node: ast.Call) -> bool:
        """REP111: ``Child(...)`` / ``ProcessComputePool(...)`` called
        with a string-literal ``start_method=``."""
        func = node.func
        name = func.id if isinstance(func, ast.Name) \
            else getattr(func, "attr", None)
        return name in _START_METHOD_CALLEES and any(
            keyword.arg == "start_method"
            and isinstance(keyword.value, ast.Constant)
            and isinstance(keyword.value.value, str)
            for keyword in node.keywords
        )

    @staticmethod
    def _receiver_is_condition(value: ast.AST) -> bool:
        if isinstance(value, ast.Attribute):
            return "cond" in value.attr.lower()
        if isinstance(value, ast.Name):
            return "cond" in value.id.lower()
        return False

    def _check_guarded_fields(self, node: ast.ClassDef) -> None:
        """REP109: every ``@guarded_by`` field is registered or under
        a "Lock held." contract."""
        from repro.analysis.callgraph import parse_guarded_by

        declared = parse_guarded_by(node)
        if not declared:
            return
        docstrings = [ast.get_docstring(node) or ""] + [
            ast.get_docstring(stmt) or ""
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        has_contract = any(
            CONTRACT_RE.search(doc) for doc in docstrings if doc
        )
        for field in declared:
            if (node.name, field) in GUARDED_FIELDS:
                continue
            if has_contract:
                continue
            self._add(
                "REP109", node,
                f"@guarded_by field {field!r} is neither in the "
                f"repro.analysis.lockfacts registry nor covered by a "
                f"'Lock held.' contract in {node.name!r}",
                symbol=self._qualname(f"{node.name}.{field}"),
            )

    # -- helpers for the def rules -------------------------------------
    def _check_camelcase_def(self, node) -> None:
        name = node.name
        if name.lower() != name and name[:1].islower() \
                and "_" not in name:
            self._add(
                "REP103", node,
                f"camelCase definition {name!r}",
                symbol=self._qualname(name),
            )

    def _check_mutable_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, _MUTABLE_DEFAULT_NODES) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            )
            if mutable:
                self._add(
                    "REP104", node,
                    f"mutable default argument in {node.name!r} — "
                    f"default to None and create inside the body",
                    symbol=self._qualname(node.name),
                )

    def _check_engine_knob_defaults(self, node,
                                    defaulted: Sequence[str]) -> None:
        """REP110: ``defaulted`` are the names ``node`` (a function or
        a class body) gives a default."""
        if self._knob_exempt:
            return
        for name in defaulted:
            if name in ENGINE_KNOB_NAMES:
                self._add(
                    "REP110", node,
                    f"{node.name!r} re-declares a default for engine "
                    f"knob {name!r} — forward engine keywords to "
                    f"repro.core.config.EngineConfig instead",
                    symbol=self._qualname(f"{node.name}.{name}"),
                )

    def _is_public_context(self, name: str) -> bool:
        if name.startswith("_"):
            return False
        return not any(part.startswith("_") for part in self._scope)

    @staticmethod
    def _is_trivial_def(node) -> bool:
        """Single-statement bodies (pass/...) skip the docstring rule."""
        body = node.body
        return len(body) == 1 and isinstance(
            body[0], (ast.Pass, ast.Raise)
        ) or (
            len(body) == 1 and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and body[0].value.value is Ellipsis
        )

    def _missing_annotations(self, node) -> List[str]:
        missing = []
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                missing.append(arg.arg)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if node.returns is None and node.name != "__init__" \
                and not any(
                    isinstance(d, ast.Name) and d.id == "property"
                    for d in node.decorator_list
                ):
            missing.append("return")
        return missing


def lint_source(source: str, path: str) -> List[Violation]:
    """Lint one file's source text; ``path`` is used for reporting and
    for the path-scoped exemptions."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, source)
    linter.visit(tree)
    return linter.violations


class _Uses(ast.NodeVisitor):
    """The names one subtree uses (REP112)."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Store):
            self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Store):
            self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) \
                and _NAME_STRING.fullmatch(node.value):
            self.names.add(re.split(r"[.:]", node.value)[-1])

    def visit_Import(self, node: ast.AST) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(isinstance(target, ast.Name) and target.id == "__all__"
                   for target in node.targets):
            self.generic_visit(node)


def _uses(nodes: Iterable[ast.AST]) -> Set[str]:
    visitor = _Uses()
    for node in nodes:
        visitor.visit(node)
    return visitor.names


def _parse(path: str) -> ast.Module:
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _repo_root(paths: Sequence[str]) -> Optional[str]:
    """The nearest ancestor of the first linted path (or of the working
    directory) holding ``pyproject.toml`` and ``src/repro``."""
    here = os.path.abspath(paths[0] if paths else os.getcwd())
    while True:
        if os.path.isfile(os.path.join(here, "pyproject.toml")) \
                and os.path.isdir(os.path.join(here, "src", "repro")):
            return here
        parent = os.path.dirname(here)
        if parent == here:
            return None
        here = parent


def _script_defs(root: str) -> Set[Tuple[str, str]]:
    """``(path, name)`` of each ``[project.scripts]`` target."""
    with open(os.path.join(root, "pyproject.toml"), "r",
              encoding="utf-8") as handle:
        section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)",
                            handle.read(), re.M | re.S)
    targets = re.findall(r'=\s*"([\w.]+):(\w+)"',
                         section.group(1) if section else "")
    return {
        (os.path.join(root, "src", *module.split(".")) + ".py", name)
        for module, name in targets
    }


def unreached_defs(root: str, exempt: Sequence[str] = _REACH_EXEMPT,
                   ) -> List[Tuple[str, ast.AST]]:
    """REP112's index: the ``(path, node)`` of every module-level def
    under ``root/src/repro`` that no entry point reaches, private ones
    included (the rule reports only public names). Defs under an
    ``exempt`` path fragment count as reached."""
    nodes: Dict[Tuple[str, str], ast.AST] = {}
    by_name: Dict[str, List[Tuple[str, str]]] = {}
    uses: Dict[Tuple[str, str], Set[str]] = {}
    pending = list(_script_defs(root))
    names: Set[str] = set()
    for path in iter_python_files([os.path.join(root, "src", "repro")]):
        path = os.path.abspath(path)
        top = []
        for stmt in _parse(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                key = (path, stmt.name)
                nodes[key] = stmt
                by_name.setdefault(stmt.name, []).append(key)
                uses[key] = _uses([stmt])
                if _is_exempt(normalize_path(path, root), exempt):
                    pending.append(key)
            else:
                top.append(stmt)
        names |= _uses(top)
    for path in iter_python_files(os.path.join(root, d)
                                  for d in _ENTRY_DIRS):
        names |= _uses([_parse(path)])
    for name in names:
        pending.extend(by_name.get(name, ()))
    reached: Set[Tuple[str, str]] = set()
    while pending:
        key = pending.pop()
        if key not in reached:
            reached.add(key)
            for name in uses.get(key, ()):
                pending.extend(by_name.get(name, ()))
    return [(key[0], node) for key, node in nodes.items()
            if key not in reached]


def lint_paths(paths: Sequence[str],
               root: Optional[str] = None) -> List[Violation]:
    """Lint every Python file under ``paths``; REP112 reports the
    linted files' unreached public defs."""
    violations: List[Violation] = []
    linted: Dict[str, str] = {}
    for filepath in iter_python_files(paths):
        normalized = normalize_path(filepath, root)
        linted[os.path.abspath(filepath)] = normalized
        with open(filepath, "r", encoding="utf-8") as handle:
            source = handle.read()
        violations.extend(lint_source(source, normalized))
    repo = _repo_root(paths)
    if repo is not None:
        for path, node in unreached_defs(repo):
            if path in linted and not node.name.startswith("_"):
                violations.append(Violation(
                    "REP112", linted[path], node.lineno, node.name,
                    f"{node.name!r} is reached from no entry point "
                    f"(console script, examples/, benchmarks/, module "
                    f"top level) — delete it or move it to tests/",
                ))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point (``repro-lint``)."""
    parser = make_parser(
        prog="repro-lint",
        description="GODIVA repo-specific concurrency/API lint",
        default_baseline=".repro-lint-baseline.json",
    )
    args = parser.parse_args(argv)
    violations = lint_paths(args.paths)
    return run_gate(list(violations), args, "repro-lint")


if __name__ == "__main__":
    sys.exit(main())
