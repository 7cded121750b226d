"""Pure-AST program index for the static concurrency checker.

Parses every module under analysis once and builds the whole-program
facts :mod:`repro.analysis.static` needs: the class table (with
``@guarded_by`` declarations and inferred attribute types), the
function table (with "Lock held." contract roles), and enough
expression typing to resolve ``self.method()``,
``self._attr.method()`` and same-package module calls into call-graph
edges.

Attribute types come from three sources, in increasing authority:
constructor-call assignments in ``__init__`` (``self._io =
IoScheduler(...)``), annotated-parameter assignments (``self._gbo =
service._gbo`` via the parameter's annotation), and the explicit
:data:`repro.analysis.lockfacts.WIRING` table for the untyped
``bind()`` seams. Like the linter, nothing here imports the code under
analysis — it is ``ast`` all the way down.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.lockfacts import CONTRACT_RE, WIRING, contract_role


class FunctionInfo:
    """One function/method plus the facts the dataflow needs."""

    __slots__ = ("key", "qualname", "module", "path", "class_name",
                 "name", "lineno", "contract_role", "has_contract",
                 "kind", "node", "param_types")

    def __init__(self, *, qualname: str, module: str, path: str,
                 class_name: Optional[str], name: str, lineno: int,
                 contract: Optional[str], has_contract: bool, kind: str,
                 node: ast.AST, param_types: Dict[str, str]):
        self.key = f"{path}::{qualname}"
        self.qualname = qualname
        self.module = module
        self.path = path
        self.class_name = class_name
        self.name = name
        self.lineno = lineno
        self.contract_role = contract
        #: True when the docstring matches CONTRACT_RE even if the class
        #: is not in the registry (the checker derives a role then).
        self.has_contract = has_contract
        self.kind = kind          # "function" | "method" | "nested"
        self.node = node
        self.param_types = param_types

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.qualname} ({self.path})>"


class ClassInfo:
    """One class: guarded-field declarations and attribute types."""

    __slots__ = ("name", "module", "path", "lineno", "guarded",
                 "attr_types", "node")

    def __init__(self, name: str, module: str, path: str, lineno: int,
                 node: ast.ClassDef):
        self.name = name
        self.module = module
        self.path = path
        self.lineno = lineno
        self.node = node
        #: field -> lock attribute, from the ``@guarded_by`` decorator.
        self.guarded: Dict[str, str] = {}
        #: attribute -> class name, inferred plus WIRING overrides.
        self.attr_types: Dict[str, str] = {}


def parse_guarded_by(node: ast.ClassDef) -> Dict[str, str]:
    """The ``@guarded_by("f", ..., lock="_lock")`` declaration, if any."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "guarded_by":
            continue
        lock_attr = "_lock"
        for keyword in decorator.keywords:
            if keyword.arg == "lock" and isinstance(
                    keyword.value, ast.Constant):
                lock_attr = str(keyword.value.value)
        return {
            str(arg.value): lock_attr
            for arg in decorator.args
            if isinstance(arg, ast.Constant)
        }
    return {}


def _annotation_class(annotation: Optional[ast.AST]) -> Optional[str]:
    """The class name an annotation refers to, unwrapping Optional."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str):
        return annotation.value.strip('"\'').split(".")[-1]
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Subscript):
        value = annotation.value
        wrapper = value.id if isinstance(value, ast.Name) else (
            value.attr if isinstance(value, ast.Attribute) else None
        )
        if wrapper == "Optional":
            return _annotation_class(annotation.slice)
    return None


def _param_types(node: ast.AST) -> Dict[str, str]:
    params: Dict[str, str] = {}
    args = getattr(node, "args", None)
    if args is None:
        return params
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        cls = _annotation_class(arg.annotation)
        if cls is not None:
            params[arg.arg] = cls
    return params


class Program:
    """The whole-program index: classes, functions, call resolution."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.methods: Dict[Tuple[str, str], FunctionInfo] = {}
        self.module_funcs: Dict[Tuple[str, str], FunctionInfo] = {}
        self.func_list: List[FunctionInfo] = []

    # -- construction --------------------------------------------------
    def add_module(self, path: str, source: str) -> None:
        """Index one file (``path`` is the normalized report path)."""
        tree = ast.parse(source, filename=path)
        module = _module_name(path)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, module, path, None, stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(stmt, module, path)

    def _add_class(self, node: ast.ClassDef, module: str,
                   path: str) -> None:
        info = ClassInfo(node.name, module, path, node.lineno, node)
        info.guarded = parse_guarded_by(node)
        # Later definitions win (class names are unique in practice;
        # shadowing only happens in synthetic test sources).
        self.classes[node.name] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, module, path, node.name,
                                   f"{node.name}.{stmt.name}")

    def _add_function(self, node, module: str, path: str,
                      class_name: Optional[str], qualname: str,
                      kind: Optional[str] = None) -> None:
        docstring = ast.get_docstring(node)
        info = FunctionInfo(
            qualname=qualname, module=module, path=path,
            class_name=class_name, name=node.name, lineno=node.lineno,
            contract=contract_role(class_name, docstring),
            has_contract=bool(docstring
                              and CONTRACT_RE.search(docstring)),
            kind=kind or ("method" if class_name else "function"),
            node=node, param_types=_param_types(node),
        )
        self.functions[info.key] = info
        self.func_list.append(info)
        if class_name is not None and kind is None:
            self.methods[(class_name, node.name)] = info
        elif class_name is None and kind is None:
            self.module_funcs[(module, node.name)] = info
        # Nested defs become their own analysis roots (callbacks run in
        # unknown contexts, so they start from an empty lockset).
        for stmt in ast.walk(node):
            if stmt is node:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _directly_nested(node, stmt):
                self._add_function(stmt, module, path, class_name,
                                   f"{qualname}.{stmt.name}",
                                   kind="nested")

    def finish(self) -> None:
        """Run attribute-type inference, then apply WIRING overrides."""
        deferred: List[Tuple[ClassInfo, str, str, str]] = []
        for info in self.classes.values():
            self._infer_attr_types(info, deferred)
        for info, attr, param_cls, sub_attr in deferred:
            source = self.classes.get(param_cls)
            if source is not None:
                inferred = source.attr_types.get(sub_attr)
                if inferred is not None:
                    info.attr_types.setdefault(attr, inferred)
        for (cls, attr), target in WIRING.items():
            if cls in self.classes:
                self.classes[cls].attr_types[attr] = target
        for info in self.classes.values():
            self._inherit(info, info)

    def _inherit(self, info: ClassInfo, base: ClassInfo) -> None:
        """Give ``info`` the attribute types and methods of ``base``'s
        indexed ancestors it does not define itself (a scoped GBO
        facade shares its engine's layers and verbs)."""
        for node in base.node.bases:
            parent = self.classes.get(getattr(node, "id", None))
            if parent is None or parent is info:
                continue
            for attr, cls in parent.attr_types.items():
                info.attr_types.setdefault(attr, cls)
            for (owner, name), func in list(self.methods.items()):
                if owner == parent.name:
                    self.methods.setdefault((info.name, name), func)
            self._inherit(info, parent)

    def _infer_attr_types(self, info: ClassInfo,
                          deferred: list) -> None:
        for stmt in info.node.body:
            if not isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            params = _param_types(stmt)
            # Property return annotations type the attribute view too
            # (e.g. ``GBO.compute -> ComputePool``).
            if any(isinstance(d, ast.Name) and d.id == "property"
                   for d in stmt.decorator_list):
                cls = _annotation_class(stmt.returns)
                if cls in self.classes:
                    info.attr_types.setdefault(stmt.name, cls)
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    self._infer_one(info, target.attr, node.value,
                                    params, deferred)

    def _infer_one(self, info: ClassInfo, attr: str, value: ast.AST,
                   params: Dict[str, str], deferred: list) -> None:
        if isinstance(value, ast.IfExp):
            self._infer_one(info, attr, value.body, params, deferred)
            return
        if isinstance(value, ast.Call) and isinstance(
                value.func, ast.Name) and value.func.id in self.classes:
            info.attr_types.setdefault(attr, value.func.id)
        elif isinstance(value, ast.Name) and value.id in params:
            if params[value.id] in self.classes:
                info.attr_types.setdefault(attr, params[value.id])
        elif isinstance(value, ast.Attribute) and isinstance(
                value.value, ast.Name) and value.value.id in params:
            deferred.append((info, attr, params[value.value.id],
                             value.attr))

    # -- queries -------------------------------------------------------
    def expr_type(self, expr: ast.AST,
                  ctx: FunctionInfo) -> Optional[str]:
        """The class name an expression evaluates to, if inferable."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return ctx.class_name
            return ctx.param_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.expr_type(expr.value, ctx)
            if base is not None and base in self.classes:
                return self.classes[base].attr_types.get(expr.attr)
        return None

    def resolve_call(self, call: ast.Call,
                     ctx: FunctionInfo) -> Optional[FunctionInfo]:
        """The FunctionInfo a call site targets, when resolvable."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.module_funcs.get((ctx.module, func.id))
        if isinstance(func, ast.Attribute):
            receiver = self.expr_type(func.value, ctx)
            if receiver is not None:
                return self.methods.get((receiver, func.attr))
            if isinstance(func.value, ast.Name):
                # ``module.function(...)`` for same-package imports.
                return self.module_funcs.get(
                    (f"{_package(ctx.module)}.{func.value.id}",
                     func.attr)
                )
        return None


def _directly_nested(parent: ast.AST, child: ast.AST) -> bool:
    """Whether ``child`` is a def nested in ``parent`` with no def in
    between (deeper nesting is picked up recursively)."""
    for node in ast.walk(parent):
        if node is parent:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is child:
                return True
            if any(sub is child for sub in ast.walk(node)
                   if sub is not node):
                return False
    return False


def _module_name(path: str) -> str:
    """Dotted module name from a normalized path, rooted at ``repro``."""
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    name = "/".join(parts)[:-3] if path.endswith(".py") else "/".join(parts)
    name = name.replace("/", ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def _package(module: str) -> str:
    return module.rsplit(".", 1)[0] if "." in module else module


def build_program(files: Iterable[Tuple[str, str]]) -> Program:
    """Index ``(path, source)`` pairs into a finished :class:`Program`."""
    program = Program()
    for path, source in files:
        program.add_module(path, source)
    program.finish()
    program.func_list.sort(key=lambda f: (f.path, f.lineno, f.qualname))
    return program
