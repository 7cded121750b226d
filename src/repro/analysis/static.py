"""``repro-check`` — whole-program static concurrency checker.

The PR-3 sanitizer is *dynamic*: it vouches only for interleavings the
test suite happens to execute. This checker is its all-paths
complement — an Eraser-style lockset analysis run over the AST instead
of a trace. It parses every module under ``src/repro``, extracts lock
facts (``with self._lock`` / ``.acquire()`` acquisitions, the DESIGN
lock table via :mod:`repro.analysis.lockfacts`, ``@guarded_by``
declarations, "Lock held." docstring contracts), builds the
intra-package call graph (:mod:`repro.analysis.callgraph`) and runs an
interprocedural lockset dataflow: every function is analyzed under its
*base* entry lockset (the contract lock, or nothing) plus every
lockset real call sites propagate into it, and each diagnostic carries
the call chain that proves it reachable.

=======  ==============================================================
Rule     Meaning
=======  ==============================================================
SC101    A ``@guarded_by`` field is accessed on a path where the
         declaring lock is not provably held (static race candidate).
SC102    A lock acquisition violates the declared hierarchy — acquiring
         a lock of rank <= one already held, or re-acquiring a
         non-reentrant lock (static deadlock candidate).
SC103    A blocking operation (condition ``wait`` on a *different*
         lock, file I/O, ``time.sleep``, thread ``join``,
         ``ComputePool.submit``/``ComputeTask.wait``) is reachable
         while a leaf lock is held.
SC104    Contract drift: a "Lock held." function is reachable from a
         call site that does not hold the lock, or ``@guarded_by``
         declarations and the machine-readable registry disagree.
=======  ==============================================================

Findings are gated by a committed baseline
(``.repro-check-baseline.json``) exactly like ``repro-lint``: CI fails
only on new keys. The analysis is conservative by design — a function
touching guarded state must either hold the lock lexically or declare
a "Lock held." contract; accepted imprecision is frozen in the
baseline with the rationale in ``docs/ANALYSIS.md``.

Like the linter, this is pure ``ast``: it never imports the code under
analysis.
"""

from __future__ import annotations

import ast
import sys
from collections import deque
from typing import (
    Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from repro.analysis.baseline import (
    Finding,
    iter_python_files,
    make_parser,
    normalize_path,
    run_gate,
)
from repro.analysis.callgraph import (
    FunctionInfo,
    Program,
    build_program,
)
from repro.analysis.lockfacts import (
    CLASS_ROLE,
    GUARDED_FIELDS,
    LEAF_ROLES,
    ROLE_RANK,
)

#: Paths the checker does not analyze: the sanitizer's own wrappers and
#: test scaffolding deliberately touch primitives in ways the rules
#: forbid for engine code.
_EXEMPT_PATHS = ("repro/analysis/",)

#: Attribute spellings that denote a class's lock or its condition.
_LOCK_ATTRS = frozenset({"_lock", "_cond", "lock", "cond"})

#: Resolved callees that block the calling thread (beyond the
#: syntactic ``sleep``/``open``/``wait``/``join`` forms).
_BLOCKING_TARGETS = frozenset({
    ("ComputePool", "submit"), ("ComputePool", "map"),
    ("ComputePool", "wait_all"), ("ComputePool", "_wait"),
    ("ComputeTask", "wait"), ("ProcComputeTask", "wait"),
})

#: Per-function cap on distinct propagated entry locksets — plenty for
#: this codebase, and a hard bound on the dataflow.
_MAX_CONTEXTS = 6

_ORDER_TEXT = " -> ".join(
    role for role, _rank in sorted(
        ((r, k) for r, k in ROLE_RANK.items() if k is not None),
        key=lambda item: item[1],
    )
)


class Diagnostic(Finding):
    """One static-checker finding, with the proving call chain."""

    __slots__ = ("chain",)

    def __init__(self, rule: str, path: str, line: int, symbol: str,
                 message: str, chain: Tuple[str, ...] = ()):
        super().__init__(rule, path, line, symbol, message)
        self.chain = chain

    def __repr__(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if len(self.chain) > 1:
            text += f" [chain: {' -> '.join(self.chain)}]"
        return text


class _Op:
    """One extracted event inside a function, with the locks held
    lexically at that point."""

    __slots__ = ("kind", "line", "held", "data", "role")

    def __init__(self, kind: str, line: int, held: Tuple[str, ...],
                 data: str, role: Optional[str] = None):
        self.kind = kind    # "access" | "acquire" | "call" | "block"
        self.line = line
        self.held = held
        self.data = data
        self.role = role


class _OpExtractor(ast.NodeVisitor):
    """Linear walk of one function body collecting lock-relevant ops."""

    def __init__(self, func: FunctionInfo, program: Program,
                 class_role: Dict[str, str],
                 guarded: Dict[Tuple[str, str], str]):
        self._func = func
        self._program = program
        self._class_role = class_role
        self._guarded = guarded
        self._held: List[str] = []
        self.ops: List[_Op] = []

    # -- scope boundaries ---------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self._func.node:
            self.generic_visit(node)
        # Nested defs are separate analysis roots; lambdas run in their
        # caller's (unknown) context and are skipped entirely.

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # -- lock scopes ---------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            role = self._lock_role(item.context_expr)
            if role is not None:
                self.ops.append(_Op("acquire", item.context_expr.lineno,
                                    tuple(self._held), role))
                acquired.append(role)
                self._held.append(role)
            else:
                self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for _role in acquired:
            self._held.pop()

    visit_AsyncWith = visit_With

    def visit_Try(self, node: ast.Try) -> None:
        # ``<lock>.acquire()`` then ``try: ... finally: <lock>.release()``
        # — the hot paths' spelling of ``with <lock>:`` (it binds no
        # methods per entry). A finally that is exactly the release
        # marks the try's body, handlers and else as holding the lock;
        # the acquire() before it is an ordinary acquisition event.
        role = self._released_role(node.finalbody)
        if role is None:
            self.generic_visit(node)
            return
        self._held.append(role)
        for stmt in node.body:
            self.visit(stmt)
        for handler in node.handlers:
            self.visit(handler)
        for stmt in node.orelse:
            self.visit(stmt)
        self._held.pop()
        for stmt in node.finalbody:
            self.visit(stmt)

    # -- events --------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        held = tuple(self._held)
        line = node.lineno
        func = node.func
        target = self._program.resolve_call(node, self._func)
        if target is not None and target.name != "__init__":
            self.ops.append(_Op("call", line, held, target.key))
            if (target.class_name, target.name) in _BLOCKING_TARGETS:
                self.ops.append(_Op(
                    "block", line, held,
                    f"{target.class_name}.{target.name}()",
                ))
        if isinstance(func, ast.Name) and func.id == "open":
            self.ops.append(_Op("block", line, held, "open()"))
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            recv = func.value
            if attr == "sleep" and isinstance(recv, ast.Name) \
                    and recv.id == "time":
                self.ops.append(_Op("block", line, held, "time.sleep()"))
            elif attr == "acquire":
                role = self._lock_role(recv)
                if role is not None:
                    self.ops.append(_Op("acquire", line, held, role))
            elif attr in ("wait", "wait_for"):
                if _is_cond_expr(recv):
                    self.ops.append(_Op(
                        "block", line, held, f"{_expr_text(recv)}.wait()",
                        role=self._lock_role(recv),
                    ))
                elif target is None:
                    self.ops.append(_Op(
                        "block", line, held,
                        f"{_expr_text(recv)}.wait()",
                    ))
            elif attr == "join" and _name_mentions(recv, "thread"):
                self.ops.append(_Op("block", line, held,
                                    f"{_expr_text(recv)}.join()"))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        owner = self._program.expr_type(node.value, self._func)
        if owner is not None:
            role = self._guarded.get((owner, node.attr))
            if role is not None:
                self.ops.append(_Op(
                    "access", node.lineno, tuple(self._held),
                    f"{owner}.{node.attr}", role=role,
                ))
        self.generic_visit(node)

    # -- classification ------------------------------------------------
    def _released_role(self, finalbody: List[ast.stmt]) -> Optional[str]:
        """The lock role a ``finally`` body of just ``<lock>.release()``
        releases, else None."""
        if len(finalbody) != 1 or not isinstance(finalbody[0], ast.Expr):
            return None
        call = finalbody[0].value
        if (isinstance(call, ast.Call) and not call.args
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "release"):
            return self._lock_role(call.func.value)
        return None

    def _lock_role(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Attribute) and expr.attr in _LOCK_ATTRS:
            owner = self._program.expr_type(expr.value, self._func)
            if owner is not None:
                return self._class_role.get(owner)
        return None


def _is_cond_expr(expr: ast.AST) -> bool:
    return _name_mentions(expr, "cond")


def _name_mentions(expr: ast.AST, fragment: str) -> bool:
    if isinstance(expr, ast.Attribute):
        return fragment in expr.attr.lower()
    if isinstance(expr, ast.Name):
        return fragment in expr.id.lower()
    return False


def _expr_text(expr: ast.AST) -> str:
    if isinstance(expr, ast.Attribute):
        return f"{_expr_text(expr.value)}.{expr.attr}"
    if isinstance(expr, ast.Name):
        return expr.id
    return "<expr>"


class Checker:
    """The interprocedural lockset dataflow over a built program."""

    def __init__(self, program: Program):
        self._program = program
        # Classes declared @guarded_by but absent from the registry get
        # a derived role so their fields are still lockset-checked (and
        # SC104 reports the registry drift).
        self._class_role = dict(CLASS_ROLE)
        self._guarded = dict(GUARDED_FIELDS)
        for name, info in sorted(program.classes.items()):
            if info.guarded and name not in self._class_role:
                role = f"class:{name}"
                self._class_role[name] = role
                for field in info.guarded:
                    self._guarded[(name, field)] = role
        self._diags: Dict[str, Diagnostic] = {}

    # -- entry ----------------------------------------------------------
    def run(self) -> List[Diagnostic]:
        """Extract ops, run the dataflow, and return sorted findings."""
        ops = {
            f.key: self._extract(f) for f in self._program.func_list
        }
        self._check_registry_drift()
        contexts: Dict[str, Dict[FrozenSet[str], Tuple[str, ...]]] = {}
        work: Deque[Tuple[str, FrozenSet[str]]] = deque()
        for f in self._program.func_list:
            base = frozenset(
                {self._contract_of(f)} if self._contract_of(f) else ()
            )
            contexts.setdefault(f.key, {})[base] = (f.qualname,)
            work.append((f.key, base))
        steps = 0
        while work and steps < 500_000:
            steps += 1
            fkey, ctx = work.popleft()
            chain = contexts[fkey][ctx]
            func = self._program.functions[fkey]
            for op in ops[fkey]:
                held_all = ctx | set(op.held)
                if op.kind == "access":
                    self._check_access(func, op, held_all, chain)
                elif op.kind == "acquire":
                    self._check_acquire(func, op, held_all, chain)
                elif op.kind == "block":
                    self._check_block(func, op, held_all, chain)
                elif op.kind == "call":
                    self._check_call(func, op, held_all, chain,
                                     contexts, work)
        return sorted(
            self._diags.values(),
            key=lambda d: (d.path, d.line, d.rule, d.symbol),
        )

    # -- per-op checks --------------------------------------------------
    def _check_access(self, func: FunctionInfo, op: _Op,
                      held_all: Set[str],
                      chain: Tuple[str, ...]) -> None:
        if func.kind == "nested":
            # Closures run in their caller's dynamic context, which the
            # lexical analysis cannot see; the dynamic sanitizer covers
            # them.
            return
        if op.role not in held_all:
            self._add(Diagnostic(
                "SC101", func.path, op.line,
                f"{func.qualname}:{op.data}",
                f"guarded field {op.data} accessed without the "
                f"{op.role} lock provably held (declare a 'Lock "
                f"held.' contract or take the lock)",
                chain,
            ))

    def _check_acquire(self, func: FunctionInfo, op: _Op,
                       held_all: Set[str],
                       chain: Tuple[str, ...]) -> None:
        role = op.data
        if role in held_all:
            self._add(Diagnostic(
                "SC102", func.path, op.line,
                f"{func.qualname}:{role}<-{role}",
                f"re-acquires the non-reentrant {role} lock it "
                f"already holds (self-deadlock)",
                chain,
            ))
            return
        rank = ROLE_RANK.get(role)
        if rank is None:
            return
        offending = sorted(
            held for held in held_all
            if ROLE_RANK.get(held) is not None
            and ROLE_RANK[held] >= rank
        )
        if offending:
            self._add(Diagnostic(
                "SC102", func.path, op.line,
                f"{func.qualname}:{role}<-{offending[0]}",
                f"acquires the {role} lock while holding "
                f"{', '.join(offending)} — violates the declared "
                f"order ({_ORDER_TEXT})",
                chain,
            ))

    def _check_block(self, func: FunctionInfo, op: _Op,
                     held_all: Set[str],
                     chain: Tuple[str, ...]) -> None:
        leaves = {
            role for role in held_all
            if role in LEAF_ROLES
        }
        if op.role is not None:
            # A condition wait releases its own lock while sleeping.
            leaves.discard(op.role)
        for leaf in sorted(leaves):
            self._add(Diagnostic(
                "SC103", func.path, op.line,
                f"{func.qualname}:{op.data}@{leaf}",
                f"blocking operation {op.data} reachable while the "
                f"{leaf} leaf lock is held",
                chain,
            ))

    def _check_call(self, func: FunctionInfo, op: _Op,
                    held_all: Set[str], chain: Tuple[str, ...],
                    contexts: Dict[str, Dict[FrozenSet[str],
                                             Tuple[str, ...]]],
                    work: Deque[Tuple[str, FrozenSet[str]]]) -> None:
        callee = self._program.functions.get(op.data)
        if callee is None:
            return
        contract = self._contract_of(callee)
        if contract is not None and contract not in held_all:
            self._add(Diagnostic(
                "SC104", func.path, op.line,
                f"{func.qualname}->{callee.qualname}",
                f"call to {callee.qualname} does not hold the "
                f"{contract} lock its 'Lock held.' contract requires",
                chain,
            ))
        entry = frozenset(
            held_all | ({contract} if contract else set())
        )
        known = contexts.setdefault(callee.key, {})
        if entry not in known and len(known) < _MAX_CONTEXTS:
            known[entry] = (chain + (callee.qualname,))[-8:]
            work.append((callee.key, entry))

    def _extract(self, func: FunctionInfo) -> List[_Op]:
        if func.name == "__init__":
            # Constructors publish state before any other thread can
            # see it; first-thread-exclusive access is legal (same rule
            # as the dynamic lockset tracker).
            return []
        extractor = _OpExtractor(func, self._program, self._class_role,
                                 self._guarded)
        extractor.visit(func.node)
        return extractor.ops

    def _contract_of(self, func: FunctionInfo) -> Optional[str]:
        if func.contract_role is not None:
            return func.contract_role
        if func.has_contract and func.class_name is not None:
            return self._class_role.get(func.class_name)
        return None

    def _check_registry_drift(self) -> None:
        for name, info in sorted(self._program.classes.items()):
            declared = set(info.guarded)
            registered = {
                field for (cls, field) in GUARDED_FIELDS if cls == name
            }
            if not declared and not registered:
                continue
            has_contract = any(
                f.has_contract
                for f in self._program.func_list
                if f.class_name == name
            )
            for field in sorted(declared - registered):
                if name in CLASS_ROLE:
                    self._add(Diagnostic(
                        "SC104", info.path, info.lineno,
                        f"{name}.{field}:unregistered",
                        f"@guarded_by field {name}.{field} is missing "
                        f"from the lockfacts registry (DESIGN lock "
                        f"table)",
                    ))
                elif not has_contract:
                    self._add(Diagnostic(
                        "SC104", info.path, info.lineno,
                        f"{name}.{field}:uncontracted",
                        f"@guarded_by field {name}.{field} appears in "
                        f"no 'Lock held.' contract and is not in the "
                        f"lockfacts registry",
                    ))
            for field in sorted(registered - declared):
                self._add(Diagnostic(
                    "SC104", info.path, info.lineno,
                    f"{name}.{field}:undeclared",
                    f"registry lists {name}.{field} as guarded but "
                    f"the class declares no such @guarded_by field",
                ))

    def _add(self, diag: Diagnostic) -> None:
        self._diags.setdefault(diag.key, diag)


def check_paths(paths: Sequence[str],
                root: Optional[str] = None) -> List[Diagnostic]:
    """Run the checker over every Python file under ``paths``."""
    files = []
    for filepath in iter_python_files(paths):
        normalized = normalize_path(filepath, root)
        if any(frag in normalized for frag in _EXEMPT_PATHS):
            continue
        with open(filepath, "r", encoding="utf-8") as handle:
            files.append((normalized, handle.read()))
    return check_sources(files)


def check_sources(files: Sequence[Tuple[str, str]]) -> List[Diagnostic]:
    """Run the checker over in-memory ``(path, source)`` pairs."""
    program = build_program(files)
    return Checker(program).run()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point (``repro-check``)."""
    parser = make_parser(
        prog="repro-check",
        description="GODIVA whole-program static concurrency checker",
        default_baseline=".repro-check-baseline.json",
    )
    args = parser.parse_args(argv)
    diagnostics = check_paths(args.paths)
    return run_gate(list(diagnostics), args, "repro-check")


if __name__ == "__main__":
    sys.exit(main())
