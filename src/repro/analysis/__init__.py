"""Concurrency sanitizer and static analysis for the GODIVA library.

Three layers, all optional and all off by default:

1. **Instrumented primitives** (:mod:`repro.analysis.primitives`) —
   :func:`TrackedLock`/:func:`TrackedCondition` factories used by every
   lock owner in the library. Disabled (the default) they return plain
   ``threading`` objects; enabled (``REPRO_ANALYSIS=1`` or
   :func:`enable`), they feed a global lock-order graph
   (:mod:`repro.analysis.lockorder`) whose cycles are reported as
   potential deadlocks with both acquisition stacks, and enforce the
   "Lock held." docstring contracts at runtime.
2. **Lockset race detection** (:mod:`repro.analysis.races`) — an
   Eraser-style detector over fields annotated with
   :func:`~repro.analysis.races.guarded_by`; the pytest races fixture
   turns the existing ``test_database_*`` suites into race tests.
3. **repro-lint** (:mod:`repro.analysis.lint`) — repo-specific AST
   rules (no bare locks, waits in while loops, no camelCase paper
   aliases, no mutable defaults, docstring/annotation coverage, no
   sleeps/bare I/O in engine code, guarded fields registered) with a
   committed baseline, run in CI.
4. **repro-check** (:mod:`repro.analysis.static`) — the whole-program
   *static* concurrency checker: interprocedural lockset dataflow over
   the intra-package call graph (:mod:`repro.analysis.callgraph`)
   against the machine-readable DESIGN lock table
   (:mod:`repro.analysis.lockfacts`). Reports static race candidates
   (SC101), lock-hierarchy violations (SC102), blocking ops under leaf
   locks (SC103) and contract drift (SC104) — the all-paths complement
   to the dynamic sanitizer, with its own committed baseline
   (``.repro-check-baseline.json``), run in CI.

See ``docs/ANALYSIS.md`` for the operator's guide.
"""
