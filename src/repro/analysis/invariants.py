"""Structural invariants of the GBO buffer database, checkable on demand.

The database's docstrings promise a set of cross-structure invariants
(memory accounting matches resident records, the prefetch queue only
holds QUEUED units, the eviction policy only holds evictable RESIDENT
units, refcounts are non-negative). :func:`check_invariants` verifies
them against a live GBO under its own lock — callable from tests, from
the pytest races fixture, or from a debugger mid-incident.

:func:`predict_deadlock` is the sanitizer's *early* form of the paper's
runtime deadlock detector (section 3.3): it inspects the current state —
which I/O workers are blocked on memory, what is evictable, what a
prospective ``wait_unit`` would wait for — and reports a doomed wait
*before* the application blocks in it. The runtime detector inside
``wait_unit`` fires only once the application is already waiting; this
one lets ``examples/deadlock_sanitizer.py`` flag the bug while the app
still has control.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.units import UnitState
from repro.errors import InvariantViolation

if TYPE_CHECKING:
    from repro.core.database import GBO


def check_invariants(gbo: GBO, raise_on_violation: bool = True) -> List[str]:
    """Verify the GBO's cross-structure invariants.

    Returns the list of violation descriptions (empty when healthy);
    raises :class:`InvariantViolation` instead when
    ``raise_on_violation`` is true and anything failed.
    """
    problems: List[str] = []
    with gbo._lock:
        units = gbo._units
        memory = gbo._memory

        resident_total = 0
        for unit in units.values():
            if unit.resident_bytes < 0:
                problems.append(
                    f"unit {unit.name!r} has negative resident_bytes "
                    f"({unit.resident_bytes})"
                )
            if unit.ref_count < 0:
                problems.append(
                    f"unit {unit.name!r} has negative ref_count "
                    f"({unit.ref_count})"
                )
            if unit.state is not UnitState.RESIDENT \
                    and unit.resident_bytes:
                problems.append(
                    f"unit {unit.name!r} is {unit.state.value} but "
                    f"still accounts {unit.resident_bytes} resident "
                    f"bytes"
                )
            resident_total += max(unit.resident_bytes, 0)

        if memory.used_bytes < 0:
            problems.append(
                f"memory accountant is negative ({memory.used_bytes})"
            )
        if resident_total > memory.used_bytes:
            problems.append(
                f"units account {resident_total} resident bytes but "
                f"the accountant only has {memory.used_bytes} charged"
            )
        if memory.high_water_bytes < memory.used_bytes:
            problems.append(
                f"high-water mark {memory.high_water_bytes} below "
                f"current usage {memory.used_bytes}"
            )

        for name in list(gbo._queue):
            unit = units.get(name)
            if unit is None:
                problems.append(
                    f"queue holds unknown unit {name!r}"
                )
            elif unit.state is not UnitState.QUEUED:
                problems.append(
                    f"queue holds unit {name!r} in state "
                    f"{unit.state.value} (expected queued)"
                )

        derived = getattr(gbo, "derived", None)
        derived_names = set(
            derived.entry_names_locked()
        ) if derived is not None else set()

        for name in list(gbo._policy):
            if derived is not None and derived.owns(name):
                if name not in derived_names:
                    problems.append(
                        f"eviction policy holds unknown derived "
                        f"entry {name!r}"
                    )
                continue
            unit = units.get(name)
            if unit is None:
                problems.append(
                    f"eviction policy holds unknown unit {name!r}"
                )
            elif unit.state is not UnitState.RESIDENT \
                    or not unit.evictable:
                problems.append(
                    f"eviction policy holds non-evictable unit "
                    f"{name!r} (state {unit.state.value}, "
                    f"refs {unit.ref_count}, "
                    f"finished {unit.finished})"
                )

        if derived is not None:
            policy_names = set(gbo._policy)
            cache_bytes = derived.resident_bytes_locked()
            for name in derived_names:
                if name not in policy_names:
                    problems.append(
                        f"derived entry {name!r} is cached but not "
                        f"registered with the eviction policy"
                    )
            if cache_bytes != gbo.stats.derived_bytes:
                problems.append(
                    f"derived cache holds {cache_bytes} bytes but "
                    f"stats.derived_bytes says "
                    f"{gbo.stats.derived_bytes}"
                )
            if resident_total + cache_bytes > memory.used_bytes:
                problems.append(
                    f"units ({resident_total}) plus derived entries "
                    f"({cache_bytes}) exceed the accountant's "
                    f"{memory.used_bytes} charged bytes"
                )

    if problems and raise_on_violation:
        raise InvariantViolation(
            f"{len(problems)} GBO invariant violation(s):\n  "
            + "\n  ".join(problems)
        )
    return problems


def io_blocked_report(gbo: GBO) -> List[dict]:
    """Which I/O workers are currently blocked on memory, and on what."""
    with gbo._lock:
        return [
            {
                "thread": thread.name,
                "needs_bytes": nbytes,
                "loading_unit": loading,
            }
            for thread, (nbytes, loading) in gbo._io_blocked.items()
        ]


def predict_deadlock(gbo: GBO,
                     unit_name: Optional[str] = None) -> Optional[str]:
    """Report, without blocking, whether waiting would deadlock *now*.

    With ``unit_name`` given, answers "would ``wait_unit(unit_name)``
    hang forever in the current state?"; without it, answers "is any
    I/O worker wedged so that *no* queued unit can ever load?". Returns
    a human-readable explanation, or ``None`` when progress is possible.

    The logic mirrors the runtime detector in
    ``GBO._check_deadlock_locked`` — a worker blocked on an allocation
    that cannot fit, with nothing evictable, can only be unwedged by the
    application calling ``finish_unit``/``delete_unit`` — but runs
    *before* the application commits to the wait.
    """
    with gbo._lock:
        if not gbo._io_blocked or len(gbo._policy) != 0:
            return None
        memory = gbo._memory
        blocked_loading = {
            loading for _nbytes, loading in gbo._io_blocked.values()
            if loading is not None
        }
        if any(
            u.state is UnitState.READING and u.name not in blocked_loading
            for u in gbo._units.values()
        ):
            return None  # some load is still actively progressing
        stuck = {
            loading: nbytes
            for nbytes, loading in gbo._io_blocked.values()
            if not memory.fits(nbytes)
        }
        if not stuck:
            return None

        def doomed(needed: int, exclude: Optional[str]) -> bool:
            # Mirror of the runtime detector's reclamation step: idle
            # completed prefetches can be emergency-evicted and other
            # blocked partial loads rolled back, so a wait only hangs
            # when the allocation cannot fit even after both.
            reclaimable = sum(
                u.resident_bytes
                for u in gbo._units.values()
                if u.name != exclude
                and (
                    (u.state is UnitState.RESIDENT and not u.finished
                     and u.ref_count == 0)
                    or u.name in blocked_loading
                )
            )
            return (memory.used_bytes - reclaimable + needed
                    > memory.budget_bytes)

        min_needed = min(
            nbytes for nbytes, _loading in gbo._io_blocked.values()
        )

        if unit_name is not None:
            unit = gbo._units.get(unit_name)
            if unit is None:
                return None
            if unit.state is UnitState.READING and unit.name in stuck \
                    and doomed(stuck[unit.name], unit.name):
                return (
                    f"wait_unit({unit_name!r}) would deadlock: the "
                    f"worker loading it is blocked needing "
                    f"{stuck[unit.name]} bytes "
                    f"({memory.used_bytes}/{memory.budget_bytes} used, "
                    f"nothing evictable) — call finish_unit/"
                    f"delete_unit on processed units first"
                )
            if unit.state is UnitState.QUEUED \
                    and doomed(min_needed, unit_name):
                return (
                    f"wait_unit({unit_name!r}) would deadlock: "
                    f"{len(gbo._io_blocked)} I/O worker(s) are blocked "
                    f"on memory ({memory.used_bytes}/"
                    f"{memory.budget_bytes} used, nothing evictable) "
                    f"so the queue can never drain"
                )
            return None

        if doomed(min_needed, None):
            return (
                f"{len(gbo._io_blocked)} I/O worker(s) are blocked "
                f"on memory ({memory.used_bytes}/{memory.budget_bytes} "
                f"bytes used, nothing evictable) while loading "
                f"{sorted(k for k in stuck if k is not None)!r}; any "
                f"wait_unit on a queued or loading unit will deadlock"
            )
        return None
