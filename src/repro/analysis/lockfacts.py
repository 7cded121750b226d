"""Machine-readable lock facts: DESIGN.md's lock table as data.

The prose lock table in ``DESIGN.md`` ("Lock ownership") is the
authoritative statement of GODIVA's lock discipline; this module is the
same table as plain data so tools can consume it: the static checker
(:mod:`repro.analysis.static`) verifies guarded-field accesses and the
acquisition hierarchy against it (its SC104 requires every
``@guarded_by``-declared field to appear here or under a "Lock held."
contract), and ``tests/test_docs_consistency.py`` parses the DESIGN
table and asserts the two never drift.

The module is pure data plus a markdown parser — it imports nothing
from the engine, so the analysis tools never import the code they
analyze.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Optional, Tuple

#: The DESIGN.md lock table. One entry per lock *role*; ``rank`` orders
#: the acquisition hierarchy (a thread may only acquire a lock of
#: strictly greater rank than any lock it holds; ``None`` = outside the
#: hierarchy, only same-lock re-acquisition is checked), ``leaf`` marks
#: locks that must never be held across a blocking operation, and
#: ``classes`` maps each class synchronizing on the role's lock to its
#: ``@guarded_by``-declared fields.
LOCK_TABLE: Dict[str, dict] = {
    "engine": {
        "rank": 0,
        "leaf": False,
        "owner": "GBO._lock",
        "classes": {
            "GBO": ("_closing", "_closed"),
            "MemoryManager": (
                "_accountant", "_policy", "_io_blocked", "_abort_loads",
            ),
            "IoScheduler": ("_units", "_queue", "_worker_stats"),
            "DerivedCache": ("_entries", "_tokens"),
            "GodivaService": ("_sessions", "_closing", "_service_closed"),
            "ServiceSession": ("_session_closed",),
            "TenantLedger": (
                "_tenants", "_total_evictions", "_total_unfair_evictions",
            ),
            # Synchronizes on the engine lock by contract ("Lock held
            # (engine lock).") but owns no guarded fields of its own —
            # registered so those contracts resolve to the engine role.
            "TenantAwareEvictionPolicy": (),
        },
    },
    "record": {
        "rank": 1,
        "leaf": False,
        "owner": "RecordEngine._lock",
        "classes": {
            "RecordEngine": (
                "_field_types", "_record_types", "_index", "_held",
                "_closing", "_closed",
            ),
        },
    },
    "compute": {
        "rank": 2,
        "leaf": True,
        "owner": "ComputePool._lock",
        "classes": {
            "ComputePool": (
                "_queue", "_closed", "_next_id", "_threads", "_started",
            ),
            # The subclass synchronizes on the inherited lock; listed
            # are the fields it adds.
            "ProcessComputePool": ("_children",),
        },
    },
    "arena": {
        "rank": 4,
        "leaf": True,
        "owner": "SharedMemoryArena._lock",
        "classes": {
            "SharedMemoryArena": (
                "_segments", "_tracked", "_arena_closed",
            ),
        },
    },
    "iostats": {
        "rank": None,
        "leaf": True,
        "owner": "IoStats._lock",
        "classes": {
            "IoStats": (
                "bytes_read", "read_calls", "seeks", "settles", "opens",
                "virtual_seconds", "per_file_bytes",
            ),
        },
    },
}

#: class name -> lock role its ``self._lock``/``self._cond`` refer to.
CLASS_ROLE: Dict[str, str] = {
    cls: role
    for role, entry in LOCK_TABLE.items()
    for cls in entry["classes"]
}

#: (class name, field name) -> lock role that must be held to touch it.
GUARDED_FIELDS: Dict[Tuple[str, str], str] = {
    (cls, field): role
    for role, entry in LOCK_TABLE.items()
    for cls, fields in entry["classes"].items()
    for field in fields
}

#: role -> hierarchy rank (None = unranked, outside the global order).
ROLE_RANK: Dict[str, Optional[int]] = {
    role: entry["rank"] for role, entry in LOCK_TABLE.items()
}

#: Roles that are leaves: never held across a blocking operation.
LEAF_ROLES: FrozenSet[str] = frozenset(
    role for role, entry in LOCK_TABLE.items() if entry["leaf"]
)

#: Collaborator wiring the call-graph builder cannot infer from the
#: AST: ``bind()`` takes untyped ``object`` parameters (layers must not
#: import each other), so the attribute types set there are declared
#: here instead. Constructor-call assignments (``self._io =
#: IoScheduler(...)``) are inferred automatically and need no entry.
WIRING: Dict[Tuple[str, str], str] = {
    ("MemoryManager", "_scheduler"): "IoScheduler",
    ("MemoryManager", "_derived"): "DerivedCache",
    ("IoScheduler", "_memory"): "MemoryManager",
    ("IoScheduler", "_owner"): "GBO",
    ("TenantLedger", "_derived"): "DerivedCache",
    ("GodivaService", "_gbo"): "GBO",
    ("GodivaService", "_ledger"): "TenantLedger",
    ("ComputeTask", "_pool"): "ComputePool",
    ("ProcComputeTask", "_pool"): "ProcessComputePool",
    # GBO._compute is constructed in a backend branch (thread vs
    # process); pin the inferred type to the base class, whose
    # submit/wait surface and lock the process pool inherits.
    ("GBO", "_compute"): "ComputePool",
    # The arena seam: constructor/bind parameters are untyped (the core
    # layers must not depend on a concrete arena), so the shared-memory
    # arena — the one that owns a lock — is declared here.
    ("RecordEngine", "_arena"): "SharedMemoryArena",
    ("MemoryManager", "_arena"): "SharedMemoryArena",
    ("DerivedCache", "_arena"): "SharedMemoryArena",
    ("GBO", "_arena"): "SharedMemoryArena",
}

#: Docstring fragments that promise "my caller already holds the lock"
#: — the repo's "Lock held." convention plus the accessor-property
#: variant ("engine-lock discipline applies"). Runtime enforcement is
#: ``make_held_checker``; the static checker treats a match as the
#: function's entry lockset.
CONTRACT_RE = re.compile(r"[Ll]ock held|lock discipline applies")


def contract_role(class_name: Optional[str],
                  docstring: Optional[str]) -> Optional[str]:
    """The lock role a "Lock held." docstring refers to, or None.

    A contract names no lock explicitly — it always means the declaring
    class's lock, so module-level functions cannot carry one.
    """
    if not docstring or class_name is None:
        return None
    if CONTRACT_RE.search(docstring) is None:
        return None
    return CLASS_ROLE.get(class_name)


#: Matches a lock-table row: ``| role (`Owner._lock`) | owner | fields |``.
_DESIGN_ROW_RE = re.compile(
    r"^\|\s*(?P<role>\w+)\s*\(`(?P<owner>\w+)\._lock`\)\s*"
    r"\|(?P<ownercell>[^|]*)\|(?P<fields>[^|]*)\|\s*$"
)


def parse_design_lock_table(text: str) -> Dict[str, Dict[str, List[str]]]:
    """Parse DESIGN.md's lock table into ``{role: {class: [fields]}}``.

    Field cells list ``\\`Class._field\\``-style entries separated by
    ``;`` per class and ``,`` within a class; bare ``\\`_field\\``
    entries continue the preceding class (the row's owning class for
    the first group). Used by the docs-consistency test to assert the
    table and :data:`LOCK_TABLE` agree.
    """
    table: Dict[str, Dict[str, List[str]]] = {}
    for line in text.splitlines():
        match = _DESIGN_ROW_RE.match(line.strip())
        if match is None:
            continue
        role = match.group("role")
        current = match.group("owner")
        classes: Dict[str, List[str]] = {}
        for group in match.group("fields").split(";"):
            for token in group.split(","):
                token = token.strip().strip("`")
                if not token:
                    continue
                if "." in token:
                    current, token = token.split(".", 1)
                classes.setdefault(current, []).append(token)
        table[role] = classes
    return table
