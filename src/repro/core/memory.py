"""Memory accounting for the GODIVA database.

The application sets "the maximum memory space to be used by the GODIVA
database" at creation time and may adjust it with ``setMemSpace``
(section 3.2). Every field-buffer allocation is charged here, plus a small
fixed per-record overhead for the indexing system ("minus a small overhead
for the record indexing system").

This class only does arithmetic — blocking and eviction policy live in the
database, which owns the lock.
"""

from __future__ import annotations

from typing import Union

from repro.errors import MemoryBudgetError

#: Bytes charged per record for index bookkeeping (tree node, unit list
#: entry, record object). A deliberate, documented approximation.
RECORD_OVERHEAD_BYTES = 64

MB = 1024 * 1024

#: Suffix multipliers for :func:`parse_mem` strings (case-insensitive).
_MEM_SUFFIXES = {
    "b": 1,
    "kb": 1024,
    "mb": MB,
    "gb": 1024 * MB,
    "tb": 1024 * 1024 * MB,
}


def parse_mem(value: Union[str, int, float]) -> int:
    """Normalize a memory-budget spec to bytes.

    Accepts the three spellings ``mem=`` takes at every tier
    (:func:`repro.core.config.resolve_budget`):

    * ``str`` — a number with a unit suffix (``"384MB"``, ``"1.5GB"``,
      ``"4096 KB"``, ``"512B"``); a bare numeric string means bytes;
    * ``int`` — a byte count;
    * ``float`` — megabytes (the paper's ``new GBO(400)`` unit, as
      the ``mem_mb`` keyword).

    Negative amounts raise :class:`ValueError` in every spelling: a
    budget below zero is always a caller bug, and catching it here
    (rather than deep in the accountant) names the offending spec.
    Zero parses fine — whether an empty budget is usable is the
    :class:`MemoryAccountant`'s decision, not the parser's.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(
            f"memory budget must be a str, int, or float, "
            f"not {type(value).__name__}"
        )
    if isinstance(value, int):
        nbytes = value
    elif isinstance(value, float):
        nbytes = int(value * MB)
    else:
        nbytes = _parse_mem_text(value)
    if nbytes < 0:
        raise ValueError(f"memory spec must be non-negative, got {value!r}")
    return nbytes


def _parse_mem_text(value: str) -> int:
    """The byte count a ``"<number>[<unit>]"`` string spells."""
    text = value.strip().lower()
    for suffix, multiplier in _MEM_SUFFIXES.items():
        if text.endswith(suffix) and (
            suffix != "b" or not text.endswith(("kb", "mb", "gb", "tb"))
        ):
            try:
                return int(float(text[: -len(suffix)].strip()) * multiplier)
            except ValueError:
                raise ValueError(
                    f"unparseable memory spec {value!r} — the "
                    f"amount before {suffix.upper()!r} must be a "
                    f"number, e.g. '384MB' or '1.5GB'"
                ) from None
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"unparseable memory spec {value!r} — expected e.g. "
            f"'384MB', '1.5GB', or a byte count"
        ) from None


class MemoryAccountant:
    """Tracks the configured budget and the bytes currently charged.

    :meth:`MemoryManager.charge_bytes
    <repro.core.memory_manager.MemoryManager.charge_bytes>` — the
    per-buffer charge — applies :meth:`try_charge`'s arithmetic to
    ``_used`` / ``_high_water`` in its own frame; a change to the rule
    here must be made there too.
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise MemoryBudgetError("memory budget must be positive")
        self._budget = int(budget_bytes)
        self._used = 0
        self._high_water = 0

    @property
    def budget_bytes(self) -> int:
        """The configured budget in bytes."""
        return self._budget

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged."""
        return self._used

    @property
    def available_bytes(self) -> int:
        """Bytes that may still be charged before the budget is full."""
        return self._budget - self._used

    @property
    def high_water_bytes(self) -> int:
        """Peak usage observed — useful for sizing budgets in benchmarks."""
        return self._high_water

    def fits(self, nbytes: int) -> bool:
        """Whether charging ``nbytes`` now would stay within budget."""
        return self._used + nbytes <= self._budget

    def can_ever_fit(self, nbytes: int) -> bool:
        """Whether an allocation could succeed even with an empty database."""
        return nbytes <= self._budget

    def charge(self, nbytes: int) -> None:
        """Record an allocation. The caller must have ensured it fits (or
        deliberately over-commits, e.g. when shrinking the budget at
        runtime cannot immediately evict)."""
        if nbytes < 0:
            raise ValueError("cannot charge negative bytes")
        self._used += nbytes
        if self._used > self._high_water:
            self._high_water = self._used

    def try_charge(self, nbytes: int) -> bool:
        """:meth:`charge` ``nbytes`` if they fit the budget; whether they
        did."""
        if self._used + nbytes > self._budget:
            return False
        self.charge(nbytes)
        return True

    def release(self, nbytes: int) -> None:
        """Return bytes to the pool."""
        if nbytes < 0:
            raise ValueError("cannot release negative bytes")
        if nbytes > self._used:
            raise MemoryBudgetError(
                f"releasing {nbytes} bytes but only {self._used} charged — "
                f"accounting bug"
            )
        self._used -= nbytes

    def set_budget(self, budget_bytes: int) -> None:
        """Adjust the budget (``setMemSpace``). Usage may temporarily
        exceed a shrunken budget; the database evicts what it can and new
        allocations block until usage drops."""
        if budget_bytes <= 0:
            raise MemoryBudgetError("memory budget must be positive")
        self._budget = int(budget_bytes)

    def __repr__(self) -> str:
        return (
            f"MemoryAccountant(used={self._used}/{self._budget} bytes, "
            f"peak={self._high_water})"
        )
