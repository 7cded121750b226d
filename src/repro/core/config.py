"""EngineConfig — the one declaration of the engine's knobs.

Every tier that hosts an engine takes the knobs as keywords and
forwards them here, so each default and each rule exists once, beside
its field (``repro-lint`` REP110 keeps it so; ``docs/API.md``, "Engine
configuration"). The frozen config is also what crosses a process
boundary: a shard host receives one in its ``ShardSpec``.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.core.arena import Arena
from repro.core.cache import EvictionPolicy, make_policy
from repro.core.compute import ComputePool
from repro.core.compute_proc import ProcessComputePool
from repro.core.memory import parse_mem


def resolve_budget(mem: Union[str, int, float, None] = None,
                   mem_mb: Optional[float] = None) -> int:
    """Resolve the two budget spellings to a byte count.

    ``mem`` takes any :func:`~repro.core.memory.parse_mem` spelling
    (``"384MB"``, an int byte count, a float of megabytes); ``mem_mb``
    is megabytes whatever its type — the paper's ``new GBO(400)`` unit.
    Exactly one must be given; a negative amount is a
    :class:`ValueError` in either.
    """
    if (mem is None) == (mem_mb is None):
        raise ValueError("specify exactly one of mem or mem_mb")
    return parse_mem(mem if mem is not None else float(mem_mb))


@dataclass(frozen=True)
class EngineConfig:
    """The eight engine knobs: field, default, rule.

    A tier builds one as ``EngineConfig(resolve_budget(mem, mem_mb),
    **engine)`` — an unknown keyword is the constructor's
    :class:`TypeError`, naming it. Frozen and (with a named eviction
    policy) picklable; :func:`dataclasses.replace` re-runs the rules.
    A field's ``metadata`` is the ``argparse`` keywords of its
    ``godiva-voyager`` flag; a field without any has no flag.
    """

    #: The memory budget, resolved to bytes (:func:`resolve_budget`);
    #: the accountant rejects a budget that is not positive.
    budget_bytes: int
    #: True = the paper's multi-thread *TG* library (a prefetching I/O
    #: worker pool); False = the single-thread *G* library, where
    #: ``wait_unit`` reads inline.
    background_io: bool = True
    #: Size of the background I/O pool (unused by the G library).
    #: Rule: at least 1.
    io_workers: int = field(default=1, metadata={
        "help": "background I/O threads in the TG mode (1 = the paper's "
                "single prefetch thread)"})
    #: ``'lru'``, or a ready :class:`~repro.core.cache.EvictionPolicy`
    #: instance (the A3 ablation passes FIFO and MRU ones; the service
    #: injects a tenant-aware one). Rule: the only name is ``'lru'``.
    eviction_policy: Union[str, EvictionPolicy] = "lru"
    #: Attach the budget-charged derived-data memo cache.
    derived_cache: bool = field(default=True, metadata={
        "help": "disable the budget-charged derived-data memo cache "
                "(G/TG modes)"})
    #: Compute-plane size; 1 = the paper-faithful serial build (tasks
    #: run inline). Rule: at least 1.
    compute_workers: int = field(default=1, metadata={
        "help": "compute-plane workers (tile compositing as pool tasks "
                "and frame pipelining; 1 = paper-faithful serial, "
                "bit-identical frames either way)"})
    #: Rule: ``'thread'`` or ``'process'``.
    compute_backend: str = field(default="thread", metadata={
        "choices": ("thread", "process"),
        "help": "compute-plane backend: in-process threads or GIL-free "
                "worker processes fed zero-copy shared-memory tokens"})
    #: Cap on the compute pool's spawned threads / processes, so several
    #: pools on one host do not oversubscribe it; None = the pool's own
    #: sizing.
    compute_max_threads: Optional[int] = None

    def __post_init__(self) -> None:
        if self.io_workers < 1:
            raise ValueError("io_workers must be at least 1")
        if self.compute_workers < 1:
            raise ValueError("compute_workers must be at least 1")
        if self.compute_backend not in ("thread", "process"):
            raise ValueError(
                "compute_backend must be 'thread' or 'process', "
                f"got {self.compute_backend!r}"
            )
        make_policy(self.eviction_policy)  # raises on an unknown name

    @property
    def process_compute(self) -> bool:
        """Whether the compute plane runs in worker processes (one
        worker is inline-serial under either backend)."""
        return self.compute_backend == "process" and self.compute_workers > 1

    def make_compute_pool(self, name: str,
                          share_arena: Optional[Arena] = None,
                          **pool: object) -> ComputePool:
        """Build (not start) the compute pool this config describes;
        ``**pool`` is what both pool classes take (``stats=``,
        ``clock=``)."""
        if self.process_compute:
            return ProcessComputePool(
                self.compute_workers, name=name, share_arena=share_arena,
                max_procs=self.compute_max_threads, **pool)
        return ComputePool(self.compute_workers, name=name,
                           max_threads=self.compute_max_threads, **pool)


def add_engine_arguments(parser: argparse.ArgumentParser) -> List[str]:
    """Add the flag of every knob that publishes one, named, typed and
    defaulted from its field (``--io-workers N``; ``--no-derived-cache``
    for a default-on switch); returns their ``dest`` names, which are
    the field names."""
    flagged = [knob for knob in dataclasses.fields(EngineConfig)
               if knob.metadata]
    for knob in flagged:
        dashed = knob.name.replace("_", "-")
        if knob.default is True:
            parser.add_argument(f"--no-{dashed}", dest=knob.name,
                                action="store_false", **knob.metadata)
        else:
            parser.add_argument(f"--{dashed}", type=type(knob.default),
                                default=knob.default, **knob.metadata)
    return [knob.name for knob in flagged]
