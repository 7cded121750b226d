"""Ablation studies over GODIVA's design choices.

The paper leaves three knobs to the developer (sections 3.2-3.3); these
ablations quantify each:

* **A1 — prefetch granularity**: the processing unit can be a whole
  snapshot, a single file, or finer ("a coarser prefetching granularity …
  or a finer granularity"). Simulated by splitting each snapshot's I/O
  into k sub-units.
* **A2 — memory budget**: ``setMemSpace`` bounds prefetch depth; the
  paper's double-buffering argument says one extra unit of headroom
  already captures most of the benefit.
* **A3 — eviction policy**: the implementation "uses the LRU algorithm
  for cache replacement"; under the interactive back-and-forth access
  pattern of section 1, LRU should beat FIFO and MRU.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.bench.report import Table
from repro.core.cache import (
    EvictionPolicy,
    FifoEvictionPolicy,
    LruEvictionPolicy,
    MruEvictionPolicy,
)
from repro.simulate.machine import Machine
from repro.simulate.runner import simulate_voyager
from repro.simulate.workload import IoProfile, TestWorkload


def split_units(workload: TestWorkload, per_snapshot: int
                ) -> TestWorkload:
    """Refine the unit granularity: each snapshot becomes ``per_snapshot``
    units with proportionally divided I/O and compute."""
    if per_snapshot < 1:
        raise ValueError("per_snapshot must be >= 1")

    def divide(profile: IoProfile) -> IoProfile:
        k = float(per_snapshot)
        return IoProfile(
            bytes_read=profile.bytes_read / k,
            read_calls=profile.read_calls / k,
            seeks=profile.seeks / k,
            settles=profile.settles / k,
            opens=profile.opens / k,
        )

    return replace(
        workload,
        n_snapshots=workload.n_snapshots * per_snapshot,
        original=divide(workload.original),
        godiva=divide(workload.godiva),
        compute_s=workload.compute_s / per_snapshot,
    )


def granularity_ablation(
    machine: Machine,
    workload: TestWorkload,
    granularities: Sequence[int] = (1, 2, 8, 32),
    window_units: int = 12,
    jitter: float = 0.15,
    seeds: Sequence[int] = (0, 1, 2),
) -> Table:
    """A1: visible I/O vs unit granularity at a fixed memory window.

    Finer units shorten the first-unit cold wait (less data per unit)
    but a fixed-size memory window holds less lookahead data, so overlap
    can suffer at the extreme.
    """
    table = Table(
        title=f"A1 granularity ({workload.test}, {machine.name})",
        headers=("units/snapshot", "total (s)", "visible I/O (s)",
                 "first wait (s)"),
    )
    for per_snapshot in granularities:
        refined = split_units(workload, per_snapshot)
        totals, visibles, firsts = [], [], []
        for seed in seeds:
            run = simulate_voyager(
                machine, refined, "TG",
                window_units=window_units,
                jitter=jitter, seed=seed,
            )
            totals.append(run.total_s)
            visibles.append(run.visible_io_s)
            firsts.append(run.per_unit_wait_s[0])
        n = len(seeds)
        table.add(per_snapshot, sum(totals) / n, sum(visibles) / n,
                  sum(firsts) / n)
    return table


def memory_ablation(
    machine: Machine,
    workload: TestWorkload,
    windows: Sequence[int] = (1, 2, 3, 4, 8, 16),
    jitter: float = 0.15,
    seeds: Sequence[int] = (0, 1, 2),
) -> Table:
    """A2: visible I/O vs memory window (units of prefetch headroom).

    window=1 cannot overlap at all (the unit being processed occupies
    the whole budget); window=2 is classic double buffering; beyond a
    few units the returns flatten — the paper's stated memory
    requirement.
    """
    table = Table(
        title=f"A2 memory window ({workload.test}, {machine.name})",
        headers=("window (units)", "total (s)", "visible I/O (s)"),
    )
    for window in windows:
        totals, visibles = [], []
        for seed in seeds:
            run = simulate_voyager(
                machine, workload, "TG",
                window_units=window,
                jitter=jitter, seed=seed,
            )
            totals.append(run.total_s)
            visibles.append(run.visible_io_s)
        n = len(seeds)
        table.add(window, sum(totals) / n, sum(visibles) / n)
    return table


def eviction_ablation(
    data_dir: str,
    policies: Optional[Sequence[EvictionPolicy]] = None,
    pattern: str = "backforth",
    n_views: int = 40,
    mem_mb: float = 8.0,
    test: str = "simple",
) -> Table:
    """A3: interactive cache hit rate per eviction policy.

    Runs a real :class:`~repro.viz.apollo.ApolloSession` over a real
    dataset with a constrained memory budget and the section-1
    back-and-forth access trace. ``policies`` are fresh instances
    (default LRU, FIFO, MRU); rows are labelled by ``policy.name``.
    """
    from repro.gen.snapshot import load_manifest
    from repro.viz.apollo import ApolloSession, interactive_trace

    manifest = load_manifest(data_dir)
    trace = interactive_trace(
        len(manifest.snapshots), n_views, pattern=pattern
    )
    table = Table(
        title=f"A3 eviction policy ({pattern}, {mem_mb:g} MB)",
        headers=("policy", "views", "hits", "hit rate",
                 "bytes read", "virtual I/O (s)"),
    )
    if policies is None:
        policies = (LruEvictionPolicy(), FifoEvictionPolicy(),
                    MruEvictionPolicy())
    for policy in policies:
        with ApolloSession(
            data_dir, test=test, mem_mb=mem_mb,
            eviction_policy=policy, render=False,
        ) as session:
            for step in trace:
                session.view(step)
            stats = session.stats
            table.add(
                policy.name, stats.views, stats.cache_hits,
                f"{stats.hit_rate:.1%}", stats.bytes_read,
                stats.virtual_io_s,
            )
    return table
