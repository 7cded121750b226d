"""Runtime statistics collected by the GODIVA database.

The paper's evaluation separates *visible I/O time* (blocking reads plus
time spent waiting for units) from computation time, and reports I/O volume
reductions from buffer reuse. The GBO tracks exactly those quantities so the
benchmark harness and the N1/N2 experiments can read them off directly.

The worker-pool build adds queue-depth tracking, per-wait duration samples
(for wait-time histograms), and cancellation counts; per-worker utilization
lives on the GBO itself (:meth:`GBO.worker_report`), since the number of
workers is a database property, not a counter.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
from typing import Dict, List, Sequence

#: Default wait-time histogram bucket upper bounds, in seconds.
DEFAULT_WAIT_BINS = (0.001, 0.01, 0.1, 1.0, 10.0)


@dataclass
class GodivaStats:
    """Counters and timers, mutated under the GBO lock (the
    ``compute_*`` counters under the :class:`~repro.core.compute.
    ComputePool`'s own leaf lock — disjoint fields, same object).

    Times are in seconds of the GBO's injected clock (wall time by default,
    virtual time under the platform simulator's clock).
    """

    # --- unit traffic ------------------------------------------------
    units_added: int = 0
    units_prefetched: int = 0          # loaded by a background I/O worker
    units_read_foreground: int = 0     # loaded by blocking read_unit calls
    units_reloaded: int = 0            # re-fetched after eviction
    units_deleted: int = 0
    units_cancelled: int = 0           # cancelled while still queued
    units_failed: int = 0
    evictions: int = 0
    load_yields: int = 0   # partial loads rolled back for a waited-on unit

    # --- cache behaviour ---------------------------------------------
    wait_hits: int = 0     # wait_unit found the unit already resident
    wait_misses: int = 0   # wait_unit had to block (or trigger a reload)

    # --- derived-data cache ------------------------------------------
    derived_hits: int = 0        # memoized derived values served
    derived_misses: int = 0      # lookups that had to (re)compute
    derived_evictions: int = 0   # entries reclaimed for the budget
    derived_bytes: int = 0       # gauge: bytes currently cached

    # --- compute pool (mutated under the ComputePool's own lock) ------
    compute_tasks: int = 0            # tasks executed (workers + steals)
    compute_steals: int = 0           # tasks run inline by a waiter
    compute_task_seconds: float = 0.0  # summed task execution time
    compute_queue_depth_peak: int = 0  # most tasks ever pending at once

    # --- process compute backend --------------------------------------
    compute_dispatches: int = 0        # tasks shipped to worker processes
    compute_fallback_inline: int = 0   # degraded to coordinator-inline
    compute_token_bytes: int = 0       # input bytes moved as arena tokens
    compute_result_token_bytes: int = 0  # result bytes returned as tokens

    # --- prefetch queue ----------------------------------------------
    queue_depth_peak: int = 0   # most units ever pending at once
    wait_boosts: int = 0        # waited-on units promoted to the front

    # --- memory/queries ----------------------------------------------
    bytes_allocated: int = 0   # cumulative field-buffer bytes allocated
    bytes_released: int = 0
    records_committed: int = 0
    queries: int = 0           # get_field_buffer/get_field_buffer_size calls

    # --- visible I/O time --------------------------------------------
    wait_seconds: float = 0.0       # time blocked inside wait_unit
    foreground_read_seconds: float = 0.0  # time inside blocking read_unit
    io_thread_read_seconds: float = 0.0   # worker time in read callbacks
    io_thread_blocked_seconds: float = 0.0  # worker time blocked on memory

    #: Per-call durations of blocking waits (one sample per wait_unit
    #: call that actually blocked) — the raw data behind
    #: :meth:`wait_time_histogram`.
    wait_samples: List[float] = field(default_factory=list)

    @property
    def visible_io_seconds(self) -> float:
        """The paper's 'visible input time': blocking reads + unit waits."""
        return self.wait_seconds + self.foreground_read_seconds

    def wait_time_histogram(
        self, bins: Sequence[float] = DEFAULT_WAIT_BINS
    ) -> Dict[str, int]:
        """Bucket the recorded wait durations by upper bound.

        Returns an ordered mapping ``"<=0.010s" -> count`` with a final
        overflow bucket ``">10.000s"``; buckets follow ``bins`` (seconds,
        ascending).
        """
        edges = sorted(bins)
        counts = [0] * (len(edges) + 1)
        for sample in self.wait_samples:
            for index, edge in enumerate(edges):
                if sample <= edge:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
        histogram = {
            f"<={edge:.3f}s": counts[index]
            for index, edge in enumerate(edges)
        }
        histogram[f">{edges[-1]:.3f}s"] = counts[-1]
        return histogram

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy for reporting (scalars only; the raw wait
        samples are summarized as count/mean/max)."""
        data = {}
        for name in self.__dataclass_fields__:
            if name == "wait_samples":
                continue
            data[name] = getattr(self, name)
        data["visible_io_seconds"] = self.visible_io_seconds
        samples = self.wait_samples
        data["wait_count"] = len(samples)
        data["wait_mean_seconds"] = (
            sum(samples) / len(samples) if samples else 0.0
        )
        data["wait_max_seconds"] = max(samples) if samples else 0.0
        return data

    #: High-water gauges: a fleet-wide peak is the worst single
    #: engine's peak, never a sum across engines.
    _PEAK_FIELDS = ("queue_depth_peak", "compute_queue_depth_peak")

    def merge(self, other: "GodivaStats") -> None:
        """Fold another stats object's counters into this one.

        Monotonic counters and timers add (``derived_bytes`` too: each
        engine's currently-cached bytes coexist in the aggregate);
        high-water gauges take the max; wait samples concatenate. The
        sharded coordinator uses this to aggregate per-shard engine
        stats into one cluster report.

        GodivaStats owns no lock of its own — every field is guarded
        by its engine's lock (the ``compute_*`` counters by the pool's
        leaf lock), so a caller merging two *live* stats objects must
        copy ``other`` under its owning engine's lock, then fold the
        copy in under this one's — one lock at a time, as
        :meth:`repro.io.disk.IoStats.merge` does. The
        sharded coordinator never faces that case: each shard's final
        stats arrive by value over the result queue after the shard's
        engine has closed, so both operands are dead copies. Merging
        an instance into itself is a no-op.
        """
        if other is self:
            return
        for name in self.__dataclass_fields__:
            if name == "wait_samples":
                self.wait_samples.extend(other.wait_samples)
            elif name in self._PEAK_FIELDS:
                setattr(self, name, max(getattr(self, name),
                                        getattr(other, name)))
            else:
                setattr(self, name,
                        getattr(self, name) + getattr(other, name))

    def reset(self) -> None:
        """Set every counter back to its default (zero or empty)."""
        for name, fld in self.__dataclass_fields__.items():
            if fld.default_factory is not MISSING:
                setattr(self, name, fld.default_factory())
            else:
                setattr(self, name, fld.default)
