"""Simulated resources: processor-sharing CPUs, a FIFO disk, sync primitives.

The CPU pool implements *processor sharing*: with ``m`` runnable jobs on
``n`` CPUs each job progresses at rate ``min(1, n/m)``. This is the
deterministic fluid limit of round-robin time-slicing — exactly the
behaviour the paper invokes ("the processes are scheduled in a round-robin
way", section 4.2) — and it naturally produces both effects Figure 3
shows: on one CPU the background I/O thread's CPU work slows the main
computation down; on two CPUs they run at full speed side by side.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.simulate.engine import Event, Simulator

_EPS = 1e-9


class _CpuJob:
    __slots__ = ("remaining", "resume")

    def __init__(self, remaining: float, resume: Callable):
        self.remaining = remaining
        self.resume = resume


class _CpuUse:
    def __init__(self, pool: "ProcessorPool", seconds: float):
        self._pool = pool
        self._seconds = seconds

    def start(self, sim: Simulator, resume: Callable) -> None:
        self._pool._submit(self._seconds, resume)


class ProcessorPool:
    """N CPUs under processor sharing.

    ``contention`` models the co-run penalty of concurrently runnable
    jobs — memory-bus and cache interference on SMPs, context-switch
    overhead on uniprocessors: whenever more than one job is runnable,
    every job's progress rate is multiplied by ``1 - contention``. This
    is why the paper's dual-CPU TG runs hide 81-91 % of I/O rather than
    all of it, and why its single-CPU TG runs show computation
    "considerably slowed down".
    """

    def __init__(self, sim: Simulator, n_cpus: int,
                 contention: float = 0.0):
        if n_cpus < 1:
            raise ValueError("need at least one CPU")
        if not 0.0 <= contention < 1.0:
            raise ValueError("contention must be in [0, 1)")
        self.sim = sim
        self.n_cpus = n_cpus
        self.contention = contention
        self._jobs: List[_CpuJob] = []
        self._last_update = sim.now
        self._completion: Optional[Event] = None
        #: Integral of busy CPUs over time (utilization accounting).
        self.busy_cpu_seconds = 0.0

    def use(self, seconds: float) -> _CpuUse:
        """Request ``seconds`` of CPU work (shared fairly)."""
        if seconds < 0:
            raise ValueError("negative CPU demand")
        return _CpuUse(self, seconds)

    @property
    def runnable(self) -> int:
        return len(self._jobs)

    def _rate(self) -> float:
        m = len(self._jobs)
        if m == 0:
            return 0.0
        rate = min(1.0, self.n_cpus / m)
        if m > 1:
            rate *= 1.0 - self.contention
        return rate

    def _advance(self) -> None:
        elapsed = self.sim.now - self._last_update
        if elapsed > 0 and self._jobs:
            rate = self._rate()
            for job in self._jobs:
                job.remaining = max(0.0, job.remaining - elapsed * rate)
            self.busy_cpu_seconds += elapsed * rate * len(self._jobs)
        self._last_update = self.sim.now

    def _submit(self, seconds: float, resume: Callable) -> None:
        self._advance()
        self._jobs.append(_CpuJob(seconds, resume))
        self._reschedule()

    def _reschedule(self) -> None:
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        if not self._jobs:
            return
        rate = self._rate()
        min_remaining = min(job.remaining for job in self._jobs)
        delay = min_remaining / rate
        self._completion = self.sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion = None
        self._advance()
        done = [job for job in self._jobs if job.remaining <= _EPS]
        self._jobs = [job for job in self._jobs if job.remaining > _EPS]
        self._reschedule()
        # Resume after rescheduling; resumed processes may submit new
        # work re-entrantly, which re-runs _advance/_reschedule safely.
        for job in done:
            job.resume(None)


class _DiskUse:
    def __init__(self, disk: "DiskFifo", cost_s: float):
        self._disk = disk
        self._cost = cost_s

    def start(self, sim: Simulator, resume: Callable) -> None:
        self._disk._submit(self._cost, resume)


class DiskFifo:
    """One disk serving requests in arrival order, one at a time.

    Requests carry a precomputed service time (from
    :class:`~repro.io.disk.DiskProfile` cost arithmetic); the disk needs
    no CPU, so transfers overlap with computation — the substrate of I/O
    hiding.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._queue: Deque = deque()
        self._busy = False
        self.busy_seconds = 0.0

    def read(self, cost_s: float) -> _DiskUse:
        if cost_s < 0:
            raise ValueError("negative disk cost")
        return _DiskUse(self, cost_s)

    def _submit(self, cost_s: float, resume: Callable) -> None:
        self._queue.append((cost_s, resume))
        if not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        cost_s, resume = self._queue.popleft()
        self.busy_seconds += cost_s

        def done() -> None:
            resume(None)
            self._serve_next()

        self.sim.schedule(cost_s, done)


class _CondWait:
    def __init__(self, cond: "SimLatch"):
        self._cond = cond

    def start(self, sim: Simulator, resume: Callable) -> None:
        if self._cond.is_set:
            sim.schedule(0.0, lambda: resume(None))
        else:
            self._cond._waiters.append(resume)


class SimLatch:
    """A one-way latch: processes wait until it is set.

    Virtual-time analogue of a condition/event for simulated processes —
    named ``Sim*`` so it can never be mistaken for a
    ``threading.Condition``: the repro-lint concurrency rules
    (REP101/REP102) apply to real locks only.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.is_set = False
        self._waiters: List[Callable] = []

    def wait(self) -> _CondWait:
        return _CondWait(self)

    def set(self) -> None:
        if self.is_set:
            return
        self.is_set = True
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            self.sim.schedule(0.0, lambda r=resume: r(None))


class _SemAcquire:
    def __init__(self, sem: "SimSemaphore"):
        self._sem = sem

    def start(self, sim: Simulator, resume: Callable) -> None:
        if self._sem._count > 0:
            self._sem._count -= 1
            sim.schedule(0.0, lambda: resume(None))
        else:
            self._sem._waiters.append(resume)


class SimSemaphore:
    """Counting semaphore in virtual time (e.g. the memory window in
    units); no real thread ever blocks on it."""

    def __init__(self, sim: Simulator, count: int):
        if count < 0:
            raise ValueError("negative semaphore count")
        self.sim = sim
        self._count = count
        self._waiters: Deque[Callable] = deque()

    def acquire(self) -> _SemAcquire:
        return _SemAcquire(self)

    def release(self) -> None:
        if self._waiters:
            resume = self._waiters.popleft()
            self.sim.schedule(0.0, lambda: resume(None))
        else:
            self._count += 1

    @property
    def available(self) -> int:
        return self._count
