"""Processor sharing, the FIFO disk, and sync primitives."""

import pytest

from repro.simulate.engine import Simulator
from repro.simulate.resources import (
    DiskFifo,
    ProcessorPool,
    SimLatch,
    SimSemaphore,
)


def run_jobs(n_cpus, demands, contention=0.0):
    """Spawn one CPU job per demand; return completion times."""
    sim = Simulator()
    pool = ProcessorPool(sim, n_cpus, contention=contention)
    done = {}

    def job(name, demand):
        yield pool.use(demand)
        done[name] = sim.now

    for index, demand in enumerate(demands):
        sim.spawn(job(index, demand))
    sim.run()
    return done, sim


class TestProcessorSharing:
    def test_single_job_runs_at_full_rate(self):
        done, sim = run_jobs(1, [5.0])
        assert done[0] == pytest.approx(5.0)

    def test_two_jobs_one_cpu_share(self):
        """Equal jobs on one CPU both finish at 2x their demand."""
        done, _ = run_jobs(1, [3.0, 3.0])
        assert done[0] == pytest.approx(6.0)
        assert done[1] == pytest.approx(6.0)

    def test_unequal_jobs_one_cpu(self):
        """Short job leaves; long job speeds up afterwards:
        short done at 2s (rate 1/2), long: 1 + remaining 2 at full
        rate -> 4s total."""
        done, _ = run_jobs(1, [1.0, 3.0])
        assert done[0] == pytest.approx(2.0)
        assert done[1] == pytest.approx(4.0)

    def test_two_jobs_two_cpus_full_speed(self):
        done, _ = run_jobs(2, [3.0, 5.0])
        assert done[0] == pytest.approx(3.0)
        assert done[1] == pytest.approx(5.0)

    def test_three_jobs_two_cpus(self):
        """Three equal jobs on 2 CPUs run at rate 2/3 each."""
        done, _ = run_jobs(2, [2.0, 2.0, 2.0])
        for i in range(3):
            assert done[i] == pytest.approx(3.0)

    def test_contention_slows_corun(self):
        done, _ = run_jobs(2, [4.0, 4.0], contention=0.25)
        assert done[0] == pytest.approx(4.0 / 0.75)

    def test_contention_not_applied_when_alone(self):
        done, _ = run_jobs(2, [4.0], contention=0.25)
        assert done[0] == pytest.approx(4.0)

    def test_busy_accounting(self):
        _done, sim = run_jobs(1, [2.0, 2.0])
        # placeholder for utilization: total busy CPU-seconds == work
        # performed.
        # (pool not returned; re-run with explicit pool)
        sim2 = Simulator()
        pool = ProcessorPool(sim2, 1)

        def job():
            yield pool.use(2.0)

        sim2.spawn(job())
        sim2.spawn(job())
        sim2.run()
        assert pool.busy_cpu_seconds == pytest.approx(4.0)

    def test_sequential_uses_by_one_process(self):
        sim = Simulator()
        pool = ProcessorPool(sim, 1)
        marks = []

        def job():
            yield pool.use(1.0)
            marks.append(sim.now)
            yield pool.use(2.0)
            marks.append(sim.now)

        sim.spawn(job())
        sim.run()
        assert marks == [1.0, 3.0]

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ProcessorPool(sim, 0)
        with pytest.raises(ValueError):
            ProcessorPool(sim, 1, contention=1.0)
        pool = ProcessorPool(sim, 1)
        with pytest.raises(ValueError):
            pool.use(-1.0)


class TestDiskFifo:
    def test_serves_in_order_one_at_a_time(self):
        sim = Simulator()
        disk = DiskFifo(sim)
        done = {}

        def job(name, cost):
            yield disk.read(cost)
            done[name] = sim.now

        sim.spawn(job("a", 2.0))
        sim.spawn(job("b", 3.0))
        sim.run()
        assert done["a"] == pytest.approx(2.0)
        assert done["b"] == pytest.approx(5.0)   # queued behind a
        assert disk.busy_seconds == pytest.approx(5.0)

    def test_disk_overlaps_with_cpu(self):
        """The whole point: device time hides behind computation."""
        sim = Simulator()
        pool = ProcessorPool(sim, 1)
        disk = DiskFifo(sim)
        finished = {}

        def io_job():
            yield disk.read(4.0)
            finished["io"] = sim.now

        def cpu_job():
            yield pool.use(4.0)
            finished["cpu"] = sim.now

        sim.spawn(io_job())
        sim.spawn(cpu_job())
        sim.run()
        assert finished["io"] == pytest.approx(4.0)
        assert finished["cpu"] == pytest.approx(4.0)

    def test_negative_cost_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            DiskFifo(sim).read(-1.0)


class TestSyncPrimitives:
    def test_condition_wakes_waiters(self):
        sim = Simulator()
        cond = SimLatch(sim)
        log = []

        def waiter(name):
            yield cond.wait()
            log.append((name, sim.now))

        def setter():
            yield sim.sleep(2.0)
            cond.set()

        sim.spawn(waiter("a"))
        sim.spawn(waiter("b"))
        sim.spawn(setter())
        sim.run()
        assert log == [("a", 2.0), ("b", 2.0)]

    def test_condition_already_set_immediate(self):
        sim = Simulator()
        cond = SimLatch(sim)
        cond.set()
        log = []

        def waiter():
            yield cond.wait()
            log.append(sim.now)

        sim.spawn(waiter())
        sim.run()
        assert log == [0.0]

    def test_condition_double_set_harmless(self):
        sim = Simulator()
        cond = SimLatch(sim)
        cond.set()
        cond.set()

    def test_semaphore_window(self):
        """A 2-slot window admits two producers, then gates on release."""
        sim = Simulator()
        sem = SimSemaphore(sim, 2)
        log = []

        def producer(name):
            yield sem.acquire()
            log.append((name, sim.now))

        def releaser():
            yield sim.sleep(5.0)
            sem.release()

        for name in ("a", "b", "c"):
            sim.spawn(producer(name))
        sim.spawn(releaser())
        sim.run()
        assert log == [("a", 0.0), ("b", 0.0), ("c", 5.0)]

    def test_semaphore_release_without_waiters(self):
        sim = Simulator()
        sem = SimSemaphore(sim, 0)
        sem.release()
        assert sem.available == 1

    def test_semaphore_negative_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SimSemaphore(sim, -1)


class TestConservationProperties:
    def test_processor_sharing_conserves_work(self):
        """Total busy CPU-seconds equals total demand, regardless of
        arrival pattern or CPU count (hypothesis-style sweep)."""
        import itertools

        demand_sets = [
            [1.0], [0.5, 0.5], [3.0, 1.0, 2.0],
            [0.1] * 10, [5.0, 0.01],
        ]
        for n_cpus, demands in itertools.product(
            (1, 2, 4), demand_sets
        ):
            sim = Simulator()
            pool = ProcessorPool(sim, n_cpus)

            def job(demand):
                yield pool.use(demand)

            for demand in demands:
                sim.spawn(job(demand))
            sim.run()
            assert pool.busy_cpu_seconds == pytest.approx(
                sum(demands)
            ), (n_cpus, demands)

    def test_makespan_bounds(self):
        """Makespan >= max(demand) and >= total/n_cpus; equals total on
        one CPU."""
        demands = [2.0, 3.0, 1.5, 0.5]
        for n_cpus in (1, 2, 3):
            sim = Simulator()
            pool = ProcessorPool(sim, n_cpus)

            def job(demand):
                yield pool.use(demand)

            for demand in demands:
                sim.spawn(job(demand))
            sim.run()
            assert sim.now >= max(demands) - 1e-9
            assert sim.now >= sum(demands) / n_cpus - 1e-9
            if n_cpus == 1:
                assert sim.now == pytest.approx(sum(demands))
