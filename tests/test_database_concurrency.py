"""Concurrency stress: the GBO under multiple application threads.

The paper's model is one main thread plus the I/O thread, but a portable
library must not corrupt state when several application threads share a
GBO (e.g. a client-server front-end with worker threads). These tests
hammer the lock-protected paths from many threads at once.
"""

import threading
import time

import pytest

from repro.core.database import GBO
from repro.core.schema import RecordSchema, SchemaField
from repro.core.types import DataType
from repro.core.units import UnitState
from repro.errors import GodivaDeadlockError

ITEM = RecordSchema("item", (
    SchemaField("id", DataType.STRING, 16, is_key=True),
    SchemaField("data", DataType.DOUBLE),
))


def reader(nbytes=400, delay=0.0):
    def read_fn(gbo, unit_name):
        if delay:
            time.sleep(delay)
        ITEM.ensure(gbo)
        record = gbo.new_record("item")
        record.field("id").write(unit_name.ljust(16)[:16].encode())
        gbo.alloc_field_buffer(record, "data", nbytes)
        record.field("data").as_array()[:] = 3.0
        gbo.commit_record(record)

    return read_fn


def run_threads(n, target):
    threads = [
        threading.Thread(target=target, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestMultipleWaiters:
    def test_many_threads_wait_same_unit(self):
        """Every waiter must observe the unit resident; ref counts add
        up so the unit only becomes evictable after N finishes."""
        with GBO(mem_mb=8) as gbo:
            gbo.add_unit("shared", reader(delay=0.05))
            observed = []

            def waiter(index):
                gbo.wait_unit("shared")
                observed.append(
                    gbo.get_field_buffer(
                        "item", "data", [b"shared".ljust(16)]
                    )[0]
                )

            run_threads(8, waiter)
            assert observed == [3.0] * 8
            for _ in range(8):
                gbo.finish_unit("shared")
            assert "shared" in gbo._policy   # now evictable

    def test_waiters_on_distinct_units(self):
        with GBO(mem_mb=8) as gbo:
            for i in range(8):
                gbo.add_unit(f"u{i}", reader())

            def waiter(index):
                gbo.wait_unit(f"u{index}")
                gbo.finish_unit(f"u{index}")

            run_threads(8, waiter)
            assert gbo.stats.units_prefetched == 8


class TestConcurrentRecordOps:
    def test_parallel_record_creation_accounting(self):
        """Memory accounting must balance exactly under contention."""
        with GBO(mem_mb=32) as gbo:
            ITEM.ensure(gbo)
            per_thread = 25

            def creator(index):
                for j in range(per_thread):
                    record = gbo.new_record("item")
                    record.field("id").write(
                        f"t{index:02d}r{j:04d}".ljust(16).encode()
                    )
                    gbo.alloc_field_buffer(record, "data", 80)
                    gbo.commit_record(record)

            run_threads(6, creator)
            assert gbo.record_count("item") == 6 * per_thread
            expected = 6 * per_thread * (16 + 80 + 64)
            assert gbo.mem_used_bytes == expected

    def test_parallel_queries(self):
        with GBO(mem_mb=8) as gbo:
            ITEM.ensure(gbo)
            record = gbo.new_record("item")
            record.field("id").write(b"hot-record------")
            gbo.alloc_field_buffer(record, "data", 80)
            record.field("data").as_array()[:] = 9.0
            gbo.commit_record(record)
            failures = []

            def querier(index):
                for _ in range(200):
                    buf = gbo.get_field_buffer(
                        "item", "data", [b"hot-record------"]
                    )
                    if buf[0] != 9.0:
                        failures.append(index)

            run_threads(6, querier)
            assert not failures
            assert gbo.stats.queries == 6 * 200


class TestConcurrentLifecycle:
    def test_interleaved_add_wait_delete_across_threads(self):
        with GBO(mem_mb=16) as gbo:
            n_units = 24
            for i in range(n_units):
                gbo.add_unit(f"u{i:03d}", reader(delay=0.002))

            def consumer(index):
                for i in range(index, n_units, 4):
                    name = f"u{i:03d}"
                    gbo.wait_unit(name)
                    gbo.delete_unit(name)

            run_threads(4, consumer)
            states = {s for _n, s in gbo.list_units()}
            assert states == {UnitState.DELETED}
            assert gbo.mem_used_bytes == 0

    def test_eviction_storm(self):
        """Tight budget + many threads cycling units: accounting and
        index survive; all data remains correct."""
        unit_bytes = 1000
        with GBO(mem=6 * (unit_bytes + 300)) as gbo:
            n_units = 12
            for i in range(n_units):
                gbo.add_unit(f"u{i:03d}", reader(nbytes=unit_bytes))

            def cycler(index):
                for round_number in range(3):
                    for i in range(index, n_units, 3):
                        name = f"u{i:03d}"
                        gbo.wait_unit(name)
                        value = gbo.get_field_buffer(
                            "item", "data",
                            [name.ljust(16).encode()],
                        )[0]
                        assert value == 3.0
                        gbo.finish_unit(name)

            run_threads(3, cycler)
            assert gbo.mem_used_bytes <= gbo.mem_budget_bytes


UNIT_BYTES = 1000
# Per-unit footprint: key + data buffer + record overhead (see the
# accounting test above: 16 + nbytes + 64).
UNIT_FOOTPRINT = 16 + UNIT_BYTES + 64


@pytest.mark.parametrize("io_workers", [1, 2, 4])
class TestWorkerPoolStress:
    """The tentpole under pressure: many units, a budget that holds only
    a handful, and every pool size. Whatever the worker count, no waiter
    may sleep forever and the accountant must balance.

    Well-behaved workloads bound their prefetch-ahead window below the
    budget, as the paper's viz pipeline does — with a pool, enqueueing
    the whole dataset against a tiny budget lets workers fill memory
    with units nobody has consumed yet, which is a *real* deadlock (see
    ``test_deadlock_detected_with_worker_pool`` below)."""

    def test_many_units_small_budget(self, io_workers):
        n_units = 40
        window = 4
        budget = 6 * UNIT_FOOTPRINT
        with GBO(mem=budget, io_workers=io_workers) as gbo:
            handles = {}
            added = 0
            for i in range(n_units):
                while added < min(n_units, i + window):
                    handles[added] = gbo.add_unit(
                        f"u{added:03d}",
                        reader(nbytes=UNIT_BYTES),
                        priority=float(n_units - added),
                    )
                    added += 1
                handle = handles.pop(i)
                handle.wait()
                value = gbo.get_field_buffer(
                    "item", "data", [f"u{i:03d}".ljust(16).encode()]
                )[0]
                assert value == 3.0
                handle.delete()
            assert gbo.mem_used_bytes == 0
            states = {s for _n, s in gbo.list_units()}
            assert states == {UnitState.DELETED}
            assert gbo.stats.units_deleted == n_units

    def test_no_lost_wakeups_under_eviction_churn(self, io_workers):
        """Waiters racing evictions: each wait_unit must either find the
        unit resident or trigger a re-read — never hang. A global join
        timeout converts a lost wakeup into a test failure."""
        n_units = 24
        with GBO(
            mem=n_units * UNIT_FOOTPRINT + 1024,
            io_workers=io_workers,
        ) as gbo:
            for i in range(n_units):
                gbo.add_unit(f"u{i:03d}", reader(nbytes=UNIT_BYTES))

            def churner(index):
                for i in range(index, n_units, 3):
                    name = f"u{i:03d}"
                    gbo.wait_unit(name)
                    gbo.finish_unit(name)

            run_threads(3, churner)
            # Mass eviction, then a re-wait pass: every wait must
            # trigger a reload through the queue (boosted to the front)
            # rather than hanging on an evicted unit.
            gbo.set_mem_space(mem=4 * UNIT_FOOTPRINT)
            threads = [
                threading.Thread(target=churner, args=(i,), daemon=True)
                for i in range(3)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60.0
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
            stuck = [t for t in threads if t.is_alive()]
            assert not stuck, "lost wakeup: churner threads never finished"
            assert gbo.stats.units_reloaded >= n_units - 4
            assert gbo.mem_used_bytes <= gbo.mem_budget_bytes

    def test_eviction_accounting_balances(self, io_workers):
        """After heavy churn the bytes charged equal the bytes of what
        is actually resident — evictions refunded exactly once."""
        n_units = 30
        window = 4
        budget = 6 * UNIT_FOOTPRINT
        with GBO(mem=budget, io_workers=io_workers) as gbo:
            added = 0
            for i in range(n_units):
                while added < min(n_units, i + window):
                    gbo.add_unit(
                        f"u{added:03d}", reader(nbytes=UNIT_BYTES)
                    )
                    added += 1
                gbo.wait_unit(f"u{i:03d}")
                gbo.finish_unit(f"u{i:03d}")
            resident = sum(
                1 for _n, s in gbo.list_units() if s is UnitState.RESIDENT
            )
            assert gbo.mem_used_bytes == resident * UNIT_FOOTPRINT
            assert gbo.stats.evictions >= n_units - resident
            # Every eviction refunded exactly once: the running ledger
            # matches what is actually resident.
            assert (
                gbo.stats.bytes_allocated - gbo.stats.bytes_released
                == gbo.mem_used_bytes
            )

    def test_deadlock_detected_with_worker_pool(self, io_workers):
        """The generalized detector: with N workers all blocked on a
        budget full of never-finished units, waiting on a still-queued
        unit must raise rather than hang."""
        budget = 2 * UNIT_FOOTPRINT
        with GBO(mem=budget, io_workers=io_workers) as gbo:
            for i in range(io_workers + 4):
                gbo.add_unit(f"u{i}", reader(nbytes=UNIT_BYTES))
            gbo.wait_unit("u0")
            gbo.wait_unit("u1")
            # u0/u1 fill the budget and are never finished: every worker
            # ends up blocked and the tail unit can never load.
            with pytest.raises(GodivaDeadlockError,
                               match="finish_unit/delete_unit"):
                gbo.wait_unit(f"u{io_workers + 3}")
