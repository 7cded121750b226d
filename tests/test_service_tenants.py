"""Multi-tenant service: sessions, budgets, admission, async clients.

Collected into the ``races`` sanitizer job (file name prefix), so under
``REPRO_ANALYSIS=1`` every lock the service layer shares with the
engine is tracked and the lock-order graph + lockset tracker are
checked after each test.
"""

import asyncio
import threading
import time

import pytest

from repro.core.types import DataType
from repro.errors import (
    AdmissionError,
    DatabaseClosedError,
    SchemaError,
)
from repro.service import (
    GodivaService,
    TENANT_PREFIX,
    tenant_of,
)
from repro.service.aio import AsyncGodivaClient
from repro.simulate.tenants import (
    TenantSpec,
    payload_read_fn,
    run_tenant_workload,
)

KB = 1024
MB = 1024 * 1024


def engine_name(tenant, name):
    """A tenant's unit name as the shared engine stores it."""
    return f"{TENANT_PREFIX}{tenant}::{name}"


@pytest.fixture
def service():
    svc = GodivaService(mem_mb=16, io_workers=2, client_workers=8)
    yield svc
    svc.close()


# ----------------------------------------------------------------------
# Name scoping
# ----------------------------------------------------------------------
class TestScoping:
    def test_scoped_roundtrip(self, service):
        """The session facade prefixes a name on the way into the
        engine and strips it on the way out."""
        with service.create_session("alice") as session:
            session.acquire("snap:0001", payload_read_fn(KB)).finish()
            scoped = "tenant::alice::snap:0001"
            assert service._gbo.resident_bytes_of(scoped) > 0
            assert [name for name, _ in session.list_units()] == [
                "snap:0001"
            ]
            assert tenant_of(scoped) == "alice"

    def test_tenant_of_derived_entry(self):
        assert tenant_of("derived::tenant::bob|frame|sig") == "bob"
        assert tenant_of("derived::frame|sig") is None
        assert tenant_of("snap:0001") is None

    def test_invalid_tenant_ids_rejected(self, service):
        for bad in ("", "a:b", "a|b", "a::b", "t e n"):
            with pytest.raises(AdmissionError):
                service.create_session(bad)

    def test_same_unit_name_isolated_across_tenants(self, service):
        seen = []

        def read_fn(sess, name):
            seen.append((sess.tenant, name))
            payload_read_fn(4 * KB)(sess, name)

        with service.create_session("a") as a, \
                service.create_session("b") as b:
            a.acquire("u0", read_fn).finish()
            b.acquire("u0", read_fn).finish()
            # Each callback saw its own session and the *local* name.
            assert ("a", "u0") in seen and ("b", "u0") in seen
            assert a.list_units() == [("u0", a.unit_state("u0"))]
            # Engine-side, the two units are distinct.
            assert a.resident_bytes_of("u0") > 0
            assert b.resident_bytes_of("u0") > 0

    def test_record_types_scoped_fields_shared(self, service):
        with service.create_session("a") as a, \
                service.create_session("b") as b:
            a.acquire("u", payload_read_fn(KB)).finish()
            assert a.has_record_type("blob")
            assert not b.has_record_type("blob")
            # Field types are a shared namespace: a conflicting
            # redefinition fails exactly as it would inside one GBO.
            assert a.has_field_type("blob key")
            with pytest.raises(SchemaError):
                b.define_field("blob key", DataType.DOUBLE)

    def test_session_records_queryable(self, service):
        with service.create_session("a") as a:
            a.acquire("u7", payload_read_fn(2 * KB)).finish()
            key = "u7".ljust(24)[:24].encode()
            rec = a.get_record("blob", [key])
            assert rec is not None
            assert a.get_field_buffer_size(
                "blob", "blob payload", [key]
            ) == 2 * KB

    def test_paper_gbo_surface_untouched_by_service_import(self):
        # The single-process facade must stay byte-for-byte paper-
        # faithful: importing the service adds nothing to GBO.
        from repro.core.database import GBO

        assert not any(
            name.startswith("tenant") or "session" in name.lower()
            for name in vars(GBO)
        )


# ----------------------------------------------------------------------
# Budget isolation & fair eviction
# ----------------------------------------------------------------------
class TestBudgetIsolation:
    def test_thrasher_cannot_evict_steady_below_carveout(self):
        with GodivaService(mem_mb=16, io_workers=1) as svc:
            result = run_tenant_workload(svc, [
                TenantSpec("steady", carveout_mb=4, unit_mb=0.5,
                           n_units=6, rounds=3),
                TenantSpec("thrash", carveout_mb=4, unit_mb=1.0,
                           n_units=24, rounds=3),
            ])
            steady = result.outcomes["steady"]
            thrash = result.outcomes["thrash"]
            # The thrasher churned the policy hard...
            assert thrash.evictions > 0
            # ...but the steady tenant, inside its carve-out, lost
            # nothing and nobody was unfairly evicted.
            assert steady.evictions == 0
            assert result.total_unfair_evictions == 0
            assert result.isolation_held
            assert steady.resident_bytes_end <= steady.carveout_bytes

    def test_derived_entries_charged_to_owner(self, service):
        import numpy as np

        with service.create_session("a") as a, \
                service.create_session("b") as b:
            a.derived.put(("k",), np.zeros(1024))
            assert a.derived.get(("k",)) is not None
            # b's identical key resolves in b's scope: a miss.
            assert b.derived.get(("k",)) is None
            report = service.tenant_report()
            assert report["a"]["used_bytes"] >= 8 * 1024
            assert report["b"]["used_bytes"] == 0

    def test_session_close_drops_only_own_footprint(self, service):
        import numpy as np

        a = service.create_session("a")
        b = service.create_session("b")
        a.acquire("u", payload_read_fn(4 * KB)).finish()
        b.acquire("u", payload_read_fn(4 * KB)).finish()
        a.derived.put(("d",), np.zeros(256))
        b.derived.put(("d",), np.zeros(256))
        a.close()
        report = service.tenant_report()
        assert "a" not in report
        assert report["b"]["used_bytes"] >= 4 * KB + 256 * 8
        assert b.derived.get(("d",)) is not None
        b.close()

    def test_tenant_aware_policy_preserves_recency_of_skipped(self):
        # Skipping a protected tenant's candidates must not disturb
        # their LRU positions.
        from repro.core.cache import LruEvictionPolicy
        from repro.analysis.primitives import TrackedLock
        from repro.service.tenancy import (
            TenantAwareEvictionPolicy,
            TenantLedger,
        )

        lock = TrackedLock("test-ledger")
        ledger = TenantLedger()

        class FakeUnit:
            def __init__(self, nbytes):
                self.resident_bytes = nbytes

        units = {
            engine_name("safe", "u0"): FakeUnit(10),
            engine_name("pig", "u0"): FakeUnit(100),
            engine_name("pig", "u1"): FakeUnit(100),
        }
        ledger.bind(lock=lock, units=units, derived=None)
        with lock:
            ledger.register("safe", 1000)   # way under carve-out
            ledger.register("pig", 50)      # way over carve-out
        policy = TenantAwareEvictionPolicy(LruEvictionPolicy(), ledger)
        for name in units:
            policy.add(name)
        with lock:
            victim = policy.victim()
        # LRU head is safe's unit, but pig is over carve-out: pig's
        # oldest entry goes first; safe's position is untouched.
        assert tenant_of(victim) == "pig"
        assert engine_name("safe", "u0") in policy
        assert list(policy)[0] == engine_name("safe", "u0")
        with lock:
            snap = ledger.snapshot()
        assert snap["pig"]["evictions"] == 1
        assert snap["safe"]["unfair_evictions"] == 0


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_reject_when_oversubscribed(self, service):
        service.create_session("a", mem_mb=10)
        with pytest.raises(AdmissionError, match="does not fit"):
            service.create_session("b", mem_mb=10, admission="reject")
        # Best-effort (no carve-out) sessions always fit.
        service.create_session("c")

    def test_single_carveout_larger_than_budget(self, service):
        with pytest.raises(AdmissionError, match="exceeds the global"):
            service.create_session("big", mem_mb=32)

    def test_duplicate_tenant_rejected(self, service):
        service.create_session("a")
        with pytest.raises(AdmissionError, match="already has a live"):
            service.create_session("a")

    def test_queue_admission_waits_for_capacity(self, service):
        first = service.create_session("a", mem_mb=12)
        admitted = []

        def queued_client():
            with service.create_session(
                "b", mem_mb=12, admission="queue", timeout=30.0
            ) as session:
                admitted.append(session.tenant)

        thread = threading.Thread(target=queued_client)
        thread.start()
        time.sleep(0.1)
        assert admitted == []   # still parked: no capacity yet
        first.close()           # frees the carve-out -> wakes the queue
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert admitted == ["b"]

    def test_queue_admission_times_out(self, service):
        service.create_session("a", mem_mb=12)
        t0 = time.monotonic()
        with pytest.raises(AdmissionError, match="timed out"):
            service.create_session(
                "b", mem_mb=12, admission="queue", timeout=0.2
            )
        assert time.monotonic() - t0 < 10.0

    def test_auto_tenant_names(self, service):
        s1 = service.create_session()
        s2 = service.create_session()
        assert s1.tenant != s2.tenant
        assert s1.tenant.startswith("tenant")


# ----------------------------------------------------------------------
# Close semantics (the PR-4 lost-wakeup suite, service edition)
# ----------------------------------------------------------------------
class TestCloseSemantics:
    def test_session_close_idempotent(self, service):
        session = service.create_session("a")
        session.close()
        session.close()
        with pytest.raises(DatabaseClosedError):
            session.add_unit("u", payload_read_fn(KB))

    def test_service_close_idempotent_and_concurrent(self):
        svc = GodivaService(mem_mb=8, io_workers=1)
        svc.create_session("a")
        errors = []

        def closer():
            try:
                svc.close()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert svc.closed

    def test_gbo_close_concurrent_callers_all_return(self):
        from repro.core.database import GBO

        gbo = GBO(mem_mb=8)
        done = []

        def closer():
            gbo.close()
            done.append(True)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert len(done) == 8
        assert gbo.closed

    def test_session_close_races_inflight_wait(self, service):
        # A wait blocked on a never-loading unit must surface
        # DatabaseClosedError when its session closes — never hang.
        gate = threading.Event()

        def slow_read(sess, name):
            gate.wait(10.0)
            payload_read_fn(KB)(sess, name)

        session = service.create_session("a")
        session.add_unit("slow", slow_read)
        session.add_unit("behind", payload_read_fn(KB))
        outcome = []

        def waiter():
            try:
                session.wait_unit("behind")
                outcome.append("returned")
            except DatabaseClosedError:
                outcome.append("closed")

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        session.close()
        gate.set()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert outcome and outcome[0] in ("closed", "returned")
        with pytest.raises(DatabaseClosedError):
            session.wait_unit("behind")

    def test_service_close_races_inflight_wait(self):
        svc = GodivaService(mem_mb=8, io_workers=1)
        gate = threading.Event()

        def slow_read(sess, name):
            gate.wait(10.0)
            payload_read_fn(KB)(sess, name)

        session = svc.create_session("a")
        session.add_unit("slow", slow_read)
        session.add_unit("behind", payload_read_fn(KB))
        outcome = []

        def waiter():
            try:
                session.wait_unit("behind")
                outcome.append("returned")
            except DatabaseClosedError:
                outcome.append("closed")

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        closer = threading.Thread(target=svc.close)
        closer.start()
        gate.set()
        thread.join(timeout=30.0)
        closer.join(timeout=30.0)
        assert not thread.is_alive() and not closer.is_alive()
        assert outcome and outcome[0] in ("closed", "returned")
        with pytest.raises(DatabaseClosedError):
            svc.create_session("late")

    def test_other_tenants_survive_a_session_close(self, service):
        a = service.create_session("a")
        b = service.create_session("b")
        b.acquire("keep", payload_read_fn(KB))
        a.close()
        # b's unit is still resident and readable.
        assert b.is_resident("keep")
        b.finish_unit("keep")
        b.close()

    def test_closed_session_units_are_gone(self, service):
        from repro.core.units import UnitState

        session = service.create_session("a")
        session.acquire("u", payload_read_fn(KB)).finish()
        assert session.resident_bytes_of("u") > 0
        session.close()
        # The tenant's unit was deleted (terminal) and its bytes freed.
        state = service._gbo.unit_state(engine_name("a", "u"))
        assert state is UnitState.DELETED
        assert service._gbo.resident_bytes_of(engine_name("a", "u")) == 0


# ----------------------------------------------------------------------
# Asyncio front-end
# ----------------------------------------------------------------------
class TestAsyncClients:
    def test_async_roundtrip(self, service):
        async def go():
            client = await AsyncGodivaClient.connect(
                service, "a", mem_mb=2
            )
            async with client:
                handle = await client.acquire(
                    "u0", payload_read_fn(2 * KB)
                )
                assert handle.is_resident
                assert await client.unit_state("u0") is not None
                await client.finish_unit("u0")
                await client.delete_unit("u0")
                report = await client.report()
                assert report["carveout_bytes"] == 2 * MB
            assert client.session.closed

        asyncio.run(go())

    def test_sixty_four_concurrent_clients(self):
        async def one_client(svc, i):
            client = await AsyncGodivaClient.connect(
                svc, f"c{i}", mem=16 * KB
            )
            async with client:
                for step in range(2):
                    name = f"u{step}"
                    await client.acquire(name, payload_read_fn(4 * KB))
                    await client.finish_unit(name)
                    await client.delete_unit(name)
            return i

        async def go():
            with GodivaService(mem_mb=32, io_workers=4,
                               client_workers=16) as svc:
                served = await asyncio.gather(
                    *(one_client(svc, i) for i in range(64))
                )
                assert sorted(served) == list(range(64))
                assert svc.session_count() == 0
                report = svc.tenant_report()
                assert report == {}

        asyncio.run(go())

    def test_async_admission_error_propagates(self, service):
        async def go():
            await AsyncGodivaClient.connect(service, "big", mem_mb=10)
            with pytest.raises(AdmissionError):
                await AsyncGodivaClient.connect(
                    service, "bigger", mem_mb=10
                )

        asyncio.run(go())

    def test_async_close_race_is_an_error_not_a_hang(self, service):
        async def go():
            client = await AsyncGodivaClient.connect(service, "a")
            gate = threading.Event()

            def slow_read(sess, name):
                gate.wait(10.0)
                payload_read_fn(KB)(sess, name)

            await client.add_unit("slow", slow_read)
            await client.add_unit("behind", payload_read_fn(KB))
            wait_task = asyncio.create_task(client.wait_unit("behind"))
            await asyncio.sleep(0.05)
            await client.close()
            gate.set()
            try:
                await asyncio.wait_for(wait_task, timeout=30.0)
            except DatabaseClosedError:
                pass

        asyncio.run(go())


# ----------------------------------------------------------------------
# Voyager over a session
# ----------------------------------------------------------------------
class TestVoyagerSession:
    def test_voyager_runs_against_session(self, small_dataset):
        from repro.viz.voyager import Voyager, VoyagerConfig

        with GodivaService(mem_mb=64, io_workers=2) as svc:
            with svc.create_session("viz", mem_mb=16) as session:
                config = VoyagerConfig(
                    data_dir=small_dataset.directory,
                    test="simple",
                    session=session,
                    render=False,
                    steps=2,
                )
                assert config.mode == "TG"
                result = Voyager(config).run()
                assert result.n_snapshots == 2
                assert result.triangles > 0
                report = svc.tenant_report()
                assert report["viz"]["unfair_evictions"] == 0

    def test_two_voyager_tenants_share_one_engine(self, small_dataset):
        from repro.viz.voyager import Voyager, VoyagerConfig

        with GodivaService(mem_mb=64, io_workers=2) as svc:
            results = []
            with svc.create_session("v1", mem_mb=8) as s1, \
                    svc.create_session("v2", mem_mb=8) as s2:
                for session in (s1, s2):
                    config = VoyagerConfig(
                        data_dir=small_dataset.directory,
                        test="simple",
                        session=session,
                        render=False,
                        steps=2,
                    )
                    results.append(Voyager(config).run())
            assert all(r.triangles > 0 for r in results)
            # Same dataset, same ops: identical geometry per tenant.
            assert results[0].triangles == results[1].triangles
