"""Invariant checker and the non-blocking deadlock predictor.

``check_invariants`` must pass on healthy databases and name the exact
corruption on tampered ones; ``predict_deadlock`` must agree with the
runtime detector in ``wait_unit`` — predicting doom only for waits the
runtime would also refuse, and staying silent when the runtime's
reclamation (emergency eviction of idle prefetches, partial-load
rollback) can heal the wedge.
"""

import time

import pytest

from repro.analysis.invariants import (
    check_invariants,
    io_blocked_report,
    predict_deadlock,
)
from repro.core.database import GBO
from repro.core.schema import RecordSchema, SchemaField
from repro.core.types import DataType
from repro.core.units import UnitState
from repro.errors import GodivaDeadlockError, InvariantViolation

ITEM = RecordSchema("item", (
    SchemaField("id", DataType.STRING, 16, is_key=True),
    SchemaField("data", DataType.DOUBLE),
))

UNIT_BYTES = 1000
# Key + data buffer + record overhead (see the accounting tests).
UNIT_FOOTPRINT = 16 + UNIT_BYTES + 64


def reader(nbytes=UNIT_BYTES):
    def read_fn(gbo, unit_name):
        ITEM.ensure(gbo)
        record = gbo.new_record("item")
        record.field("id").write(unit_name.ljust(16)[:16].encode())
        gbo.alloc_field_buffer(record, "data", nbytes)
        record.field("data").as_array()[:] = 3.0
        gbo.commit_record(record)

    return read_fn


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestCheckInvariants:
    def test_healthy_database_is_clean(self, gbo):
        gbo.add_unit("u", reader())
        gbo.wait_unit("u")
        gbo.finish_unit("u")
        assert check_invariants(gbo) == []

    def test_negative_refcount_detected(self, gbo_single):
        gbo_single.add_unit("u", reader())
        with gbo_single._lock:
            gbo_single._units["u"].ref_count = -1
        problems = check_invariants(gbo_single, raise_on_violation=False)
        assert any("negative ref_count" in p for p in problems)
        with pytest.raises(InvariantViolation, match="negative ref_count"):
            check_invariants(gbo_single)
        with gbo_single._lock:
            gbo_single._units["u"].ref_count = 0

    def test_resident_bytes_on_nonresident_unit_detected(
        self, gbo_single
    ):
        gbo_single.add_unit("u", reader())
        with gbo_single._lock:
            gbo_single._units["u"].resident_bytes = 128
        problems = check_invariants(gbo_single, raise_on_violation=False)
        assert any("still accounts" in p for p in problems)
        with gbo_single._lock:
            gbo_single._units["u"].resident_bytes = 0

    def test_accounting_mismatch_detected(self, gbo_single):
        gbo_single.add_unit("u", reader())
        gbo_single.wait_unit("u")
        with gbo_single._lock:
            gbo_single._units["u"].resident_bytes += 10 ** 9
        problems = check_invariants(gbo_single, raise_on_violation=False)
        assert any("accountant" in p for p in problems)
        with gbo_single._lock:
            gbo_single._units["u"].resident_bytes -= 10 ** 9
        assert check_invariants(gbo_single) == []

    def test_queue_ghost_detected(self, gbo_single):
        with gbo_single._lock:
            gbo_single._queue.push("ghost", priority=0.0)
        problems = check_invariants(gbo_single, raise_on_violation=False)
        assert any("unknown unit 'ghost'" in p for p in problems)
        with gbo_single._lock:
            gbo_single._queue.remove("ghost")
        assert check_invariants(gbo_single) == []


class TestIoBlockedReport:
    def test_idle_database_reports_nothing(self, gbo):
        assert io_blocked_report(gbo) == []

    def test_wedged_worker_reported_with_details(self):
        budget = 2 * UNIT_FOOTPRINT
        with GBO(mem=budget, io_workers=1) as gbo:
            for i in range(3):
                gbo.add_unit(f"u{i}", reader())
            gbo.wait_unit("u0")
            gbo.wait_unit("u1")
            assert wait_for(lambda: io_blocked_report(gbo))
            (entry,) = io_blocked_report(gbo)
            assert entry["needs_bytes"] > 0
            assert entry["loading_unit"] == "u2"
            assert isinstance(entry["thread"], str)
            gbo.finish_unit("u0")
            gbo.finish_unit("u1")


class TestPredictDeadlock:
    def test_healthy_database_predicts_nothing(self, gbo):
        gbo.add_unit("u", reader())
        assert predict_deadlock(gbo) is None
        assert predict_deadlock(gbo, "u") is None
        gbo.wait_unit("u")

    def test_unknown_unit_predicts_nothing(self, gbo):
        assert predict_deadlock(gbo, "nope") is None

    def test_doomed_wait_predicted_before_runtime_detector(self):
        """The predictor and the runtime detector must agree on a
        genuinely wedged state — and the wedge must clear once the
        application finishes a pinned unit."""
        budget = 2 * UNIT_FOOTPRINT
        with GBO(mem=budget, io_workers=1) as gbo:
            for i in range(4):
                gbo.add_unit(f"u{i}", reader())
            gbo.wait_unit("u0")
            gbo.wait_unit("u1")
            # u0/u1 fill the budget, pinned by the waits above; the
            # worker blocks loading u2 and u3 can never start.
            assert wait_for(lambda: io_blocked_report(gbo))

            assert predict_deadlock(gbo, "u0") is None  # already here
            message = predict_deadlock(gbo, "u3")
            assert message is not None
            assert "u3" in message and "deadlock" in message
            assert "finish_unit" in message or "never drain" in message
            assert predict_deadlock(gbo) is not None

            # The runtime detector agrees with the prediction.
            with pytest.raises(GodivaDeadlockError,
                               match="finish_unit/delete_unit"):
                gbo.wait_unit("u3")

            # Following the report's advice unwedges everything.
            gbo.finish_unit("u0")
            gbo.wait_unit("u2")
            assert predict_deadlock(gbo, "u2") is None
            gbo.finish_unit("u1")
            gbo.finish_unit("u2")

    def test_idle_prefetch_is_reclaimable_not_a_deadlock(self):
        """A speculative prefetch nobody consumed must not doom a
        demand fetch: the predictor stays silent and the runtime
        detector emergency-evicts the idle unit instead of raising."""
        budget = 2 * UNIT_FOOTPRINT
        with GBO(mem=budget, io_workers=1) as gbo:
            gbo.add_unit("u0", reader())
            gbo.add_unit("u1", reader())
            gbo.wait_unit("u0")  # pinned; u1 loads but is never waited
            assert wait_for(
                lambda: gbo.unit_state("u1") is UnitState.RESIDENT
            )
            gbo.add_unit("u2", reader())
            assert wait_for(lambda: io_blocked_report(gbo))

            # u1 is resident, unfinished, unreferenced: reclaimable.
            assert predict_deadlock(gbo, "u2") is None
            assert predict_deadlock(gbo) is None

            gbo.wait_unit("u2")  # heals by evicting the idle prefetch
            assert gbo.unit_state("u1") is UnitState.EVICTED
            assert gbo.unit_state("u2") is UnitState.RESIDENT

            # The evicted prefetch transparently reloads on demand.
            gbo.finish_unit("u2")
            gbo.wait_unit("u1")
            assert gbo.unit_state("u1") is UnitState.RESIDENT
            gbo.finish_unit("u0")
            gbo.finish_unit("u1")
