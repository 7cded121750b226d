"""Predicting a prefetch deadlock before blocking in it.

The paper's runtime detector (section 3.3) fires *inside* ``wait_unit``:
by the time the application learns about the wedge it is already
blocked. The concurrency sanitizer's ``predict_deadlock`` inspects the
same state — blocked I/O workers, what is evictable, what a prospective
wait would depend on — without blocking, so an application (or a
debugger) can flag the bug while it still has control.

The scenario: a budget that holds exactly two processing units, both
pinned by waits and never finished, while more units sit queued behind
a blocked worker. Waiting on a queued unit is doomed; the predictor
says so first, the runtime detector agrees, and following the advice
(``finish_unit`` on a processed unit) unwedges the pipeline.

Run with ``REPRO_ANALYSIS=1`` to additionally get tracked locks, the
lock-order graph, and "Lock held." contract checking for free.
"""

import time

from repro.analysis.invariants import io_blocked_report, predict_deadlock
from repro.core.database import GBO
from repro.core.schema import RecordSchema, SchemaField
from repro.core.types import DataType
from repro.errors import GodivaDeadlockError

ITEM = RecordSchema("item", (
    SchemaField("id", DataType.STRING, 16, is_key=True),
    SchemaField("data", DataType.DOUBLE),
))

UNIT_BYTES = 1000
UNIT_FOOTPRINT = 16 + UNIT_BYTES + 64   # key + data + record overhead


def read_item(gbo, unit_name):
    """Read callback: one record with a 1000-byte data buffer."""
    ITEM.ensure(gbo)
    record = gbo.new_record("item")
    record.field("id").write(unit_name.ljust(16)[:16].encode())
    gbo.alloc_field_buffer(record, "data", UNIT_BYTES)
    record.field("data").as_array()[:] = 3.0
    gbo.commit_record(record)


def main():
    budget = 2 * UNIT_FOOTPRINT
    with GBO(mem=budget, io_workers=1) as gbo:
        for i in range(4):
            gbo.add_unit(f"u{i}", read_item)
        # u0/u1 fill the budget; the waits pin them (paper rule: a
        # waited unit is only evictable after finish_unit).
        gbo.wait_unit("u0")
        gbo.wait_unit("u1")

        # Give the worker a moment to block loading u2.
        deadline = time.monotonic() + 5.0
        while not io_blocked_report(gbo) and time.monotonic() < deadline:
            time.sleep(0.005)
        for entry in io_blocked_report(gbo):
            print(f"worker blocked: needs {entry['needs_bytes']} bytes "
                  f"while loading {entry['loading_unit']!r}")

        print("predictor verdict for wait_unit('u3'), before blocking:")
        print(f"  {predict_deadlock(gbo, 'u3')}")

        try:
            gbo.wait_unit("u3")
        except GodivaDeadlockError:
            print("runtime detector agrees: GodivaDeadlockError raised")

        # Follow the report's advice: release a processed unit.
        gbo.finish_unit("u0")
        gbo.wait_unit("u2")
        print(f"after finish_unit('u0'): u2 is "
              f"{gbo.unit_state('u2').value}, pipeline unwedged")
        gbo.finish_unit("u1")
        gbo.finish_unit("u2")


if __name__ == "__main__":
    main()
