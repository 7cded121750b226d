"""GBO record operations and dataset queries (sections 3.1 and 3.3)."""

import pytest

from repro.core.database import GBO
from repro.core.memory import RECORD_OVERHEAD_BYTES
from repro.core.types import UNKNOWN, DataType
from repro.errors import (
    DuplicateKeyError,
    KeyLookupError,
    RecordStateError,
    SchemaError,
    UnknownTypeError,
)


def make_fluid_record(gbo, block=b"block_0001$", ts=b"0.000025$"):
    record = gbo.new_record("fluid")
    record.field("block id").write(block)
    record.field("time-step id").write(ts)
    return record


class TestSchemaInterfaces:
    def test_define_field_idempotent_when_identical(self, gbo):
        a = gbo.define_field("p", DataType.DOUBLE, UNKNOWN)
        b = gbo.define_field("p", DataType.DOUBLE, UNKNOWN)
        assert a == b

    def test_define_field_conflict_raises(self, gbo):
        gbo.define_field("p", DataType.DOUBLE, UNKNOWN)
        with pytest.raises(SchemaError, match="redefined"):
            gbo.define_field("p", DataType.FLOAT, UNKNOWN)

    def test_paper_example_double_definition(self, gbo):
        """The paper's sample code defines 'x coordinates' twice with
        identical parameters; that must be accepted."""
        gbo.define_field("x coordinates", DataType.DOUBLE, UNKNOWN)
        gbo.define_field("x coordinates", DataType.DOUBLE, UNKNOWN)

    def test_snake_case_paper_sample_still_runs(self):
        """The paper's sample code, in the snake_case spelling (its
        ``new GBO(400)`` is ``GBO(mem_mb=400)``)."""
        godiva = GBO(mem_mb=400)
        try:
            godiva.define_field("block id", DataType.STRING, 11)
            godiva.define_field("pressure", DataType.DOUBLE)

            godiva.define_record("fluid", 1)
            godiva.insert_field("fluid", "block id", True)
            godiva.insert_field("fluid", "pressure", False)
            godiva.commit_record_type("fluid")

            record = godiva.new_record("fluid")
            record.field("block id").write(b"block_0003$")
            godiva.alloc_field_buffer(record, "pressure", 80_000)
            godiva.commit_record(record)

            buf = godiva.get_field_buffer(
                "fluid", "pressure", [b"block_0003$"])
            assert len(buf) == 10_000
            godiva.set_mem_space(300)
        finally:
            godiva.close()

    def test_define_record_duplicate_raises(self, gbo):
        gbo.define_record("r", 1)
        with pytest.raises(SchemaError, match="already defined"):
            gbo.define_record("r", 1)

    def test_insert_unknown_field_raises(self, gbo):
        gbo.define_record("r", 1)
        with pytest.raises(UnknownTypeError):
            gbo.insert_field("r", "ghost", is_key=True)

    def test_insert_into_unknown_record_raises(self, gbo):
        gbo.define_field("f", DataType.DOUBLE, 8)
        with pytest.raises(UnknownTypeError):
            gbo.insert_field("ghost", "f", is_key=False)

    def test_commit_unknown_record_raises(self, gbo):
        with pytest.raises(UnknownTypeError):
            gbo.commit_record_type("ghost")

    def test_has_accessors(self, fluid_gbo):
        assert fluid_gbo.has_record_type("fluid")
        assert not fluid_gbo.has_record_type("ghost")
        assert fluid_gbo.has_field_type("pressure")
        assert fluid_gbo.field_type("pressure").data_type is \
            DataType.DOUBLE
        with pytest.raises(UnknownTypeError):
            fluid_gbo.field_type("ghost")
        with pytest.raises(UnknownTypeError):
            fluid_gbo.record_type("ghost")


class TestRecordInstances:
    def test_new_record_requires_committed_type(self, gbo):
        gbo.define_field("k", DataType.STRING, 4)
        gbo.define_record("open", 1)
        gbo.insert_field("open", "k", is_key=True)
        with pytest.raises(SchemaError, match="not committed"):
            gbo.new_record("open")

    def test_new_record_charges_memory(self, fluid_gbo):
        before = fluid_gbo.mem_used_bytes
        make_fluid_record(fluid_gbo)
        after = fluid_gbo.mem_used_bytes
        assert after - before == 11 + 9 + RECORD_OVERHEAD_BYTES

    def test_alloc_field_buffer(self, fluid_gbo):
        record = make_fluid_record(fluid_gbo)
        buf = fluid_gbo.alloc_field_buffer(record, "pressure", 80_000)
        assert buf.size == 80_000
        assert fluid_gbo.mem_used_bytes >= 80_000

    def test_alloc_twice_raises_without_leaking_budget(self, fluid_gbo):
        record = make_fluid_record(fluid_gbo)
        fluid_gbo.alloc_field_buffer(record, "pressure", 800)
        used = fluid_gbo.mem_used_bytes
        with pytest.raises(RecordStateError):
            fluid_gbo.alloc_field_buffer(record, "pressure", 800)
        assert fluid_gbo.mem_used_bytes == used

    def test_alloc_misaligned_raises_without_leaking(self, fluid_gbo):
        record = make_fluid_record(fluid_gbo)
        used = fluid_gbo.mem_used_bytes
        with pytest.raises(SchemaError):
            fluid_gbo.alloc_field_buffer(record, "pressure", 801)
        assert fluid_gbo.mem_used_bytes == used

    def test_commit_and_query(self, fluid_gbo):
        record = make_fluid_record(fluid_gbo)
        fluid_gbo.alloc_field_buffer(record, "pressure", 80)
        record.field("pressure").as_array()[:] = 7.0
        fluid_gbo.commit_record(record)

        buf = fluid_gbo.get_field_buffer(
            "fluid", "pressure", [b"block_0001$", b"0.000025$"]
        )
        assert buf.shape == (10,)
        assert (buf == 7.0).all()
        assert fluid_gbo.get_field_buffer_size(
            "fluid", "pressure", [b"block_0001$", b"0.000025$"]
        ) == 80

    def test_query_returns_live_view(self, fluid_gbo):
        """The paper's central contract: the query returns the buffer
        *location*; writes through it mutate the stored data."""
        record = make_fluid_record(fluid_gbo)
        fluid_gbo.alloc_field_buffer(record, "pressure", 80)
        fluid_gbo.commit_record(record)
        keys = [b"block_0001$", b"0.000025$"]
        fluid_gbo.get_field_buffer("fluid", "pressure", keys)[:] = 3.5
        assert (record.field("pressure").as_array() == 3.5).all()

    def test_commit_requires_key_buffers(self, fluid_gbo):
        record = fluid_gbo.new_record("fluid")
        # key buffers are fixed-size, hence allocated; but for a record
        # type with UNKNOWN... keys are always known-size, so commit
        # succeeds with zeroed keys. Verify zeroed keys are queryable.
        fluid_gbo.commit_record(record)
        assert fluid_gbo.has_record(
            "fluid", [b"\x00" * 11, b"\x00" * 9]
        )

    def test_duplicate_commit_raises(self, fluid_gbo):
        fluid_gbo.commit_record(make_fluid_record(fluid_gbo))
        with pytest.raises(DuplicateKeyError):
            fluid_gbo.commit_record(make_fluid_record(fluid_gbo))

    def test_string_keys_accepted_in_queries(self, fluid_gbo):
        record = make_fluid_record(fluid_gbo)
        fluid_gbo.alloc_field_buffer(record, "pressure", 8)
        fluid_gbo.commit_record(record)
        assert fluid_gbo.get_field_buffer_size(
            "fluid", "pressure", ["block_0001$", "0.000025$"]
        ) == 8

    def test_query_missing_key_raises(self, fluid_gbo):
        with pytest.raises(KeyLookupError):
            fluid_gbo.get_field_buffer(
                "fluid", "pressure", [b"nope_______", b"0.000000$"]
            )

    def test_record_count_and_listing(self, fluid_gbo):
        for i in range(3):
            record = make_fluid_record(
                fluid_gbo, block=f"block_{i:04d}$".encode()
            )
            fluid_gbo.commit_record(record)
        assert fluid_gbo.record_count() == 3
        assert fluid_gbo.record_count("fluid") == 3
        records = fluid_gbo.records_of_type("fluid")
        ids = [r.field("block id").as_bytes() for r in records]
        assert ids == sorted(ids)

    def test_delete_record_frees_memory_and_index(self, fluid_gbo):
        record = make_fluid_record(fluid_gbo)
        fluid_gbo.alloc_field_buffer(record, "pressure", 8000)
        fluid_gbo.commit_record(record)
        used = fluid_gbo.mem_used_bytes
        fluid_gbo.delete_record(record)
        assert fluid_gbo.mem_used_bytes < used
        assert not fluid_gbo.has_record(
            "fluid", [b"block_0001$", b"0.000025$"]
        )

    def test_stats_counters(self, fluid_gbo):
        record = make_fluid_record(fluid_gbo)
        fluid_gbo.alloc_field_buffer(record, "pressure", 8)
        fluid_gbo.commit_record(record)
        fluid_gbo.get_field_buffer(
            "fluid", "pressure", [b"block_0001$", b"0.000025$"]
        )
        stats = fluid_gbo.stats
        assert stats.records_committed == 1
        assert stats.queries == 1
        assert stats.bytes_allocated >= 28


class TestMemoryProperties:
    def test_mem_accessors(self):
        with GBO(mem=10_000) as gbo:
            assert gbo.mem_budget_bytes == 10_000
            assert gbo.mem_used_bytes == 0
            assert gbo.mem_high_water_bytes == 0

    def test_constructor_requires_exactly_one_budget(self):
        with pytest.raises(ValueError):
            GBO()
        with pytest.raises(ValueError):
            GBO(mem_mb=1, mem=1024)

    def test_set_mem_space(self):
        with GBO(mem_mb=1) as gbo:
            gbo.set_mem_space(mem_mb=2)
            assert gbo.mem_budget_bytes == 2 * 1024 * 1024
            gbo.set_mem_space(mem=4096)
            assert gbo.mem_budget_bytes == 4096
            with pytest.raises(ValueError):
                gbo.set_mem_space()


class TestMemoryReport:
    def test_memory_report_breakdown(self, fluid_gbo):
        record = make_fluid_record(fluid_gbo)
        fluid_gbo.alloc_field_buffer(record, "pressure", 800)
        report = fluid_gbo.memory_report()
        assert report["used_bytes"] == report["unattached_bytes"]
        assert report["per_unit_bytes"] == {}
        assert report["budget_bytes"] == fluid_gbo.mem_budget_bytes
        assert report["high_water_bytes"] >= report["used_bytes"]
        assert report["evictable_units"] == []

    def test_memory_report_per_unit(self):
        from repro.core.database import GBO
        from repro.core.schema import RecordSchema, SchemaField

        schema = RecordSchema("r", (
            SchemaField("k", DataType.STRING, 4, is_key=True),
            SchemaField("v", DataType.DOUBLE),
        ))

        def read_fn(gbo, name):
            schema.ensure(gbo)
            record = gbo.new_record("r")
            record.field("k").write(name[:4].ljust(4).encode())
            gbo.alloc_field_buffer(record, "v", 160)
            gbo.commit_record(record)

        with GBO(mem_mb=4, background_io=False) as gbo:
            gbo.add_unit("ua", read_fn)
            gbo.wait_unit("ua")
            gbo.finish_unit("ua")
            report = gbo.memory_report()
            assert report["per_unit_bytes"]["ua"] == 4 + 160 + 64
            assert report["unattached_bytes"] == 0
            assert report["evictable_units"] == ["ua"]
