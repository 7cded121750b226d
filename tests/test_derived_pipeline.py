"""Derived cache through the viz pipeline: identity and zero-copy.

Two contracts from the derived-data cache plane:

* **Bit-identity** — enabling the cache must not change a single byte
  of rendered output or a single triangle, across every canned op-set
  and a revisit schedule (the memoized path is an optimization, never
  an approximation).
* **Read-only views** — :class:`GodivaSnapshotData` hands out zero-copy
  ``writeable=False`` views of the GBO's buffers; in-place mutation
  raises rather than corrupting the shared buffer and the cache's
  content-token mapping.
"""

import numpy as np
import pytest

from repro.io.readers import (
    make_snapshot_read_fn,
    snapshot_unit_name,
    solid_schema,
)
from repro.core.database import GBO
from repro.viz.voyager import GodivaSnapshotData, Voyager, VoyagerConfig

ALL_FIELDS = ("coords", "conn", "ave_stress", "temperature",
              "velocity", "plastic_strain")


@pytest.fixture
def godiva_data(small_dataset):
    """A GodivaSnapshotData over snapshot 0, with a live derived cache."""
    gbo = GBO(mem_mb=64, background_io=False)
    solid_schema().ensure(gbo)
    read_fn = make_snapshot_read_fn(small_dataset, fields=ALL_FIELDS)
    gbo.add_unit(snapshot_unit_name(0), read_fn)
    gbo.wait_unit(snapshot_unit_name(0))
    data = GodivaSnapshotData(
        gbo, small_dataset.snapshots[0].tsid, small_dataset.block_ids
    )
    yield data
    gbo.close()


class TestReadOnlyViews:
    def test_coords_mutation_raises(self, godiva_data):
        block = godiva_data.block_ids()[0]
        coords = godiva_data.coords(block)
        with pytest.raises(ValueError):
            coords[0, 0] = 1e9

    def test_connectivity_mutation_raises(self, godiva_data):
        block = godiva_data.block_ids()[0]
        conn = godiva_data.connectivity(block)
        with pytest.raises(ValueError):
            conn[0, 0] = -1

    def test_field_mutation_raises(self, godiva_data):
        block = godiva_data.block_ids()[0]
        field = godiva_data.field(block, "temperature")
        with pytest.raises(ValueError):
            field[0] = 0.0
        vec = godiva_data.field(block, "velocity")
        with pytest.raises(ValueError):
            vec[:] = 0.0

    def test_views_are_zero_copy(self, godiva_data):
        """Two reads of the same buffer share memory — views over the
        engine's storage, not per-call copies."""
        block = godiva_data.block_ids()[0]
        first = godiva_data.coords(block)
        second = godiva_data.coords(block)
        assert np.shares_memory(first, second)
        # The read-only flag is per-view: the engine's own buffer stays
        # writable for record updates.
        raw = godiva_data._gbo.get_field_buffer(
            "solid", "coords", godiva_data._keys(block)
        )
        assert raw.flags.writeable

    def test_derived_tokens_stable_and_distinct(self, godiva_data):
        block = godiva_data.block_ids()[0]
        tok = godiva_data.derived_token(block, "coords")
        assert tok is not None
        assert godiva_data.derived_token(block, "coords") == tok
        assert godiva_data.derived_token(block, "conn") != tok


class TestCacheDisabled:
    def test_hooks_degrade_to_none(self, small_dataset):
        gbo = GBO(mem_mb=64, background_io=False, derived_cache=False)
        try:
            solid_schema().ensure(gbo)
            read_fn = make_snapshot_read_fn(
                small_dataset, fields=ALL_FIELDS
            )
            gbo.add_unit(snapshot_unit_name(0), read_fn)
            gbo.wait_unit(snapshot_unit_name(0))
            data = GodivaSnapshotData(
                gbo, small_dataset.snapshots[0].tsid,
                small_dataset.block_ids,
            )
            assert data.derived_cache() is None
            assert data.derived_token(
                data.block_ids()[0], "coords"
            ) is None
        finally:
            gbo.close()


def _run(dataset, out_dir, *, test, derived_cache, mem_mb=64.0,
         snapshot_indices=None):
    config = VoyagerConfig(
        data_dir=dataset.directory,
        test=test,
        mode="G",
        mem_mb=mem_mb,
        derived_cache=derived_cache,
        render=True,
        out_dir=str(out_dir),
        snapshot_indices=snapshot_indices,
    )
    return Voyager(config).run()


def _frames(result):
    payload = {}
    for path in result.images:
        with open(path, "rb") as f:
            payload[path.rsplit("/", 1)[-1]] = f.read()
    return payload


class TestBitIdentity:
    """Property: cache-on output == cache-off output, byte for byte."""

    @pytest.mark.parametrize("test", ["simple", "medium", "complex"])
    def test_opset_identity_on_revisit(self, small_dataset, tmp_path,
                                       test):
        schedule = [0, 1, 0, 1]   # revisits exercise the memo path
        on = _run(small_dataset, tmp_path / "on", test=test,
                  derived_cache=True, snapshot_indices=schedule)
        off = _run(small_dataset, tmp_path / "off", test=test,
                   derived_cache=False, snapshot_indices=schedule)
        assert on.triangles == off.triangles
        frames_on, frames_off = _frames(on), _frames(off)
        assert frames_on.keys() == frames_off.keys() and frames_on
        for name in frames_on:
            assert frames_on[name] == frames_off[name], (
                f"{test}: frame {name} differs with the cache enabled"
            )
        assert off.gbo_stats["derived_hits"] == 0
        assert on.gbo_stats["derived_hits"] > 0

    def test_identity_under_squeezed_budget(self, small_dataset,
                                            tmp_path):
        """Evictions mid-run must not change the output either."""
        schedule = [0, 1, 0, 1]
        on = _run(small_dataset, tmp_path / "on", test="simple",
                  derived_cache=True, snapshot_indices=schedule)
        # Half a megabyte holds neither the frames nor both units:
        # cache entries and a unit are evicted and the unit reloaded.
        squeezed = _run(small_dataset, tmp_path / "sq", test="simple",
                        derived_cache=True, mem_mb=0.5,
                        snapshot_indices=schedule)
        assert squeezed.gbo_stats["derived_evictions"] > 0
        assert squeezed.gbo_stats["units_reloaded"] > 0
        assert squeezed.triangles == on.triangles
        frames_on, frames_sq = _frames(on), _frames(squeezed)
        assert frames_on.keys() == frames_sq.keys()
        for name in frames_on:
            assert frames_on[name] == frames_sq[name]
