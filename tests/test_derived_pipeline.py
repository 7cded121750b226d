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

import dataclasses
import json

import numpy as np
import pytest

from repro.io.readers import (
    make_snapshot_read_fn,
    snapshot_unit_name,
    solid_schema,
)
from repro.core.database import GBO
from repro.core.derived import DerivedCache
from repro.gen.snapshot import block_key, timestep_id
from repro.viz.apollo import ApolloSession, interactive_trace
from repro.viz import gops as gops_module
from repro.viz.pipeline import Pipeline
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

    def test_snapshot_tokens_stable_and_distinct(self, godiva_data):
        tok = godiva_data.snapshot_token("coords")
        assert tok is not None
        assert godiva_data.snapshot_token("coords") == tok
        assert godiva_data.snapshot_token("conn") != tok


def _gbo_with(snapshots, **engine):
    """A G-build GBO holding ``{tsid: {block_id: {field: array}}}``,
    one unit per time-step named by its tsid, every unit resident."""
    gbo = GBO(mem_mb=16, background_io=False, **engine)
    solid_schema().ensure(gbo)

    def read_fn(database, tsid):
        for block_id, fields in snapshots[tsid].items():
            record = database.new_record("solid")
            record.field("block id").write(
                block_key(block_id).encode("ascii"))
            record.field("time-step id").write(tsid.encode("ascii"))
            for name, values in fields.items():
                database.alloc_field_buffer(
                    record, name, values.nbytes).write(values)
            database.commit_record(record)

    for tsid in snapshots:
        gbo.add_unit(tsid, read_fn)
        gbo.wait_unit(tsid)
    return gbo


class TestSnapshotToken:
    """One content hash per (field, snapshot): equality follows the
    bytes, the block split and the dtype; the hash runs once."""

    T0, T1 = timestep_id(0.0), timestep_id(1e-5)

    def test_equal_bytes_equal_tokens_across_tsids(self):
        blocks = {"block_0000": {"temperature": np.arange(5.0)},
                  "block_0001": {"temperature": np.arange(3.0)}}
        gbo = _gbo_with({self.T0: blocks, self.T1: blocks})
        try:
            ids = list(blocks)
            tok0 = GodivaSnapshotData(gbo, self.T0, ids)
            tok1 = GodivaSnapshotData(gbo, self.T1, ids)
            assert tok0.snapshot_token("temperature") == \
                tok1.snapshot_token("temperature")
        finally:
            gbo.close()

    def test_a_different_value_changes_the_token(self):
        gbo = _gbo_with({
            self.T0: {"block_0000": {"temperature": np.arange(5.0)}},
            self.T1: {"block_0000": {"temperature": np.arange(1.0, 6.0)}},
        })
        try:
            tokens = {GodivaSnapshotData(gbo, tsid, ["block_0000"])
                      .snapshot_token("temperature")
                      for tsid in (self.T0, self.T1)}
            assert len(tokens) == 2
        finally:
            gbo.close()

    def test_block_split_changes_the_token(self):
        """``[ab]`` and ``[a, b]``: the same bytes in one block or two."""
        whole = np.arange(6.0)
        gbo = _gbo_with({
            self.T0: {"block_0000": {"temperature": whole}},
            self.T1: {"block_0000": {"temperature": whole[:2]},
                      "block_0001": {"temperature": whole[2:]}},
        })
        try:
            one = GodivaSnapshotData(gbo, self.T0, ["block_0000"])
            two = GodivaSnapshotData(gbo, self.T1,
                                     ["block_0000", "block_0001"])
            assert one.snapshot_token("temperature") != \
                two.snapshot_token("temperature")
        finally:
            gbo.close()

    def test_dtype_changes_the_token(self):
        """The same 24 bytes as int32 ``conn`` and float64
        ``temperature`` are different content."""
        raw = np.arange(3.0)
        gbo = _gbo_with({self.T0: {"block_0000": {
            "temperature": raw, "conn": raw.view(np.int32)}}})
        try:
            data = GodivaSnapshotData(gbo, self.T0, ["block_0000"])
            assert data.snapshot_token("temperature") != \
                data.snapshot_token("conn")
        finally:
            gbo.close()

    def test_memoized_per_identity(self):
        blocks = {f"block_{i:04d}": {"temperature": np.full(4, float(i))}
                  for i in range(3)}
        gbo = _gbo_with({self.T0: blocks})
        try:
            data = GodivaSnapshotData(gbo, self.T0, list(blocks))
            queries = []
            query = gbo.get_field_buffer

            def counted(*args):
                queries.append(args)
                return query(*args)

            gbo.get_field_buffer = counted
            first = data.snapshot_token("temperature")
            assert len(queries) == 3   # one pass over the new bytes
            again = GodivaSnapshotData(gbo, self.T0, list(blocks))
            assert again.snapshot_token("temperature") == first
            assert data.snapshot_token("temperature") == first
            assert len(queries) == 3   # a revisit is one lookup
            # Another block order is another identity.
            reordered = GodivaSnapshotData(gbo, self.T0,
                                           list(blocks)[::-1])
            assert reordered.snapshot_token("temperature") != first
            assert len(queries) == 6
        finally:
            gbo.close()

    def test_none_without_a_cache(self):
        gbo = _gbo_with({self.T0: {"block_0000": {
            "temperature": np.arange(3.0)}}}, derived_cache=False)
        try:
            data = GodivaSnapshotData(gbo, self.T0, ["block_0000"])
            assert data.snapshot_token("temperature") is None
        finally:
            gbo.close()


class TestFrameKey:
    class _Tokens:
        """Snapshot data reduced to what a frame key reads."""

        def derived_cache(self):
            return object()

        def snapshot_token(self, name):
            return f"token of {name}"

    def test_key_is_remade_when_the_ops_camera_or_a_flag_changes(self):
        """The frame key keeps its op list, camera and flags in canonical
        form between frames; each change of one of them gives the key the
        whole tuple names, as if nothing were kept."""
        pipeline = Pipeline(gops_module.test_gops("medium"))
        data = self._Tokens()

        def spelled_out():
            tokens = tuple(
                data.snapshot_token(name)
                for name in ("coords", "conn",
                             *sorted(pipeline.gops.fields_used())))
            ops_sig = json.dumps(
                [op.to_json() for op in pipeline.gops.ops], sort_keys=True)
            return ("frame", ops_sig, pipeline._camera_sig(),
                    pipeline.render, pipeline.colorbar, tokens)

        names = set()
        for change in (
            lambda: None,
            lambda: setattr(pipeline.camera, "position", (4.0, 5.0, 6.0)),
            lambda: setattr(pipeline, "gops", gops_module.GraphicsOps(
                [dataclasses.replace(pipeline.gops.ops[0], vmax=1.0),
                 *pipeline.gops.ops[1:]])),
            lambda: setattr(pipeline, "colorbar", True),
            lambda: setattr(pipeline, "render", False),
        ):
            change()
            key = pipeline._frame_key(data)
            assert key[0] == "frame"
            name = DerivedCache.policy_name(key)
            assert name == DerivedCache.policy_name(spelled_out())
            assert pipeline._frame_key(data) == key
            names.add(name)
        assert len(names) == 5


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
            assert data.snapshot_token("coords") is None
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


class TestDerivedCounts:
    """Derived-cache hits and misses are pinned: a token change that
    splits or merges cache keys shows here as a count change. The
    numbers are those of the per-block-token design the one-hash
    snapshot token replaced."""

    def test_apollo_session_trace(self, small_dataset):
        """Pinned per product kind: one ``cover`` per frame miss (the
        geometry prefix, boundary + both slices, as one submission) and
        one ``cut`` per slice per frame miss, beside every other kind."""
        trace = interactive_trace(4, 12, "browse", seed=7)
        session = ApolloSession(small_dataset.directory, test="medium",
                                mem_mb=64, render=True)
        counts = {}
        cache = session.gbo.derived
        cache.get = _counting_get(cache.get, counts)
        try:
            for step in trace:
                session.view(step)
            assert counts == {
                "bfaces": (3, 1), "cover": (3, 1), "cut": (6, 2),
                "field": (0, 16), "frame": (8, 4), "mag": (0, 8),
                "mesh": (15, 1), "soup": (0, 8),
            }
            stats = session.gbo.stats
            assert (stats.derived_hits, stats.derived_misses) == (35, 41)
        finally:
            session.close()

    def test_tg_voyager_run(self, small_dataset, tmp_path, monkeypatch):
        """``complex`` per product kind: its four slices are cut once
        each and carried every step after; no ``cover`` is asked (an
        isosurface comes first)."""
        counts = {}
        monkeypatch.setattr(DerivedCache, "get", _counting_get(
            DerivedCache.get, counts, method=True))
        result = Voyager(VoyagerConfig(
            data_dir=small_dataset.directory, test="complex", mode="TG",
            mem_mb=64, derived_cache=True, render=True,
            out_dir=str(tmp_path), snapshot_indices=[0, 1, 0, 2, 1],
        )).run()
        assert counts == {
            "cut": (8, 4), "field": (21, 6), "frame": (2, 3),
            "mesh": (26, 1), "soup": (0, 15),
        }
        assert (result.gbo_stats["derived_hits"],
                result.gbo_stats["derived_misses"]) == (57, 29)


def _counting_get(lookup, counts, method=False):
    """Wrap a ``DerivedCache.get`` to count ``(hits, misses)`` per
    product kind (the key's first part) into ``counts``."""
    def count(key, value):
        hits, misses = counts.get(key[0], (0, 0))
        counts[key[0]] = ((hits + 1, misses) if value is not None
                          else (hits, misses + 1))
        return value

    if method:
        return lambda self, key: count(key, lookup(self, key))
    return lambda key: count(key, lookup(key))


class TestOneQueryPerBuffer:
    """A frame miss asks the GBO once per (block, field) it reads: the
    snapshot token's provider and the accessors share one query."""

    def test_tg_frame_miss(self, small_dataset):
        gbo = GBO(mem_mb=64)
        try:
            solid_schema().ensure(gbo)
            gbo.add_unit(snapshot_unit_name(0), make_snapshot_read_fn(
                small_dataset, fields=ALL_FIELDS))
            gbo.wait_unit(snapshot_unit_name(0))
            data = GodivaSnapshotData(gbo, small_dataset.snapshots[0].tsid,
                                      small_dataset.block_ids)
            asked = []
            query = gbo.get_field_buffer

            def counted(type_name, name, keys):
                asked.append((bytes(keys[0]), name))
                return query(type_name, name, keys)

            gbo.get_field_buffer = counted
            before = gbo.stats.queries
            result = Pipeline(gops_module.test_gops("complex"),
                              render=True).process(data)
            assert result.triangles > 0
            assert gbo.stats.derived_misses > 0     # a miss, not a hit
            assert len(asked) == len(set(asked))
            assert gbo.stats.queries - before == len(asked)
            blocks = {key for key, _name in asked}
            assert len(blocks) == len(small_dataset.block_ids)
        finally:
            gbo.close()
