"""Snapshot-batched extraction: identity with the per-block oracle,
accessor order, and cache semantics at the snapshot grain.

:meth:`Pipeline.extract` runs one kernel pass per op over the
snapshot's merged mesh. Its contract is that nobody can tell: every
op's soup equals ``tests/reference_extract.py`` (the per-(op, block)
loop it replaced) byte for byte, on every backend and however the
merged tet array is split into ranges; the O build's reads happen in
the order they always did; and the derived cache memoizes at the new
grain without wedging a squeezed budget.
"""

import glob
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pool_doubles import RecordingPool
from reference_extract import reference_extract

import repro.viz.pipeline as pipeline_module
from repro.core.compute import ComputePool
from repro.core.compute_proc import ProcessComputePool
from repro.core.database import GBO
from repro.core.derived import DerivedCache, content_token
from repro.core.memory_manager import MemoryManager
from repro.gen.snapshot import SnapshotSpec, generate_dataset
from repro.gen.tetmesh import structured_tet_block
from repro.gen.titan import TitanConfig
from repro.io.readers import (
    make_snapshot_read_fn,
    snapshot_unit_name,
    solid_schema,
)
from repro.viz.apollo import ApolloSession, interactive_trace
from repro.viz import gops as gops_module
from repro.viz.gops import GraphicsOp, GraphicsOps
from repro.viz.pipeline import (
    Pipeline,
    SnapshotData,
    merge_blocks,
)
from repro.viz.voyager import (
    DirectSnapshotData,
    GodivaSnapshotData,
    Voyager,
    VoyagerConfig,
)

TESTS = ("simple", "medium", "complex")


def assert_same_soup(soup, expected, label=""):
    assert soup.n_triangles == expected.n_triangles, label
    assert soup.vertices.tobytes() == expected.vertices.tobytes(), label
    assert soup.values.tobytes() == expected.values.tobytes(), label


# ----------------------------------------------------------------------
# Identity matrix: op-set x backend, against the oracle
# ----------------------------------------------------------------------

def _direct(dataset):
    return DirectSnapshotData(dataset.snapshot_paths(0),
                              file_format=dataset.file_format)


def _make_pool(backend):
    if backend == "thread2":
        return ComputePool(2, spawn_threads=1)
    if backend == "process2":
        return ProcessComputePool(2, spawn_procs=2, start_method="fork")
    return None


@pytest.mark.parametrize("backend",
                         ["no-cache", "cache", "thread2", "process2"])
@pytest.mark.parametrize("test", TESTS)
def test_soups_match_oracle(small_dataset, monkeypatch, test, backend):
    # 12 blocks x 168 tets: a small grain makes the pooled builds split
    # the merged tet array into several ranges.
    monkeypatch.setattr(pipeline_module, "SUBBLOCK_MIN_TETS", 256)
    gops = gops_module.test_gops(test)
    oracle = _direct(small_dataset)
    expected = [reference_extract(oracle, op) for op in gops]
    oracle.close()

    pool = _make_pool(backend)
    gbo = GBO(mem_mb=64, background_io=False,
              derived_cache=backend != "no-cache")
    try:
        if pool is not None:
            pool.start()
        solid_schema().ensure(gbo)
        gbo.add_unit(snapshot_unit_name(0), make_snapshot_read_fn(
            small_dataset, fields=gops.fields_used()))
        gbo.wait_unit(snapshot_unit_name(0))
        data = GodivaSnapshotData(gbo, small_dataset.snapshots[0].tsid,
                                  small_dataset.block_ids)
        pipeline = Pipeline(gops, render=False, pool=pool)
        # Twice: the second pass reads every stage from the cache
        # (when there is one) and must hand back the same bytes.
        for attempt in ("cold", "warm"):
            for op, want in zip(gops, expected):
                assert_same_soup(pipeline.extract(data, op), want,
                                 f"{test}/{backend}/{attempt}/{op.kind}")
        if backend == "thread2":
            plan = pipeline.begin(data)
            assert len(plan.tasks) == len(gops.ops)
            for task, want in zip(plan.tasks, expected):
                assert_same_soup(task.wait(), want, "lookahead task")
        if pool is not None and test != "simple":
            assert pool.stats.compute_tasks > 0   # ranges did fan out
    finally:
        gbo.close()
        if pool is not None:
            pool.close()


@pytest.mark.parametrize("test", TESTS)
def test_original_build_matches_oracle(small_dataset, test):
    gops = gops_module.test_gops(test)
    data, oracle = _direct(small_dataset), _direct(small_dataset)
    try:
        pipeline = Pipeline(gops, render=False)
        for op in gops:
            assert_same_soup(pipeline.extract(data, op),
                             reference_extract(oracle, op))
    finally:
        data.close()
        oracle.close()


#: (bytes_read, read_calls, seeks, settles) of the O build over the
#: session dataset, recorded at the commit before extraction was
#: batched: the merged gather must not move a single read.
O_BUILD_IO = {
    "simple": (347032, 264, 32, 232),
    "medium": (531352, 456, 48, 408),
    "complex": (310168, 264, 32, 232),
}


@pytest.mark.parametrize("test", TESTS)
def test_original_build_io_pattern_pinned(small_dataset, test):
    result = Voyager(VoyagerConfig(
        data_dir=small_dataset.directory, test=test, mode="O",
        render=False,
    )).run()
    assert (result.bytes_read, result.read_calls, result.seeks,
            result.settles) == O_BUILD_IO[test]


def test_accessor_order_is_block_major():
    """coords, connectivity, field — block by block, op by op."""
    calls = []

    class Recording(PartitionData):
        def coords(self, block_id):
            calls.append(("coords", block_id))
            return super().coords(block_id)

        def connectivity(self, block_id):
            calls.append(("connectivity", block_id))
            return super().connectivity(block_id)

        def field(self, block_id, name):
            calls.append(("field", block_id))
            return super().field(block_id, name)

    data = Recording(_MESH, np.arange(_MESH.n_tets) % 3, 3)
    ops = [GraphicsOp("isosurface", "temperature", isovalue=0.5),
           GraphicsOp("boundary", "plastic_strain")]
    pipeline = Pipeline(GraphicsOps(ops), render=False)
    for op in ops:
        pipeline.extract(data, op)
    per_op = [(name, block_id) for block_id in data.block_ids()
              for name in ("coords", "connectivity", "field")]
    assert calls == per_op * 2


# ----------------------------------------------------------------------
# Property: any partition of one mesh into blocks
# ----------------------------------------------------------------------

_MESH = structured_tet_block(3, 3, 3)


class PartitionData(SnapshotData):
    """One mesh cut into blocks by a per-tet label; in memory.

    Each block owns a renumbered copy of the nodes its tets touch; a
    label no tet carries is an empty block. Optionally serves content
    tokens and a derived cache, like the GODIVA-backed data does.
    """

    def __init__(self, mesh, labels, n_blocks, cache=None, bump=None):
        self._cache = cache
        self._blocks = {}
        for index in range(n_blocks):
            tets = mesh.tets[labels == index]
            used, inverse = np.unique(tets, return_inverse=True)
            coords = mesh.nodes[used]
            conn = inverse.reshape(-1, 4)
            centroids = coords[conn].mean(axis=1)
            x, y, z = coords.T
            fields = {
                "temperature": x + 0.3 * y * z,
                "velocity": np.stack([x, y * y, z - x], axis=1),
                "plastic_strain": centroids @ np.array([0.2, 0.5, 1.0]),
            }
            if bump == index:
                fields["temperature"] = fields["temperature"] + 1.0
            self._blocks[f"block_{index:04d}"] = (coords, conn, fields)

    def derived_cache(self):
        return self._cache

    def snapshot_token(self, name):
        if self._cache is None:
            return None
        return content_token(*[
            {"coords": coords, "conn": conn}.get(name, fields.get(name))
            for coords, conn, fields in self._blocks.values()
        ])

    def block_ids(self):
        return list(self._blocks)

    def coords(self, block_id):
        return self._blocks[block_id][0]

    def connectivity(self, block_id):
        return self._blocks[block_id][1]

    def field(self, block_id, name):
        return self._blocks[block_id][2][name]


_OPS = st.one_of(
    st.builds(GraphicsOp, st.just("isosurface"),
              st.sampled_from(["temperature", "plastic_strain"]),
              isovalue=st.floats(-0.2, 1.6)),
    st.builds(GraphicsOp, st.just("isosurface"), st.just("velocity"),
              component=st.sampled_from(["magnitude", "x", "z"]),
              isovalue=st.floats(-0.2, 1.6)),
    st.builds(GraphicsOp, st.just("slice"),
              st.sampled_from(["temperature", "velocity",
                               "plastic_strain"]),
              origin=st.tuples(*[st.floats(0.1, 0.9)] * 3),
              normal=st.sampled_from([(0.0, 0.0, 1.0), (1.0, 2.0, -0.5),
                                      (0.0, 1.0, 0.0)])),
    st.builds(GraphicsOp, st.just("boundary"),
              st.sampled_from(["temperature", "plastic_strain"])),
)


@settings(max_examples=60, deadline=None)
@given(
    n_blocks=st.integers(1, 6),
    labels=st.lists(st.integers(0, 5), min_size=_MESH.n_tets,
                    max_size=_MESH.n_tets),
    op=_OPS,
    grain=st.sampled_from([16, 50, 10**6]),
)
def test_any_partition_matches_oracle(n_blocks, labels, op, grain):
    """Random partitions — labels nobody carries (empty blocks), blocks
    the surface misses, a single block — and a forced multi-range split
    (``grain`` below the mesh size on a parallel pool double)."""
    labels = np.asarray(labels) % n_blocks
    if n_blocks > 2:
        labels[labels == 1] = 0          # block 1 is always empty
    data = PartitionData(_MESH, labels, n_blocks)
    pool = RecordingPool()
    with mock.patch.object(pipeline_module, "SUBBLOCK_MIN_TETS", grain):
        soup = Pipeline(GraphicsOps([op]), render=False,
                        pool=pool).extract(data, op)
    assert_same_soup(soup, reference_extract(data, op))
    if op.kind == "isosurface" and grain < _MESH.n_tets // 2:
        assert len(pool.tasks) >= 2
    assert all(task.released for task in pool.tasks)


def test_partition_cases_named_in_the_contract():
    """The cases the property must reach, pinned deterministically."""
    x_mid = _MESH.nodes[_MESH.tets].mean(axis=1)[:, 0]
    cases = {
        "single block": (np.zeros(_MESH.n_tets, dtype=int), 1),
        "empty block": (np.where(x_mid < 0.5, 0, 2), 3),
        # temperature = x + 0.3yz < 0.5 everywhere in block 0.
        "uncut block": (np.where(x_mid < 0.3, 0, 1), 2),
    }
    op = GraphicsOp("isosurface", "temperature", isovalue=0.75)
    for name, (labels, n_blocks) in cases.items():
        data = PartitionData(_MESH, labels, n_blocks)
        soup = Pipeline(GraphicsOps([op]), render=False).extract(data, op)
        assert soup.n_triangles > 0, name
        assert_same_soup(soup, reference_extract(data, op), name)


def test_no_blocks_is_an_empty_soup():
    data = PartitionData(_MESH, np.zeros(_MESH.n_tets, dtype=int), 0)
    op = GraphicsOp("boundary", "temperature")
    pipeline = Pipeline(GraphicsOps([op]), render=False)
    assert pipeline.extract(data, op).n_triangles == 0


def test_merge_blocks_offsets_and_block_index():
    a, b = structured_tet_block(1, 1, 1), structured_tet_block(2, 1, 1)
    empty = (np.empty((0, 3)), np.empty((0, 4), dtype=np.int64))
    nodes, tets, tet_block = merge_blocks(
        [a.nodes, empty[0], b.nodes], [a.tets, empty[1], b.tets])
    assert len(nodes) == a.n_nodes + b.n_nodes
    assert np.array_equal(tets[:a.n_tets], a.tets)
    assert np.array_equal(tets[a.n_tets:], b.tets + a.n_nodes)
    assert tet_block.tolist() == [0] * a.n_tets + [2] * b.n_tets


# ----------------------------------------------------------------------
# Cache semantics at the snapshot grain
# ----------------------------------------------------------------------

def _standalone_cache(budget_bytes):
    memory = MemoryManager(budget_bytes)
    cache = DerivedCache(memory)
    memory.bind(release_records=lambda name: 0,
                derived=cache)
    return cache


def _entries(cache, stage):
    return [name for name, _nbytes in cache.report()
            if name.startswith(f"derived::{stage}|")]


def test_constant_mesh_is_merged_once(small_dataset):
    """The generated mesh does not move between time-steps: frame 2 and
    later hit the merged-mesh entry (and the stages keyed by the merged
    connectivity, and each slice's cut) instead of re-merging."""
    gops = gops_module.test_gops("medium")
    pipeline = Pipeline(gops, render=False)
    with GBO(mem_mb=64, background_io=False) as gbo:
        solid_schema().ensure(gbo)
        read_fn = make_snapshot_read_fn(small_dataset,
                                        fields=gops.fields_used())
        mesh_tokens = set()
        for step in range(3):
            gbo.add_unit(snapshot_unit_name(step), read_fn)
            gbo.wait_unit(snapshot_unit_name(step))
            data = GodivaSnapshotData(
                gbo, small_dataset.snapshots[step].tsid,
                small_dataset.block_ids)
            before = gbo.stats.derived_hits
            pipeline.process(data)
            mesh_tokens.add((data.snapshot_token("coords"),
                             data.snapshot_token("conn")))
            if step:
                # The mesh once per op, plus the boundary skin and the
                # two slices' cuts.
                assert (gbo.stats.derived_hits - before
                        == len(gops.ops) + 1 + 2)
        assert len(mesh_tokens) == 1
        assert len(_entries(gbo.derived, "mesh")) == 1
        assert len(_entries(gbo.derived, "bfaces")) == 1
        assert len(_entries(gbo.derived, "cut")) == 2
        assert len(_entries(gbo.derived, "soup")) == 3 * 2
        assert len(_entries(gbo.derived, "field")) == 3 * len(
            gops.fields_used())


def test_one_changed_block_invalidates_soup_not_mesh():
    labels = np.arange(_MESH.n_tets) % 4
    cache = _standalone_cache(8 << 20)
    ops = [GraphicsOp("isosurface", "temperature", isovalue=0.75),
           GraphicsOp("slice", "plastic_strain",
                      origin=(0.5, 0.5, 0.5), normal=(0.0, 0.0, 1.0))]
    pipeline = Pipeline(GraphicsOps(ops), render=False)
    before = PartitionData(_MESH, labels, 4, cache=cache)
    for op in ops:
        pipeline.extract(before, op)
    assert len(_entries(cache, "mesh")) == 1
    assert len(_entries(cache, "soup")) == 1      # a slice keeps its cut
    assert len(_entries(cache, "cut")) == 1
    assert len(_entries(cache, "e2n")) == 1
    assert len(_entries(cache, "adj")) == 1

    after = PartitionData(_MESH, labels, 4, cache=cache, bump=2)
    hits = cache.stats.derived_hits
    for op in ops:
        assert_same_soup(pipeline.extract(after, op),
                         reference_extract(after, op))
    # temperature changed in block 2: a new isosurface soup and a new
    # merged field, the mesh entry serving the recompute; the strain
    # slice carries its unchanged field onto its stored cut (mesh,
    # field, scatter and cut hits).
    assert len(_entries(cache, "mesh")) == 1
    assert len(_entries(cache, "soup")) == 2
    assert len(_entries(cache, "cut")) == 1
    assert len(_entries(cache, "field")) == 3
    assert cache.stats.derived_hits - hits == 1 + 4


def test_oversized_merged_arrays_are_returned_uncached():
    """A merged mesh above MAX_ENTRY_BUDGET_FRACTION of the budget is
    used and dropped — never cached, never an error."""
    mesh_bytes = sum(a.nbytes for a in merge_blocks(
        [_MESH.nodes], [_MESH.tets]))
    cache = _standalone_cache(int(mesh_bytes * 1.5))
    data = PartitionData(_MESH, np.arange(_MESH.n_tets) % 3, 3,
                         cache=cache)
    op = GraphicsOp("isosurface", "temperature", isovalue=0.75)
    pipeline = Pipeline(GraphicsOps([op]), render=False)
    for _ in range(2):
        assert_same_soup(pipeline.extract(data, op),
                         reference_extract(data, op))
    assert _entries(cache, "mesh") == []
    assert cache.resident_bytes <= int(mesh_bytes * 1.5)


@pytest.fixture(scope="module")
def backforth_dataset(tmp_path_factory):
    """The ``interactive_backforth`` shape: 30 blocks, 8 steps."""
    directory = tmp_path_factory.mktemp("backforth")
    return generate_dataset(SnapshotSpec(
        config=TitanConfig.scaled(0.25), n_steps=8, files_per_snapshot=8,
    ), str(directory))


def test_three_mb_budget_admits_evicts_and_reloads(backforth_dataset):
    """Units plus merged arrays, soups and frames outgrow 3 MB: the
    session evicts and reloads — no MemoryBudgetError — and every view
    equals the uncached render."""
    # Walk forward flipping back one step, then jump back to the start
    # — by then the first units are long evicted.
    views = interactive_trace(5, 13, "backforth") + [0, 1]
    reference = Voyager(VoyagerConfig(
        data_dir=backforth_dataset.directory, test="medium", mode="G",
        derived_cache=False, snapshot_indices=sorted(set(views)),
    ))
    frames = {}
    reference._maybe_write_image = (
        lambda step, image, images: frames.__setitem__(step, image))
    reference.run()
    with ApolloSession(backforth_dataset.directory, test="medium",
                       mem_mb=3, render=True, predictive=True) as session:
        for step in views:
            assert np.array_equal(session.view(step), frames[step])
        stats = session.gbo.stats.snapshot()
    assert stats["derived_hits"] > 0
    assert stats["derived_evictions"] > 0
    assert stats["evictions"] > 0
    assert stats["units_reloaded"] > 0


def test_shared_memory_build_leaves_dev_shm_clean(small_dataset):
    """Process backend: the GBO's SharedMemoryArena holds the merged
    arrays (and exports them zero-copy to range tasks); nothing
    survives close."""
    before = set(glob.glob("/dev/shm/godiva*"))
    with mock.patch.object(pipeline_module, "SUBBLOCK_MIN_TETS", 256):
        result = Voyager(VoyagerConfig(
            data_dir=small_dataset.directory, test="complex", mode="TG",
            compute_workers=2, compute_backend="process", render=False,
            snapshot_indices=[0, 1, 0],
        )).run()
    assert result.gbo_stats["compute_dispatches"] > 0
    assert result.gbo_stats["derived_hits"] > 0
    assert set(glob.glob("/dev/shm/godiva*")) == before
