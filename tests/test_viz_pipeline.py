"""The processing pipeline over an in-memory SnapshotData stub."""

import numpy as np
import pytest
from pool_doubles import RecordingPool

import repro.viz.pipeline as pipeline_module
from repro.gen.quantities import node_fields, element_fields
from repro.gen.tetmesh import structured_tet_block
from repro.viz.camera import Camera
from repro.viz.gops import GraphicsOp, GraphicsOps
from repro.viz.isosurface import marching_tets
from repro.viz.pipeline import (
    Pipeline,
    SnapshotData,
    field_components,
    is_element_field,
    scalarize,
)


class StubData(SnapshotData):
    """Two unit-cube blocks with analytic fields; counts accesses."""

    def __init__(self):
        self.mesh = structured_tet_block(3, 3, 3)
        self.calls = {"coords": 0, "conn": 0, "field": 0}
        self.ops_seen = []

    def begin_op(self, op):
        self.ops_seen.append(op.field)

    def block_ids(self):
        return ["block_0000", "block_0001"]

    def coords(self, block_id):
        self.calls["coords"] += 1
        offset = 0.0 if block_id.endswith("0") else 2.0
        nodes = self.mesh.nodes.copy()
        nodes[:, 0] += offset
        return nodes

    def connectivity(self, block_id):
        self.calls["conn"] += 1
        return self.mesh.tets

    def field(self, block_id, name):
        self.calls["field"] += 1
        coords = self.coords(block_id)
        self.calls["coords"] -= 1   # internal reuse, not an access
        if is_element_field(name):
            centroids = coords[self.mesh.tets].mean(axis=1)
            return element_fields(centroids, 1e-4)[name]
        return node_fields(coords, 1e-4)[name]


class TestHelpers:
    def test_field_components(self):
        assert field_components("velocity") == 3
        assert field_components("temperature") == 1
        assert field_components("plastic_strain") == 1
        with pytest.raises(KeyError):
            field_components("ghost")

    def test_is_element_field(self):
        assert is_element_field("plastic_strain")
        assert not is_element_field("velocity")
        with pytest.raises(KeyError):
            is_element_field("ghost")

    def test_scalarize_scalar_passthrough(self):
        values = np.arange(4.0)
        assert np.array_equal(scalarize(values, None), values)

    def test_scalarize_magnitude(self):
        vec = np.array([[3.0, 4.0, 0.0]])
        assert scalarize(vec, "magnitude")[0] == pytest.approx(5.0)
        assert scalarize(vec, None)[0] == pytest.approx(5.0)

    def test_scalarize_components(self):
        vec = np.array([[1.0, 2.0, 3.0]])
        assert scalarize(vec, "x")[0] == 1.0
        assert scalarize(vec, "y")[0] == 2.0
        assert scalarize(vec, "z")[0] == 3.0


class TestPipeline:
    def test_boundary_op(self):
        data = StubData()
        pipeline = Pipeline(GraphicsOps([
            GraphicsOp("boundary", "velocity", component="magnitude"),
        ]), camera=Camera.fit_bounds((0, 0, 0), (3, 1, 1)))
        result = pipeline.process(data)
        # 12 n^2 boundary triangles per block at n=3.
        assert result.triangles == 2 * 12 * 9
        assert result.image is not None

    def test_isosurface_and_slice_ops(self):
        data = StubData()
        pipeline = Pipeline(GraphicsOps([
            GraphicsOp("isosurface", "temperature", isovalue=600.0),
            GraphicsOp("slice", "ave_stress",
                       origin=(0.5, 0.5, 0.5), normal=(0, 0, 1)),
        ]), render=False)
        result = pipeline.process(data)
        assert result.image is None
        assert len(result.op_triangles) == 2
        assert result.op_triangles[1] > 0   # slice always cuts

    def test_element_field_contoured_via_node_average(self):
        data = StubData()
        pipeline = Pipeline(GraphicsOps([
            GraphicsOp("slice", "plastic_strain",
                       origin=(0.5, 0.5, 0.5), normal=(0, 0, 1)),
        ]), render=False)
        result = pipeline.process(data)
        assert result.op_triangles[0] > 0

    def test_begin_op_called_per_op(self):
        data = StubData()
        pipeline = Pipeline(GraphicsOps([
            GraphicsOp("boundary", "velocity"),
            GraphicsOp("boundary", "temperature"),
        ]), render=False)
        pipeline.process(data)
        assert data.ops_seen == ["velocity", "temperature"]

    def test_access_counts_op_major(self):
        """The pipeline asks for mesh + field per (op, block) when no
        derived cache holds them merged."""
        data = StubData()
        pipeline = Pipeline(GraphicsOps([
            GraphicsOp("boundary", "velocity"),
            GraphicsOp("boundary", "temperature"),
        ]), render=False)
        pipeline.process(data)
        assert data.calls["coords"] == 4   # 2 ops x 2 blocks
        assert data.calls["field"] == 4

    def test_base_class_is_abstract(self):
        data = SnapshotData()
        data.begin_op(None)   # default hook is a no-op
        with pytest.raises(NotImplementedError):
            data.block_ids()
        with pytest.raises(NotImplementedError):
            data.coords("b")
        with pytest.raises(NotImplementedError):
            data.connectivity("b")
        with pytest.raises(NotImplementedError):
            data.field("b", "f")


class TestMarchingFanOut:
    """``Pipeline._marching``: one kernel, however many ranges."""

    @pytest.fixture(autouse=True)
    def small_grain(self, monkeypatch):
        # The shipped grain only fans out genuinely large meshes; shrink
        # it so an 8^3 block (3072 tets) splits and a 3^3 one does not.
        monkeypatch.setattr(pipeline_module, "SUBBLOCK_MIN_TETS", 1024)

    def marching(self, pool, n=8):
        mesh = structured_tet_block(n, n, n)
        levels = np.linalg.norm(mesh.nodes - 0.5, axis=1)
        pipeline = Pipeline(GraphicsOps([
            GraphicsOp("isosurface", "temperature", isovalue=0.35),
        ]), render=False, pool=pool)
        whole = marching_tets(mesh.nodes, mesh.tets, levels, 0.35)
        return whole, lambda: pipeline._marching(
            mesh.nodes, mesh.tets, levels, 0.35,
            np.zeros(mesh.n_tets, dtype=np.int64),
        )

    def test_fan_out_matches_single_range_and_releases(self):
        pool = RecordingPool()
        whole, run = self.marching(pool)
        soup = run()
        assert len(pool.tasks) >= 2
        assert all(task.released for task in pool.tasks)
        assert soup.vertices.tobytes() == whole.vertices.tobytes()
        assert soup.values.tobytes() == whole.values.tobytes()

    @pytest.mark.parametrize("pool", [None, RecordingPool()],
                             ids=["no-pool", "small-block"])
    def test_single_range_runs_inline(self, pool):
        # No pool, or a mesh under SUBBLOCK_MIN_TETS on a parallel
        # pool: one range, run here, no task.
        whole, run = self.marching(pool, n=3)
        soup = run()
        assert pool is None or pool.tasks == []
        assert soup.vertices.tobytes() == whole.vertices.tobytes()

    def test_failed_range_releases_every_task(self, monkeypatch):
        pool = RecordingPool()
        _whole, run = self.marching(pool)
        real = pipeline_module.marching_tets_pieces
        calls = []

        def flaky(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise FloatingPointError("range kernel failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "marching_tets_pieces",
                            flaky)
        with pytest.raises(FloatingPointError, match="range kernel"):
            run()
        assert len(pool.tasks) >= 3
        assert [task.waited for task in pool.tasks][:3] == \
            [True, True, False]
        assert all(task.released for task in pool.tasks)


def test_pipeline_colorbar_overlay():
    data = StubData()
    gops = GraphicsOps([GraphicsOp("boundary", "velocity")])
    camera = Camera.fit_bounds((0, 0, 0), (3, 1, 1))
    plain = Pipeline(gops, camera=camera).process(data).image
    with_bar = Pipeline(
        gops, camera=camera, colorbar=True
    ).process(StubData()).image
    assert not np.array_equal(plain, with_bar)
    # Only the right edge differs.
    assert np.array_equal(plain[:, :200], with_bar[:, :200])
