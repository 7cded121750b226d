"""Micro-benchmarks of the substrate hot paths.

Not a paper artifact — engineering guardrails for the pieces every
experiment exercises: the record index, the SDF reader, the GBO's
per-buffer calls, marching tetrahedra, and the rasterizer.
"""

import numpy as np
import pytest

from repro.gen.tetmesh import structured_tet_block
from repro.io.sdf import SdfReader, SdfWriter
from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.isosurface import marching_tets
from repro.viz.render import Renderer


def _keyed_records(n):
    """``n`` uncommitted one-key records shaped like the e2e dataset's
    (a block id and a counter in the key bytes)."""
    from repro.core.record import Record
    from repro.core.types import DataType, FieldType, RecordType

    rtype = RecordType("bench", num_keys=1)
    rtype.insert_field(FieldType("id", DataType.STRING, 16), True)
    rtype.commit()
    records = []
    for i in range(n):
        record = Record(rtype)
        record.field("id").write(f"block_{i % 997:04d}${i:05d}".encode())
        records.append(record)
    return records


def test_bench_record_index_commit(benchmark):
    """1 000 commits into a fresh RecordIndex: key snapshot, duplicate
    check, insert."""
    from repro.core.index import RecordIndex

    records = _keyed_records(1000)

    def build():
        index = RecordIndex()
        for record in records:
            index.commit(record)
        return index

    index = benchmark(build)
    assert index.count("bench") == 1000


def test_bench_record_index_lookup(benchmark):
    """One exact-key lookup among 10 000 committed records — the index
    half of every ``get_field_buffer``."""
    from repro.core.index import RecordIndex

    index = RecordIndex()
    records = _keyed_records(10_000)
    for record in records:
        index.commit(record)
    key = records[7777].committed_key
    assert benchmark(lambda: index.lookup("bench", key)) is records[7777]


def test_bench_record_index_drop_record(benchmark):
    """2 000 ``drop_record`` calls, newest first, on records tracked
    under one unit — the order a unit's own records are deleted in.
    Per call = round / 2 000; flat in the unit's record count."""
    from repro.core.index import RecordIndex

    records = _keyed_records(2000)
    index = RecordIndex()

    def track():
        for record in records:
            index.track(record, "unit")
        return (), {}

    def drop():
        for record in reversed(records):
            index.drop_record(record)

    benchmark.pedantic(drop, setup=track, rounds=50)
    assert index.unit_records("unit") == []


def test_bench_sdf_open(benchmark, tmp_path):
    """Open a 210-entry file (one e2e unit file's directory) and read
    its file attributes: header, directory parse, attribute block. The
    parse memo is emptied each round, so every open parses."""
    from repro.io.sdf import _parse_directory

    path = str(tmp_path / "open.sdf")
    with SdfWriter(path) as writer:
        writer.set_attribute("time", 0.5)
        for i in range(210):
            writer.add_dataset(f"block_{i // 7:04d}:field{i % 7}",
                               np.zeros(4))

    def open_file():
        _parse_directory.cache_clear()
        with SdfReader(path) as reader:
            return len(reader.dataset_names), reader.file_attributes()

    assert benchmark(open_file) == (210, {"time": 0.5})


def test_bench_sdf_reopen(benchmark, tmp_path):
    """Open a 210-entry file whose directory another file of the series
    already had (the parse memo's hit) and read its file attributes: the
    header and directory are still read and charged."""
    from repro.io.disk import IoStats

    paths = [str(tmp_path / f"step{step}.sdf") for step in range(2)]
    for step, path in enumerate(paths):
        with SdfWriter(path) as writer:
            writer.set_attribute("step", step)
            for i in range(210):
                writer.add_dataset(f"block_{i // 7:04d}:field{i % 7}",
                                   np.full(4, float(step)))
    stats = IoStats()
    SdfReader(paths[0]).close()

    def reopen():
        with SdfReader(paths[1], stats=stats) as reader:
            return len(reader.dataset_names), reader.file_attributes()

    assert benchmark(reopen) == (210, {"step": 1})
    assert stats.opens == stats.read_calls // 3


def test_bench_read_into(benchmark, tmp_path):
    """210 datasets of 6 KB into GODIVA field buffers through
    ``read_into`` — the per-buffer read of the unit_churn path."""
    from repro.core.record import FieldBuffer
    from repro.core.types import DataType, FieldType

    path = str(tmp_path / "into.sdf")
    data = np.random.default_rng(0).random(750)          # 6 000 bytes
    with SdfWriter(path) as writer:
        for i in range(210):
            writer.add_dataset(f"d{i}", data)
    buf = FieldBuffer(FieldType("v", DataType.DOUBLE, data.nbytes))

    def read_all():
        with SdfReader(path) as reader:
            for name in reader.dataset_names:
                reader.read_into(name, buf.as_array())

    benchmark(read_all)
    assert np.array_equal(buf.as_array(), data)


#: Records and buffers of one e2e unit file: 30 blocks of the solid
#: schema, 7 of its 14 UNKNOWN-size fields each (2.8 KB a buffer).
_FILE_RECORDS = 30
_BUFFER_BYTES = 2800


def _solid_gbo():
    """A G-build GBO with the snapshot datasets' 'solid' record type."""
    from repro.core.database import GBO
    from repro.io.readers import solid_schema

    gbo = GBO(mem_mb=64, background_io=False, derived_cache=False)
    solid_schema().ensure(gbo)
    return gbo


def test_bench_new_record(benchmark):
    """30 ``new_record`` calls (one e2e file's blocks): the type check,
    16 field buffers (the two key buffers allocated), the charge and the
    unit tracking. Per call = round / 30."""
    with _solid_gbo() as gbo:
        records = []

        def make():
            for _ in range(_FILE_RECORDS):
                records.append(gbo.new_record("solid"))

        def drop():
            while records:
                gbo.delete_record(records.pop())

        benchmark.pedantic(make, teardown=drop, rounds=300)
        drop()
        assert gbo.mem_used_bytes == 0


def test_bench_alloc_field_buffer(benchmark):
    """210 ``alloc_field_buffer`` calls of 2.8 KB (one e2e file's
    buffers over 30 fresh records): the claim, the charge and the
    storage. Per call = round / 210."""
    from repro.io.readers import ALL_SOLID_FIELDS

    fields = ALL_SOLID_FIELDS[:7]
    with _solid_gbo() as gbo:
        records = []

        def make():
            records.extend(gbo.new_record("solid")
                           for _ in range(_FILE_RECORDS))
            return (), {}

        def alloc():
            for record in records:
                for name in fields:
                    gbo.alloc_field_buffer(record, name, _BUFFER_BYTES)

        def drop():
            while records:
                gbo.delete_record(records.pop())

        benchmark.pedantic(alloc, setup=make, teardown=drop, rounds=300)
        drop()
        assert gbo.mem_used_bytes == 0


def test_bench_get_field_buffer(benchmark):
    """One ``get_field_buffer`` among 1 000 committed records of a
    resident, pinned unit — the query every visualization op makes."""
    with _solid_gbo() as gbo:
        def read_fn(gbo, unit_name):
            for i in range(1000):
                record = gbo.new_record("solid")
                record.field("block id").write(f"block_{i:04d}$".encode())
                record.field("time-step id").write(b"0.000025$")
                gbo.alloc_field_buffer(record, "coords", _BUFFER_BYTES)
                gbo.commit_record(record)

        gbo.add_unit("unit", read_fn)
        gbo.wait_unit("unit")
        key = [b"block_0777$", b"0.000025$"]
        buf = benchmark(lambda: gbo.get_field_buffer("solid", "coords", key))
        assert buf.nbytes == _BUFFER_BYTES


def test_bench_delete_unit(benchmark):
    """``delete_unit`` of one resident unit of 30 solid records with 7
    buffers each (one e2e file's worth): unindex, release every buffer,
    return the bytes. The unit is loaded again between rounds, untimed."""
    from repro.io.readers import ALL_SOLID_FIELDS

    fields = ALL_SOLID_FIELDS[:7]
    counter = {"i": 0}

    def read_fn(gbo, unit_name):
        for i in range(_FILE_RECORDS):
            record = gbo.new_record("solid")
            record.field("block id").write(f"block_{i:04d}$".encode())
            record.field("time-step id").write(b"0.000025$")
            for name in fields:
                gbo.alloc_field_buffer(record, name, _BUFFER_BYTES)
            gbo.commit_record(record)

    with _solid_gbo() as gbo:
        def load():
            counter["i"] += 1
            name = f"unit{counter['i']:06d}"
            gbo.add_unit(name, read_fn)
            gbo.wait_unit(name)
            return (name,), {}

        benchmark.pedantic(gbo.delete_unit, setup=load, rounds=300)
        assert gbo.mem_used_bytes == 0


def test_bench_sdf_read(benchmark, tmp_path):
    path = str(tmp_path / "bench.sdf")
    data = np.random.default_rng(0).random(100_000)
    with SdfWriter(path) as writer:
        for i in range(10):
            writer.add_dataset(f"d{i}", data)

    def read_all():
        with SdfReader(path) as reader:
            return sum(
                reader.read(name)[0] for name in reader.dataset_names
            )

    benchmark(read_all)


def test_bench_marching_tets(benchmark):
    mesh = structured_tet_block(12, 12, 12)
    radius = np.linalg.norm(mesh.nodes - 0.5, axis=1)

    soup = benchmark(
        lambda: marching_tets(mesh.nodes, mesh.tets, radius, 0.35)
    )
    assert soup.n_triangles > 500


def _e2e_snapshot():
    """One snapshot of the e2e shape in memory: 48 blocks of 168 tets
    stacked along z, with the generator's node fields."""
    from repro.gen.quantities import node_fields
    from repro.viz.pipeline import SnapshotData

    block = structured_tet_block(7, 2, 2)
    assert block.n_tets == 168

    class Blocks(SnapshotData):
        def __init__(self):
            self._blocks = {}
            for index in range(48):
                coords = block.nodes * [2.0, 2.0, 10.0 / 48] + [
                    -1.0, -1.0, index * 10.0 / 48]
                self._blocks[f"block_{index:04d}"] = (
                    coords, node_fields(coords, 1e-4))

        def block_ids(self):
            return list(self._blocks)

        def coords(self, block_id):
            return self._blocks[block_id][0]

        def connectivity(self, block_id):
            return block.tets

        def field(self, block_id, name):
            return self._blocks[block_id][1][name]

    return Blocks()


def test_bench_extract_snapshot(benchmark):
    """One snapshot of the e2e shape — 48 blocks of 168 tets — through
    the nine complex ops, uncached: one kernel pass per op over the
    merged mesh. Sliding back to per-(op, block) dispatch (432 kernel
    calls) costs ~8x here, far outside the guard's tolerance."""
    from repro.viz.gops import test_gops
    from repro.viz.pipeline import Pipeline

    data = _e2e_snapshot()
    gops = test_gops("complex")
    pipeline = Pipeline(gops, render=False)
    triangles = benchmark(
        lambda: sum(pipeline.extract(data, op).n_triangles for op in gops)
    )
    assert triangles > 500


@pytest.mark.parametrize("stored", [
    pytest.param(False, id="full-cut"),
    pytest.param(True, id="carry"),
])
def test_bench_slice_cut_carry(benchmark, stored):
    """A slice of a new time-step over an unchanged mesh: cut the plane
    and carry the field (no cut stored), or carry the field onto the
    stored cut — what the pipeline's ``cut`` product saves a step."""
    from repro.viz.slice_plane import plane_cut, slice_mesh

    mesh = structured_tet_block(12, 12, 12)
    values = np.linalg.norm(mesh.nodes - 0.5, axis=1)
    plane = ((0.5, 0.45, 0.5), (0.2, 1.0, 0.1))
    cut = plane_cut(mesh.nodes, mesh.tets, *plane)
    if stored:
        soup = benchmark(lambda: cut.carry(values))
    else:
        soup = benchmark(
            lambda: slice_mesh(mesh.nodes, mesh.tets, values, *plane))
    assert soup.values.tobytes() == cut.carry(values).values.tobytes()
    assert soup.n_triangles > 200


@pytest.mark.parametrize("per_segment", [
    pytest.param(False, id="per-op"),
    pytest.param(True, id="per-segment"),
])
def test_bench_complex_frame_cover(benchmark, per_segment):
    """One ``complex`` frame of the e2e shape drawn from its extracted
    soups: covered once per op (a ``Renderer.draw`` loop) or once per
    segment (``draw_ops``, as ``Pipeline.finish`` draws it; ``complex``
    starts with an isosurface, so it is one submission)."""
    from repro.viz.gops import test_gops
    from repro.viz.pipeline import Pipeline, draw_ops

    gops = test_gops("complex")
    pipeline = Pipeline(gops, render=False)
    data = _e2e_snapshot()
    soups = [pipeline.extract(data, op) for op in gops]
    camera = Camera.fit_bounds((-1.7, -1.7, 0.0), (1.7, 1.7, 10.0),
                               width=320, height=240)

    def per_op():
        renderer = Renderer(camera)
        for op, soup in zip(gops, soups):
            renderer.draw(soup, Colormap(op.colormap), vmin=op.vmin,
                          vmax=op.vmax)
        return renderer.image()

    def one_submission():
        renderer = Renderer(camera)
        draw_ops(renderer, gops.ops, soups)
        return renderer.image()

    image = benchmark(one_submission if per_segment else per_op)
    assert np.array_equal(image, per_op())


def test_bench_frame_miss_shade(benchmark):
    """One ``medium`` frame miss over an unchanged mesh, drawn as
    ``Pipeline.finish`` draws it with the geometry prefix's coverage
    memoized: the prefix's winning triangles colored and shaded, the
    isosurface covered and shaded, and the 8-bit image converted."""
    from repro.viz.gops import test_gops
    from repro.viz.pipeline import Pipeline, draw_ops, geometry_prefix

    gops = test_gops("medium")
    pipeline = Pipeline(gops, render=False)
    data = _e2e_snapshot()
    soups = [pipeline.extract(data, op) for op in gops]
    camera = Camera.fit_bounds((-1.7, -1.7, 0.0), (1.7, 1.7, 10.0),
                               width=320, height=240)
    prefix = geometry_prefix(gops.ops)
    assert prefix == 3
    stored = {}

    def memo(compute):
        if "cover" not in stored:
            stored["cover"] = compute()
        return stored["cover"]

    def frame():
        renderer = Renderer(camera)
        draw_ops(renderer, gops.ops[:prefix], soups[:prefix], memo)
        draw_ops(renderer, gops.ops[prefix:], soups[prefix:])
        return renderer.image()

    frame()                                   # stores the coverage
    image = benchmark(frame)
    loop = Renderer(camera)
    for op, soup in zip(gops, soups):
        loop.draw(soup, Colormap(op.colormap), vmin=op.vmin, vmax=op.vmax)
    assert np.array_equal(image, loop.image())


def test_bench_scalarize_magnitude(benchmark):
    """Vector-magnitude reduction (einsum path) over a large field."""
    from repro.viz.pipeline import scalarize

    values = np.random.default_rng(3).random((200_000, 3))
    scalars = benchmark(lambda: scalarize(values, "magnitude"))
    assert scalars.shape == (200_000,)


def test_bench_soup_concatenate(benchmark):
    """TriangleSoup.concatenate (preallocated merge) over many blocks."""
    from repro.viz.isosurface import TriangleSoup

    rng = np.random.default_rng(4)
    soups = [
        TriangleSoup(rng.random((2_000, 3, 3)), rng.random((2_000, 3)))
        for _ in range(16)
    ]
    merged = benchmark(lambda: TriangleSoup.concatenate(soups))
    assert merged.n_triangles == 32_000


def test_bench_boundary_faces(benchmark):
    """Boundary-skin extraction — the kernel the derived cache memoizes
    hardest (constant connectivity across the snapshot series)."""
    from repro.viz.geometry import boundary_faces

    mesh = structured_tet_block(12, 12, 12)
    faces = benchmark(lambda: boundary_faces(mesh.tets))
    assert len(faces) > 500


def test_bench_snapshot_token(benchmark):
    """A first-visit snapshot token: one field over 30 blocks of 168
    nodes (the e2e block shape), token memo emptied before each round,
    so every round hashes the snapshot's bytes again."""
    from repro.core.database import GBO
    from repro.gen.snapshot import block_key, timestep_id
    from repro.io.readers import solid_schema
    from repro.viz.godiva_data import GodivaSnapshotData

    tsid = timestep_id(0.0)
    block_ids = [f"block_{index:04d}" for index in range(30)]
    values = np.random.default_rng(6).random(168)

    def read_fn(gbo, unit):
        for block_id in block_ids:
            record = gbo.new_record("solid")
            record.field("block id").write(block_key(block_id).encode())
            record.field("time-step id").write(tsid.encode())
            gbo.alloc_field_buffer(
                record, "temperature", values.nbytes).write(values)
            gbo.commit_record(record)

    gbo = GBO(mem_mb=16, background_io=False)
    try:
        solid_schema().ensure(gbo)
        gbo.add_unit("snapshot", read_fn)
        gbo.wait_unit("snapshot")
        data = GodivaSnapshotData(gbo, tsid, block_ids)
        token = benchmark.pedantic(
            lambda: data.snapshot_token("temperature"),
            setup=gbo.derived.clear, rounds=2000,
        )
        assert token is not None
    finally:
        gbo.close()


def test_bench_derived_hit(benchmark):
    """DerivedCache lookup cost on the hit path (lock + policy touch)."""
    from repro.core.derived import DerivedCache
    from repro.core.memory_manager import MemoryManager

    memory = MemoryManager(64 << 20)
    cache = DerivedCache(memory)
    memory.bind(release_records=lambda name: 0,
                derived=cache)
    payload = np.random.default_rng(5).random(10_000)
    cache.put(("bench", "entry"), payload)
    value = benchmark(lambda: cache.get(("bench", "entry")))
    assert value is not None


def test_bench_rasterizer(benchmark):
    mesh = structured_tet_block(8, 8, 8)
    radius = np.linalg.norm(mesh.nodes - 0.5, axis=1)
    soup = marching_tets(mesh.nodes, mesh.tets, radius, 0.35)
    camera = Camera.fit_bounds((0, 0, 0), (1, 1, 1),
                               width=160, height=120)
    cmap = Colormap("heat", vmin=0.0, vmax=0.5)

    def render():
        renderer = Renderer(camera)
        renderer.draw(soup, cmap)
        return renderer.image()

    image = benchmark(render)
    assert image.shape == (120, 160, 3)


def _skin_and_slice():
    """A boundary skin and a slice of one mesh: a frame's cacheable
    draws, as the ``medium`` op list makes them."""
    from repro.viz.geometry import boundary_faces
    from repro.viz.isosurface import TriangleSoup
    from repro.viz.slice_plane import slice_mesh

    mesh = structured_tet_block(12, 12, 12)
    values = np.linalg.norm(mesh.nodes - 0.5, axis=1)
    faces = boundary_faces(mesh.tets)
    return [TriangleSoup(mesh.nodes[faces], values[faces]),
            slice_mesh(mesh.nodes, mesh.tets, values, (0.5, 0.5, 0.5),
                       (0.0, 1.0, 0.0))]


@pytest.mark.parametrize("replay", [
    pytest.param(False, id="cover-miss"),
    pytest.param(True, id="cover-hit"),
])
def test_bench_frame_cover(benchmark, replay):
    """One frame of a skin and a slice, covered fresh (a new mesh) or
    shaded from the stored coverages (a new time-step over an
    unchanged mesh: only the colors are new)."""
    soups = _skin_and_slice()
    camera = Camera.fit_bounds((0, 0, 0), (1, 1, 1),
                               width=320, height=240)
    cmap = Colormap("heat", vmin=0.0, vmax=0.9)
    stored = Renderer(camera)
    coverages = []
    for soup in soups:
        coverages.append(stored.cover(soup.vertices))
        stored.shade(coverages[-1], stored.colors(soup, cmap))

    def render():
        renderer = Renderer(camera)
        for soup, coverage in zip(soups, coverages):
            colors = renderer.colors(soup, cmap)
            if not replay:
                coverage = renderer.cover(soup.vertices)
            renderer.shade(coverage, colors)
        return renderer.image()

    assert np.array_equal(benchmark(render), stored.image())


def _scattered_soup(n, seed, spread, size):
    """``n`` triangles in random (spatially incoherent) order: centers
    uniform in a cube of half-edge ``spread`` around the origin,
    vertices within ``size`` of their center."""
    from repro.viz.isosurface import TriangleSoup

    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(n, 1, 3))
    return TriangleSoup(centers + rng.uniform(-size, size, size=(n, 3, 3)),
                        rng.uniform(0.0, 1.0, size=(n, 3)))


@pytest.mark.parametrize("n, spread, size", [
    # The regime the fragment compositor is built for — thousands of
    # few-pixel triangles — submitted in spatially incoherent order.
    pytest.param(4000, 1.8, 0.03, id="small-incoherent"),
    # Its recorded losing side (DESIGN.md section 6): few triangles,
    # each spanning most of the frame.
    pytest.param(40, 0.3, 2.0, id="large"),
])
def test_bench_rasterizer_regimes(benchmark, n, spread, size):
    soup = _scattered_soup(n, 1, spread, size)
    camera = Camera(position=(0.0, -5.0, 0.0), look_at=(0.0, 0.0, 0.0),
                    up=(0, 0, 1), width=256, height=256)
    cmap = Colormap("rainbow")

    def render():
        renderer = Renderer(camera)
        renderer.draw(soup, cmap)
        return renderer

    renderer = benchmark(render)
    # Pixel-centre-tight bboxes: ~4 fragments a triangle in the
    # few-pixel regime (15 862 for 4 000), the line ~1.47x below it.
    assert renderer.fragments_evaluated > 2.7 * n
    assert np.isfinite(renderer._zbuffer).any()


def test_bench_unit_lifecycle(benchmark):
    """add_unit -> wait_unit -> delete_unit cycle cost (single-thread
    build, trivial read callback): the library's per-unit overhead."""
    from repro.core.database import GBO
    from repro.core.schema import RecordSchema, SchemaField
    from repro.core.types import DataType

    schema = RecordSchema("tiny", (
        SchemaField("k", DataType.STRING, 8, is_key=True),
        SchemaField("v", DataType.DOUBLE, 64),
    ))
    counter = {"i": 0}

    def read_fn(gbo, name):
        schema.ensure(gbo)
        record = gbo.new_record("tiny")
        record.field("k").write(name[-8:].rjust(8).encode())
        gbo.commit_record(record)

    with GBO(mem_mb=64, background_io=False) as gbo:
        def cycle():
            counter["i"] += 1
            name = f"unit{counter['i']:08d}"
            gbo.add_unit(name, read_fn)
            gbo.wait_unit(name)
            gbo.delete_unit(name)

        benchmark(cycle)


def test_bench_marching_tets_scaling():
    """Marching tetrahedra scales roughly linearly in tet count."""
    import time

    times = {}
    for n in (6, 12):
        mesh = structured_tet_block(n, n, n)
        radius = np.linalg.norm(mesh.nodes - 0.5, axis=1)
        t0 = time.perf_counter()
        for _ in range(3):
            marching_tets(mesh.nodes, mesh.tets, radius, 0.35)
        times[n] = (time.perf_counter() - t0) / 3
    # 8x the tets should cost well under 32x the time (vectorized).
    assert times[12] < 32 * times[6]
