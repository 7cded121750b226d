"""The six workloads: inputs, timed bodies, traced replays, checks.

Every workload is a closed loop with one client. ``set_up`` makes the
inputs from the seed (the program only ever sees generated files and
indices) and ``reference`` what they must produce; ``run`` executes one repetition
inside a fresh child process — the untraced form through the repo's
public entry point, the traced form through a benchmark-owned replay of
the same public calls in the same order with a span around each;
``check`` compares what came out with the reference.

Only public names of ``repro.io``, ``repro.core``, ``repro.viz``,
``repro.parallel`` and ``repro.gen`` are called, and only their public
counters are read. ``repro.simulate`` is never imported.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import time
import zlib
from typing import Dict, List, Optional, Sequence

from tracing import ROOT, NullTracer, Tracer

from repro.core.database import GBO
from repro.gen import (
    SnapshotSpec,
    TitanConfig,
    generate_dataset,
    load_manifest,
)
from repro.gen.snapshot import block_key
from repro.io.disk import ENGLE_DISK, NULL_DISK, IoStats
from repro.io.readers import (
    ALL_SOLID_FIELDS,
    file_unit_name,
    make_file_read_fn,
    open_scientific_file,
    snapshot_unit_name,
    solid_schema,
    unit_step,
    unit_step_file,
)
from repro.parallel import ShardedGBO, render_sharded
from repro.viz import (
    ApolloSession,
    Camera,
    Colormap,
    Pipeline,
    Renderer,
    Voyager,
    VoyagerConfig,
    interactive_trace,
    test_gops,
    write_ppm,
)
from repro.viz.voyager import DirectSnapshotData, GodivaSnapshotData

#: Workloads that start worker processes; skipped on a 1-core host.
NEEDS_TWO_CORES = ("batch_render_proc2", "fleet_shards2")

#: Item counts. ``default`` is sized so one repetition takes 1.5-3 s on
#: the 2-core reference host — five or six fit in the 20 s measuring
#: window beside the set-ups; ``quick`` only exercises every code path.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "default": {
        "batch_render": {"scale": 0.3, "steps": 3},
        "batch_render_proc2": {"scale": 0.3, "steps": 6},
        "fleet_shards2": {"scale": 0.3, "steps": 6},
        "paced_prefetch": {"scale": 0.3, "steps": 6},
        "unit_churn": {"scale": 0.5, "steps": 4, "visits": 36},
        "interactive_backforth": {"scale": 0.25, "steps": 8, "views": 13},
    },
    "quick": {
        "batch_render": {"scale": 0.3, "steps": 1},
        "batch_render_proc2": {"scale": 0.3, "steps": 1},
        "fleet_shards2": {"scale": 0.3, "steps": 2},
        "paced_prefetch": {"scale": 0.3, "steps": 2},
        "unit_churn": {"scale": 0.5, "steps": 4, "visits": 6},
        "interactive_backforth": {"scale": 0.25, "steps": 3, "views": 4},
    },
}

CAMERA_BOUNDS = ((-1.7, -1.7, 0.0), (1.7, 1.7, 10.0))
FILES_PER_SNAPSHOT = 8
CHURN_LOOKAHEAD = 2
#: unit_churn checksums every CHURN_CHECK_STRIDE-th buffer of a visit,
#: starting one further on each visit: every buffer is covered within
#: CHURN_CHECK_STRIDE visits, every visit pays the same ~0.6 ms, and
#: checking stays under 2 % of the wall.
CHURN_CHECK_STRIDE = 8
#: interactive_backforth: budget its working set (units + derived)
#: outgrows, and how many consecutive steps its views walk over.
INTERACTIVE_MEM_MB = 3
INTERACTIVE_SPAN = 5


# ----------------------------------------------------------------------
# Seed -> inputs
# ----------------------------------------------------------------------

def dataset_dt(seed: int) -> float:
    """The dataset's time-step spacing: the seed's mark on every file."""
    return 20e-6 + 10e-6 * random.Random(seed).random()


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{seed}/{workload}")


def churn_order(rng: random.Random, n_steps: int, visits: int) -> List[int]:
    """A visit order in which any CHURN_LOOKAHEAD + 1 consecutive steps
    are distinct (a live unit is never added twice)."""
    order: List[int] = []
    for _ in range(visits):
        recent = order[-CHURN_LOOKAHEAD:]
        order.append(rng.choice(
            [step for step in range(n_steps) if step not in recent]
        ))
    return order


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def ppm_digest(image) -> str:
    """blake2b of the PPM bytes ``write_ppm`` would produce."""
    height, width, _ = image.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return _digest(header + image.tobytes())


def crc32_holding_gil(buf) -> int:
    """``zlib.crc32(buf)`` in pieces small enough that zlib keeps the
    GIL. Releasing it hands the interpreter to the I/O worker for a
    whole switch interval (5 ms) — ten times what the check costs."""
    view = memoryview(buf).cast("B")
    crc = 0
    for start in range(0, len(view), 4096):
        crc = zlib.crc32(view[start:start + 4096], crc)
    return crc


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return _digest(f.read())


# ----------------------------------------------------------------------
# set_up: the dataset (timed, repeated); reference: what is correct
# ----------------------------------------------------------------------

def set_up(workload: str, seed: int, size: Dict[str, float],
           work_dir: str) -> dict:
    """Generate the workload's dataset in a fresh directory and derive
    the seed's other inputs; returns a JSON-serializable description.
    The same seed gives the same bytes every time."""
    rng = _rng(seed, workload)
    data_dir = os.path.join(work_dir, "data")
    steps = int(size["steps"])
    t0 = time.perf_counter()
    generate_dataset(
        SnapshotSpec(TitanConfig.scaled(size["scale"]), n_steps=steps,
                     dt=dataset_dt(seed),
                     files_per_snapshot=FILES_PER_SNAPSHOT),
        data_dir,
    )
    generate_s = time.perf_counter() - t0
    dataset_bytes = sum(
        os.path.getsize(os.path.join(data_dir, name))
        for name in os.listdir(data_dir)
    )
    prep = {
        "workload": workload, "seed": seed, "size": size,
        "data_dir": data_dir, "generate_s": generate_s,
        "dataset_mb": dataset_bytes / 1e6,
    }
    if workload == "unit_churn":
        prep["order"] = churn_order(rng, steps, int(size["visits"]))
    elif workload == "interactive_backforth":
        # The walk never wraps around the dataset: a wrap is one view
        # the predictor misses, and which seeds have one would show as
        # spread between seeds.
        span = min(INTERACTIVE_SPAN, steps)
        start = rng.randrange(steps - span + 1)
        prep["views"] = [
            step + start
            for step in interactive_trace(span, int(size["views"]),
                                          "backforth")
        ]
    elif workload not in _BODIES:
        raise ValueError(f"unknown workload {workload!r}")
    return prep


def reference(prep: dict, work_dir: str) -> dict:
    """What every item of ``prep``'s workload must produce, computed by
    a path the workload does not take. Done once per run: the dataset
    is a function of the seed, so it holds for every later set-up."""
    workload = prep["workload"]
    steps = range(int(prep["size"]["steps"]))
    if workload in ("batch_render", "batch_render_proc2", "fleet_shards2"):
        return _reference_frames(prep["data_dir"], "complex", steps,
                                 os.path.join(work_dir, "reference"))
    if workload == "interactive_backforth":
        return _reference_frames(prep["data_dir"], "medium",
                                 sorted(set(prep["views"])),
                                 os.path.join(work_dir, "reference"))
    manifest = load_manifest(prep["data_dir"])
    if workload == "paced_prefetch":
        return _reference_triangles(manifest, steps)
    return _reference_checksums(manifest)


def _reference_frames(data_dir: str, test: str, steps: Sequence[int],
                      out_dir: str) -> Dict[str, str]:
    """Independent frames: the single-thread G build with no derived
    cache renders ``steps``; step -> PPM digest."""
    result = Voyager(VoyagerConfig(
        data_dir=data_dir, test=test, mode="G", derived_cache=False,
        out_dir=out_dir, snapshot_indices=list(steps),
    )).run()
    return {str(step): file_digest(path)
            for step, path in zip(steps, result.images)}


def _reference_triangles(manifest, steps: Sequence[int]
                         ) -> Dict[str, List[int]]:
    """Independent triangle counts: the pipeline over files read
    directly (the O build's data path), no GBO; step -> per-op counts."""
    pipeline = Pipeline(test_gops("complex"),
                        camera=Camera.fit_bounds(*CAMERA_BOUNDS),
                        render=False)
    counts = {}
    for step in steps:
        data = DirectSnapshotData(manifest.snapshot_paths(step),
                                  file_format=manifest.file_format)
        try:
            counts[str(step)] = pipeline.process(data).op_triangles
        finally:
            data.close()
    return counts


def _reference_checksums(manifest) -> Dict[str, List[int]]:
    """crc32 of every (block, field) dataset read straight from the
    files, in query order; step -> list."""
    sums: Dict[str, List[int]] = {}
    for entry in manifest.snapshots:
        by_name = {}
        for path in manifest.snapshot_paths(entry.step):
            with open_scientific_file(path, manifest.file_format) as reader:
                for name in reader.dataset_names:
                    by_name[name] = zlib.crc32(reader.read(name))
        sums[str(entry.step)] = [
            by_name[f"{field}:{block_id}"]
            for block_id in manifest.block_ids
            for field in ALL_SOLID_FIELDS
        ]
    return sums


# ----------------------------------------------------------------------
# The benchmark-owned read callback
# ----------------------------------------------------------------------

def make_read_fn(tracer, manifest, fields: Optional[Sequence[str]],
                 stats: IoStats, profile=NULL_DISK,
                 per_file: bool = False, pace: bool = False):
    """A GODIVA read callback doing what ``repro.io.readers`` callbacks
    do — ``open_scientific_file`` -> ``new_record``/``alloc_field_buffer``
    -> ``read_into`` -> ``commit_record`` — with each step timed.

    One ``io.read_fn_s`` span per call (on whichever thread runs it)
    with ``io.open_s``, ``io.read_into_s`` and ``core.record_insert_s``
    folded in as aggregates. ``pace=True`` sleeps the call's virtual
    disk time, as ``make_file_read_fn(pace=True)`` does.
    """
    schema = solid_schema()
    requested = {"coords", "conn"}
    requested.update(fields if fields is not None else ALL_SOLID_FIELDS)
    wanted = [name for name in ALL_SOLID_FIELDS if name in requested]
    clock = time.perf_counter

    def read_fn(gbo, unit_name: str) -> None:
        with tracer.span("io.read_fn_s"):
            if per_file:
                step, index = unit_step_file(unit_name)
                paths = [manifest.snapshot_paths(step)[index]]
            else:
                step = unit_step(unit_name)
                paths = manifest.snapshot_paths(step)
            tsid = manifest.snapshots[step].tsid.encode("ascii")
            local = IoStats() if pace else stats
            open_s = read_s = insert_s = 0.0
            buffers = 0
            for path in paths:
                t0 = clock()
                reader = open_scientific_file(
                    path, manifest.file_format, stats=local, profile=profile
                )
                with reader:
                    attrs = reader.file_attributes()
                    open_s += clock() - t0
                    for block_id in attrs["block_ids"].split(","):
                        if not block_id:
                            continue
                        t0 = clock()
                        record = gbo.new_record(schema.name)
                        record.field("block id").write(
                            block_key(block_id).encode("ascii"))
                        record.field("time-step id").write(tsid)
                        insert_s += clock() - t0
                        for name in wanted:
                            dataset = f"{name}:{block_id}"
                            t0 = clock()
                            buf = gbo.alloc_field_buffer(
                                record, name,
                                reader.info(dataset).data_nbytes)
                            t1 = clock()
                            reader.read_into(dataset, buf.as_array())
                            t2 = clock()
                            insert_s += t1 - t0
                            read_s += t2 - t1
                        t0 = clock()
                        gbo.commit_record(record)
                        insert_s += clock() - t0
                        buffers += len(wanted)
            tracer.add("io.open_s", open_s, len(paths))
            tracer.add("io.read_into_s", read_s, buffers)
            tracer.add("core.record_insert_s", insert_s, buffers)
            if pace:
                stats.merge(local)
                if local.virtual_seconds > 0.0:
                    time.sleep(local.virtual_seconds)

    return read_fn


# ----------------------------------------------------------------------
# Timed region
# ----------------------------------------------------------------------

def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime)


class Timed:
    """The timed body of one repetition: wall, CPU (self + reaped
    children) and, when tracing, the root span."""

    def __init__(self, tracer) -> None:
        self._root = tracer.span(ROOT)
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "Timed":
        gc.collect()
        self._cpu0 = _cpu_seconds()
        self._t0 = time.perf_counter()
        self._root.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._root.__exit__(*exc)
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = _cpu_seconds() - self._cpu0


# ----------------------------------------------------------------------
# Traced replay of Pipeline.process (begin + finish), span per call
# ----------------------------------------------------------------------

def _replay_begin(pipeline: Pipeline, data, tracer):
    with tracer.span("viz.begin_s"):
        plan = pipeline.begin(data)
    if plan.tasks is not None:
        raise NotImplementedError(
            "thread-backend lookahead extraction is out of scope for the "
            "traced replay (compute_backend='thread' at >1 worker)"
        )
    return plan


def _replay_finish(pipeline: Pipeline, plan, tracer):
    """``Pipeline.finish`` call for call: per op extract + draw, then
    image and the frame-cache store. Returns (image, per-op triangles)."""
    if plan.cached is not None:
        image, op_triangles = plan.cached
        return image, list(op_triangles)
    renderer = (Renderer(pipeline.camera, pool=pipeline.pool)
                if pipeline.render else None)
    op_triangles: List[int] = []
    for op in pipeline.gops:
        with tracer.span("viz.extract_s"):
            soup = pipeline.extract(plan.data, op)
        op_triangles.append(soup.n_triangles)
        if renderer is not None and soup.n_triangles:
            with tracer.span("viz.draw_s"):
                renderer.draw(soup, Colormap(op.colormap),
                              vmin=op.vmin, vmax=op.vmax)
    image = None
    if renderer is not None:
        with tracer.span("viz.image_s"):
            image = renderer.image()
    if plan.cache is not None:
        with tracer.span("viz.begin_s"):
            plan.cache.put(plan.frame_key, (image, tuple(op_triangles)))
    return image, op_triangles


# ----------------------------------------------------------------------
# Workload bodies (run inside the child process)
# ----------------------------------------------------------------------

def _run_batch_render(prep: dict, out_dir: str, tracer,
                      compute_workers: int = 1,
                      compute_backend: str = "thread") -> dict:
    steps = list(range(int(prep["size"]["steps"])))
    if not tracer.enabled:
        config = VoyagerConfig(
            data_dir=prep["data_dir"], mode="TG", test="complex",
            mem_mb=384, out_dir=out_dir, compute_workers=compute_workers,
            compute_backend=compute_backend,
        )
        with Timed(tracer) as timed:
            result = Voyager(config).run()
        return _result(
            timed, [1e3 * s for s in result.per_snapshot_wall],
            {"frames": {str(step): file_digest(path)
                        for step, path in zip(steps, result.images)},
             "triangles": result.triangles},
        )

    io_stats = IoStats()
    images: Dict[int, str] = {}
    items: List[float] = []
    triangles = 0
    with Timed(tracer) as timed:
        manifest = load_manifest(prep["data_dir"])
        gops = test_gops("complex")
        pipeline = Pipeline(gops, camera=Camera.fit_bounds(*CAMERA_BOUNDS),
                            render=True)
        read_fn = make_read_fn(tracer, manifest, gops.fields_used(),
                               io_stats, ENGLE_DISK)
        os.makedirs(out_dir, exist_ok=True)
        with tracer.span("core.gbo_open_s"):
            gbo = GBO(mem_mb=384, compute_workers=compute_workers,
                      compute_backend=compute_backend)
        try:
            solid_schema().ensure(gbo)
            with tracer.span("core.add_unit_s"):
                for step in steps:
                    gbo.add_unit(snapshot_unit_name(step), read_fn)
            pipeline.pool = gbo.compute
            pipelining = gbo.compute.parallel

            def snapshot_data(step: int) -> GodivaSnapshotData:
                return GodivaSnapshotData(
                    gbo, manifest.snapshots[step].tsid, manifest.block_ids)

            lookahead = None
            for visit, step in enumerate(steps):
                t0 = time.perf_counter()
                unit = snapshot_unit_name(step)
                if lookahead is not None:
                    plan, lookahead = lookahead, None
                else:
                    with tracer.span("core.wait_unit_s"):
                        gbo.wait_unit(unit)
                    plan = _replay_begin(pipeline, snapshot_data(step),
                                         tracer)
                if pipelining and visit + 1 < len(steps):
                    with tracer.span("core.wait_unit_s"):
                        ready = gbo.try_wait_unit(
                            snapshot_unit_name(steps[visit + 1]))
                    if ready:
                        lookahead = _replay_begin(
                            pipeline, snapshot_data(steps[visit + 1]),
                            tracer)
                image, op_triangles = _replay_finish(pipeline, plan, tracer)
                triangles += sum(op_triangles)
                path = os.path.join(out_dir, f"complex_TG_{step:04d}.ppm")
                with tracer.span("viz.encode_s"):
                    write_ppm(path, image)
                images[step] = path
                with tracer.span("core.delete_unit_s"):
                    gbo.delete_unit(unit)
                items.append(1e3 * (time.perf_counter() - t0))
            stats = _gbo_stats(gbo)
        finally:
            pipeline.pool = None
            with tracer.span("core.gbo_close_s"):
                gbo.close()
    return _result(
        timed, items,
        {"frames": {str(step): file_digest(path)
                    for step, path in images.items()},
         "triangles": triangles},
        stats=stats, io=io_stats.snapshot(),
    )


def _run_batch_render_proc2(prep: dict, out_dir: str, tracer) -> dict:
    return _run_batch_render(prep, out_dir, tracer, compute_workers=2,
                             compute_backend="process")


def _run_fleet_shards2(prep: dict, out_dir: str, tracer) -> dict:
    kwargs = dict(test="complex", mem_mb=256, protocol_timeout_s=20)
    if not tracer.enabled:
        with Timed(tracer) as timed:
            result = render_sharded(prep["data_dir"], 2, **kwargs)
        frames = result.frames
    else:
        with Timed(tracer) as timed:
            with tracer.span("parallel.fleet_open_s"):
                cluster = ShardedGBO(prep["data_dir"], 2, **kwargs)
            try:
                with tracer.span("parallel.render_all_s"):
                    result = cluster.render_all()
                with tracer.span("parallel.copy_out_s"):
                    frames = {step: frame.copy()
                              for step, frame in result.frames.items()}
            finally:
                with tracer.span("parallel.fleet_close_s"):
                    cluster.close()
    n_frames = max(len(frames), 1)
    per_shard = [len(steps) for steps in result.assignment.values()]
    return _result(
        timed,
        # Frames finish inside the shard hosts, out of the harness's
        # sight: the item time is the makespan's share per frame.
        [1e3 * timed.wall_s / n_frames],
        {"frames": {str(step): ppm_digest(frame)
                    for step, frame in frames.items()},
         "triangles": result.triangles},
        stats=result.stats.snapshot(), io=result.io_totals,
        extra={
            "parallel.shard_visible_io_s": sum(
                shard.stats.visible_io_seconds for shard in result.shards),
            "parallel.shard_io_busy_s": sum(
                shard.stats.io_thread_read_seconds
                for shard in result.shards),
            "parallel.frames_max_over_mean":
                max(per_shard) * len(per_shard) / max(sum(per_shard), 1),
            "parallel.pressure_rounds": result.pressure_rounds,
            "parallel.reclaims": result.reclaims,
            "parallel.frame_token_mb":
                sum(frame.nbytes for frame in frames.values()) / 1e6,
        },
    )


def _run_paced_prefetch(prep: dict, out_dir: str, tracer) -> dict:
    steps = list(range(int(prep["size"]["steps"])))
    io_stats = IoStats()
    items: List[float] = []
    op_triangles: Dict[str, List[int]] = {}
    with Timed(tracer) as timed:
        manifest = load_manifest(prep["data_dir"])
        gops = test_gops("complex")
        pipeline = Pipeline(gops, camera=Camera.fit_bounds(*CAMERA_BOUNDS),
                            render=False)
        if tracer.enabled:
            read_fn = make_read_fn(tracer, manifest, gops.fields_used(),
                                   io_stats, ENGLE_DISK, per_file=True,
                                   pace=True)
        else:
            read_fn = make_file_read_fn(
                manifest, fields=gops.fields_used(), stats=io_stats,
                profile=ENGLE_DISK, pace=True)
        with tracer.span("core.gbo_open_s"):
            gbo = GBO(mem_mb=64, io_workers=2)
        try:
            solid_schema().ensure(gbo)
            units = {step: [file_unit_name(step, index)
                            for index in range(FILES_PER_SNAPSHOT)]
                     for step in steps}
            with tracer.span("core.add_unit_s"):
                for step in steps:
                    for unit in units[step]:
                        gbo.add_unit(unit, read_fn)
            for step in steps:
                t0 = time.perf_counter()
                with tracer.span("core.wait_unit_s"):
                    for unit in units[step]:
                        gbo.wait_unit(unit)
                data = GodivaSnapshotData(
                    gbo, manifest.snapshots[step].tsid, manifest.block_ids)
                if tracer.enabled:
                    plan = _replay_begin(pipeline, data, tracer)
                    _, counts = _replay_finish(pipeline, plan, tracer)
                else:
                    counts = pipeline.process(data).op_triangles
                op_triangles[str(step)] = list(counts)
                with tracer.span("core.delete_unit_s"):
                    for unit in units[step]:
                        gbo.delete_unit(unit)
                items.append(1e3 * (time.perf_counter() - t0))
            stats = _gbo_stats(gbo)
        finally:
            with tracer.span("core.gbo_close_s"):
                gbo.close()
    return _result(timed, items, {"op_triangles": op_triangles},
                   stats=stats, io=io_stats.snapshot())


def _run_unit_churn(prep: dict, out_dir: str, tracer) -> dict:
    order: List[int] = prep["order"]
    reference: Dict[str, List[int]] = prep["reference"]
    io_stats = IoStats()
    items: List[float] = []
    failed_visits: List[int] = []
    queries = 0
    with Timed(tracer) as timed:
        manifest = load_manifest(prep["data_dir"])
        read_fn = make_read_fn(tracer, manifest, None, io_stats)
        keys = {
            entry.step: [
                [block_key(block_id).encode("ascii"),
                 entry.tsid.encode("ascii")]
                for block_id in manifest.block_ids
            ]
            for entry in manifest.snapshots
        }
        with tracer.span("core.gbo_open_s"):
            gbo = GBO(mem_mb=24, derived_cache=False)
        try:
            solid_schema().ensure(gbo)
            query = gbo.get_field_buffer

            def add(visit: int) -> None:
                if visit < len(order):
                    with tracer.span("core.add_unit_s"):
                        gbo.add_unit(snapshot_unit_name(order[visit]),
                                     read_fn)

            for visit in range(CHURN_LOOKAHEAD + 1):
                add(visit)
            for visit, step in enumerate(order):
                t0 = time.perf_counter()
                unit = snapshot_unit_name(step)
                with tracer.span("core.wait_unit_s"):
                    gbo.wait_unit(unit)
                with tracer.span("core.query_s"):
                    buffers = [query("solid", name, key)
                               for key in keys[step]
                               for name in ALL_SOLID_FIELDS]
                queries += len(buffers)
                t1 = time.perf_counter()
                with tracer.span("bench.verify_s"):
                    expected = reference[str(step)]
                    first = visit % CHURN_CHECK_STRIDE
                    if len(buffers) != len(expected) or any(
                            crc32_holding_gil(buf) != crc for buf, crc in zip(
                                buffers[first::CHURN_CHECK_STRIDE],
                                expected[first::CHURN_CHECK_STRIDE])):
                        failed_visits.append(visit)
                    del buffers
                verify_s = time.perf_counter() - t1
                with tracer.span("core.delete_unit_s"):
                    gbo.delete_unit(unit)
                add(visit + CHURN_LOOKAHEAD + 1)
                # The check is the harness's work, not the visit's.
                items.append(1e3 * (time.perf_counter() - t0 - verify_s))
            stats = _gbo_stats(gbo)
        finally:
            with tracer.span("core.gbo_close_s"):
                gbo.close()
    return _result(timed, items,
                   {"failed_visits": failed_visits},
                   stats=stats, io=io_stats.snapshot(),
                   extra={"queries": queries})


def _run_interactive_backforth(prep: dict, out_dir: str, tracer) -> dict:
    views: List[int] = prep["views"]
    items: List[float] = []
    hits: List[bool] = []
    digests: List[str] = []
    with Timed(tracer) as timed:
        with tracer.span("core.gbo_open_s"):
            session = ApolloSession(prep["data_dir"], test="medium",
                                    mem_mb=INTERACTIVE_MEM_MB, render=True,
                                    predictive=True)
        try:
            if tracer.enabled:
                # The session calls these on its own GBO; spans around
                # the two public methods split a view into core and viz.
                _span_method(session.gbo, "read_unit", tracer,
                             "core.wait_unit_s")
                _span_method(session.gbo, "finish_unit", tracer,
                             "core.finish_unit_s")
            counters = session.gbo.stats
            for step in views:
                misses = counters.derived_misses
                t0 = time.perf_counter()
                with tracer.span("viz.view_s"):
                    image = session.view(step)
                items.append(1e3 * (time.perf_counter() - t0))
                hits.append(counters.derived_misses == misses)
                with tracer.span("bench.verify_s"):
                    digests.append(ppm_digest(image))
            stats = _gbo_stats(session.gbo)
            io = session.io_stats.snapshot()
        finally:
            with tracer.span("core.gbo_close_s"):
                session.close()
    return _result(timed, items, {"views": views, "digests": digests},
                   stats=stats, io=io, extra={"view_hits": hits})


def _span_method(obj, method: str, tracer, name: str) -> None:
    """Shadow ``obj.method`` with a wrapper that records a span."""
    inner = getattr(obj, method)

    def traced(*args, **kwargs):
        with tracer.span(name):
            return inner(*args, **kwargs)

    setattr(obj, method, traced)


_BODIES = {
    "batch_render": _run_batch_render,
    "batch_render_proc2": _run_batch_render_proc2,
    "fleet_shards2": _run_fleet_shards2,
    "paced_prefetch": _run_paced_prefetch,
    "unit_churn": _run_unit_churn,
    "interactive_backforth": _run_interactive_backforth,
}


def _gbo_stats(gbo: GBO) -> Dict[str, float]:
    stats = gbo.stats.snapshot()
    stats["mem_high_water_bytes"] = gbo.mem_high_water_bytes
    return stats


def _result(timed: Timed, items_ms: List[float], outputs: dict,
            stats: Optional[dict] = None, io: Optional[dict] = None,
            extra: Optional[dict] = None) -> dict:
    return {"wall_s": timed.wall_s, "cpu_s": timed.cpu_s,
            "items_ms": items_ms, "outputs": outputs,
            "stats": stats or {}, "io": io or {}, "extra": extra or {}}


def run(prep: dict, out_dir: str, traced: bool, trace_path: str) -> dict:
    """One repetition of ``prep``'s workload in this process."""
    tracer = (Tracer(f"{prep['workload']}/seed{prep['seed']}")
              if traced else NullTracer())
    result = _BODIES[prep["workload"]](prep, out_dir, tracer)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + kids) / 1024.0
    if traced:
        result["trace"] = tracer.summary()
        tracer.write_chrome_trace(trace_path)
    return result


# ----------------------------------------------------------------------
# check: outputs vs reference (runs in the parent)
# ----------------------------------------------------------------------

def check(prep: dict, result: dict) -> List[str]:
    """One message per item of a repetition that is missing or differs
    from ``prep["reference"]``."""
    workload = prep["workload"]
    outputs = result["outputs"]
    reference = prep["reference"]
    problems: List[str] = []
    if workload in ("batch_render", "batch_render_proc2", "fleet_shards2"):
        for step, digest in reference.items():
            if outputs["frames"].get(step) != digest:
                problems.append(f"frame {step} missing or differs from "
                                "the G-build reference")
    elif workload == "paced_prefetch":
        for step, counts in reference.items():
            if sum(counts) <= 0 or \
                    outputs["op_triangles"].get(step) != counts:
                problems.append(f"step {step}: triangle counts missing or "
                                "differ from the direct-read reference")
    elif workload == "unit_churn":
        problems.extend(f"visit {visit}: buffers differ from the files"
                        for visit in outputs["failed_visits"])
    elif workload == "interactive_backforth":
        digests = outputs["digests"]
        for index, step in enumerate(prep["views"]):
            if index >= len(digests) or \
                    digests[index] != reference[str(step)]:
                problems.append(f"view {index}: step {step} missing or "
                                "differs from the G-build reference")
    return problems


def items_attempted(prep: dict) -> int:
    """Items one repetition attempts (what a dead child failed)."""
    size = prep["size"]
    if prep["workload"] == "unit_churn":
        return int(size["visits"])
    if prep["workload"] == "interactive_backforth":
        return int(size["views"])
    return int(size["steps"])
