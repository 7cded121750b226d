"""GODIVA read callbacks for the snapshot datasets.

The developer-supplied read function is GODIVA's format-independence
mechanism: it "creates records, allocates field buffers if necessary, and
fills the buffers with contents read from input files" (section 3.2).
This module builds such callbacks for the :mod:`repro.gen.snapshot` SDF
layout — one processing unit per time-step snapshot (all eight files), as
Voyager uses in the evaluation ("Voyager uses all the files in the same
time-step snapshot as a processing unit", section 4.1). The worker-pool
build adds a finer granularity: one unit per *file* of a snapshot
(:func:`make_file_read_fn`), the shape under which a pool of I/O workers
can overlap several reads of the same snapshot.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union,
)

from repro.core.database import GBO
from repro.core.schema import RecordSchema, SchemaField
from repro.core.types import DataType
from repro.core.units import ReadFunction
from repro.gen.quantities import ELEMENT_FIELDS, NODE_FIELDS
from repro.gen.snapshot import (
    BLOCK_ID_SIZE,
    TIMESTEP_ID_SIZE,
    DatasetManifest,
    block_key,
)
from repro.io.disk import NULL_DISK, DiskProfile, IoStats
from repro.io.sdf import SdfReader

if TYPE_CHECKING:
    from repro.io.cdf import CdfReader

#: Every dataset a snapshot block carries, in file order.
ALL_SOLID_FIELDS: List[str] = (
    ["coords", "conn"] + list(NODE_FIELDS) + list(ELEMENT_FIELDS)
)


def solid_schema() -> RecordSchema:
    """The record type for one mesh block of one snapshot.

    Keys are the paper's pair: block ID (11 bytes) and time-step ID
    (9 bytes). All array fields have UNKNOWN size — their extents are only
    known once the file metadata is read, the paper's motivating case for
    ``allocFieldBuffer``.
    """
    fields = [
        SchemaField("block id", DataType.STRING, BLOCK_ID_SIZE,
                    is_key=True),
        SchemaField("time-step id", DataType.STRING, TIMESTEP_ID_SIZE,
                    is_key=True),
        SchemaField("coords", DataType.DOUBLE),
        SchemaField("conn", DataType.INT32),
    ]
    for name in list(NODE_FIELDS) + list(ELEMENT_FIELDS):
        fields.append(SchemaField(name, DataType.DOUBLE))
    return RecordSchema("solid", tuple(fields))


def open_scientific_file(path: str, file_format: str = "sdf",
                         stats: Optional[IoStats] = None,
                         profile: DiskProfile = NULL_DISK,
                         ) -> Union[SdfReader, CdfReader]:
    """Open a dataset file in whichever scientific format it uses.

    Both readers expose the same surface, which is what keeps the GODIVA
    read callbacks format-generic — the paper's claim that switching
    formats means only switching read functions, made concrete.
    """
    if file_format == "sdf":
        return SdfReader(path, stats=stats, profile=profile)
    if file_format == "cdf":
        from repro.io.cdf import CdfReader

        return CdfReader(path, stats=stats, profile=profile)
    raise ValueError(f"unknown file format {file_format!r}")


def snapshot_unit_name(step: int) -> str:
    """Canonical unit name for time-step ``step``: ``snap:0007``."""
    return f"snap:{step:04d}"


def unit_step(unit_name: str) -> int:
    """Inverse of :func:`snapshot_unit_name`."""
    prefix, _, number = unit_name.partition(":")
    if prefix != "snap" or not number.isdigit():
        raise ValueError(f"not a snapshot unit name: {unit_name!r}")
    return int(number)


def file_unit_name(step: int, file_index: int) -> str:
    """Canonical unit name for one file of a snapshot: ``snap:0007:f02``."""
    return f"snap:{step:04d}:f{file_index:02d}"


def unit_step_file(unit_name: str) -> Tuple[int, int]:
    """Inverse of :func:`file_unit_name` — (step, file index)."""
    parts = unit_name.split(":")
    if (
        len(parts) != 3
        or parts[0] != "snap"
        or not parts[1].isdigit()
        or not parts[2].startswith("f")
        or not parts[2][1:].isdigit()
    ):
        raise ValueError(f"not a file unit name: {unit_name!r}")
    return int(parts[1]), int(parts[2][1:])


def load_snapshot_records(
    gbo: GBO,
    manifest: DatasetManifest,
    step: int,
    fields: Optional[Sequence[str]] = None,
    stats: Optional[IoStats] = None,
    profile: DiskProfile = NULL_DISK,
    blocks: Optional[Sequence[str]] = None,
) -> int:
    """Read one snapshot's blocks into ``gbo`` as 'solid' records.

    ``fields`` restricts which quantities are loaded (the mesh arrays
    ``coords``/``conn`` are always loaded); None loads everything.
    ``blocks`` restricts which mesh blocks are loaded — the
    Apollo/Houston parallel mode partitions blocks across server
    processes, each loading only its own. Returns the number of records
    created.
    """
    schema = solid_schema()
    schema.ensure(gbo)
    requested = {"coords", "conn"}
    requested.update(fields if fields is not None else ALL_SOLID_FIELDS)
    # Read in file-layout order: a single forward sweep per file, which
    # is what eliminates the original Voyager's back-and-forth seeking.
    wanted = [name for name in ALL_SOLID_FIELDS if name in requested]
    block_filter = set(blocks) if blocks is not None else None

    tsid = manifest.snapshots[step].tsid
    count = 0
    for path in manifest.snapshot_paths(step):
        count += _load_file_records(
            gbo, schema, path, manifest.file_format, tsid, wanted,
            block_filter, stats, profile,
        )
    return count


def _load_file_records(gbo, schema, path, file_format, tsid, wanted,
                       block_filter, stats, profile) -> int:
    """Load one dataset file's blocks as 'solid' records."""
    count = 0
    with open_scientific_file(
        path, file_format, stats=stats, profile=profile
    ) as reader:
        attrs = reader.file_attributes()
        block_ids = [
            b for b in attrs["block_ids"].split(",") if b
        ]
        if block_filter is not None:
            block_ids = [
                b for b in block_ids if b in block_filter
            ]
        for block_id in block_ids:
            record = gbo.new_record(schema.name)
            record.field("block id").write(
                block_key(block_id).encode("ascii")
            )
            record.field("time-step id").write(tsid.encode("ascii"))
            for name in wanted:
                dataset = f"{name}:{block_id}"
                info = reader.info(dataset)
                buf = gbo.alloc_field_buffer(
                    record, name, info.data_nbytes
                )
                reader.read_into(dataset, buf.as_array())
            gbo.commit_record(record)
            count += 1
    return count


def load_snapshot_file_records(
    gbo: GBO,
    manifest: DatasetManifest,
    step: int,
    file_index: int,
    fields: Optional[Sequence[str]] = None,
    stats: Optional[IoStats] = None,
    profile: DiskProfile = NULL_DISK,
    blocks: Optional[Sequence[str]] = None,
) -> int:
    """Read one file of one snapshot into ``gbo`` as 'solid' records.

    The per-file analogue of :func:`load_snapshot_records` — records of
    every file of a snapshot carry the same key pair, so queries are
    unchanged whichever unit granularity loaded them.
    """
    schema = solid_schema()
    schema.ensure(gbo)
    requested = {"coords", "conn"}
    requested.update(fields if fields is not None else ALL_SOLID_FIELDS)
    wanted = [name for name in ALL_SOLID_FIELDS if name in requested]
    block_filter = set(blocks) if blocks is not None else None

    paths = manifest.snapshot_paths(step)
    try:
        path = paths[file_index]
    except IndexError:
        raise ValueError(
            f"snapshot {step} has {len(paths)} files; "
            f"no file index {file_index}"
        ) from None
    return _load_file_records(
        gbo, schema, path, manifest.file_format,
        manifest.snapshots[step].tsid, wanted, block_filter, stats,
        profile,
    )


def make_snapshot_read_fn(
    manifest: DatasetManifest,
    fields: Optional[Sequence[str]] = None,
    stats: Optional[IoStats] = None,
    profile: DiskProfile = NULL_DISK,
    blocks: Optional[Sequence[str]] = None,
) -> ReadFunction:
    """Build the read callback Voyager registers with ``add_unit``.

    The callback maps the unit name back to a snapshot step (the same
    function serves every unit — exactly the paper's pattern, footnote 3)
    and loads the snapshot's eight files, optionally restricted to a
    block partition (``blocks``).
    """

    def read_fn(gbo: GBO, unit_name: str) -> None:
        """Load the snapshot step ``unit_name`` names into ``gbo``."""
        load_snapshot_records(
            gbo, manifest, unit_step(unit_name),
            fields=fields, stats=stats, profile=profile,
            blocks=blocks,
        )

    return read_fn


def make_file_read_fn(
    manifest: DatasetManifest,
    fields: Optional[Sequence[str]] = None,
    stats: Optional[IoStats] = None,
    profile: DiskProfile = NULL_DISK,
    blocks: Optional[Sequence[str]] = None,
    pace: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> ReadFunction:
    """Build a read callback for per-file units (:func:`file_unit_name`).

    With ``pace=True`` each call meters its own traffic through the disk
    cost model and then sleeps for that virtual duration, so wall-clock
    read time matches what the profiled disk would take. Sleeping
    releases the GIL, which is what lets a pool of I/O workers genuinely
    overlap paced reads of different files — the benchmark harness uses
    this to study worker scaling on hosts whose page cache would
    otherwise make every read nearly instant. Traffic is still folded
    into ``stats`` when provided.
    """

    def read_fn(gbo: GBO, unit_name: str) -> None:
        """Load the one snapshot file ``unit_name`` names into ``gbo``."""
        step, file_index = unit_step_file(unit_name)
        if pace:
            local = IoStats()
            load_snapshot_file_records(
                gbo, manifest, step, file_index,
                fields=fields, stats=local, profile=profile,
                blocks=blocks,
            )
            if stats is not None:
                stats.merge(local)
            if local.virtual_seconds > 0.0:
                sleep(local.virtual_seconds)
        else:
            load_snapshot_file_records(
                gbo, manifest, step, file_index,
                fields=fields, stats=stats, profile=profile,
                blocks=blocks,
            )

    return read_fn
