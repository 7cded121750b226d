"""The paper's Table 1 / Figure 2 example: 2-D structured fluid blocks.

Table 1 defines a record type for "fluid geometry and physics measurements
on a structured 2-D mesh block, used to simulate a part of the fluid
propellant in a rocket booster"; Figure 2 instantiates it for a 100 x 100
grid: 101 coordinates per direction (808 bytes each) and 10 000
element-based pressure/temperature values (80 000 bytes each). This module
reproduces that example exactly, for the quickstart and the Table 1
benchmark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.database import GBO
from repro.core.record import Record
from repro.core.schema import fluid_sample_schema
from repro.core.units import ReadFunction
from repro.gen.snapshot import block_key, timestep_id

if TYPE_CHECKING:
    from repro.io.disk import DiskProfile, IoStats


def fluid_block_arrays(nx: int = 100, ny: int = 100, t: float = 25e-6,
                       block_index: int = 1) -> Dict[str, np.ndarray]:
    """The four raw arrays of one fluid block.

    Returns x/y coordinates ((nx+1,) / (ny+1,)) and element-based pressure
    and temperature ((nx*ny,)), all float64 — sizes 808/808/80000/80000
    bytes at the default 100 x 100 grid, exactly Figure 2.
    """
    x = np.linspace(0.0, 1.0, nx + 1) + 0.1 * block_index
    y = np.linspace(0.0, 1.0, ny + 1)
    cx = 0.5 * (x[:-1] + x[1:])
    cy = 0.5 * (y[:-1] + y[1:])
    gx, gy = np.meshgrid(cx, cy, indexing="ij")
    pressure = (
        101325.0 * (1.0 + 0.2 * np.sin(6.0 * gx - 8.0e4 * t))
        * np.exp(-gy)
    ).ravel()
    temperature = (
        300.0 + 1500.0 * np.exp(-3.0 * gy) * (1.0 + 0.05 * np.cos(4.0 * gx))
    ).ravel()
    return {
        "x coordinates": x,
        "y coordinates": y,
        "pressure": pressure,
        "temperature": temperature,
    }


def generate_fluid_dataset(directory: str, n_blocks: int = 4,
                           n_steps: int = 4, dt: float = 25e-6,
                           nx: int = 100, ny: int = 100) -> list:
    """Write a small multi-block, multi-step *fluid* dataset (Table 1).

    One SDF file per time step; datasets named ``<field>:<index>`` with
    the block list in the file attributes — the layout the quickstart's
    read function consumes. Returns the list of file paths.
    """
    import os

    from repro.io.sdf import SdfWriter

    os.makedirs(directory, exist_ok=True)
    paths = []
    for step in range(n_steps):
        t = (step + 1) * dt
        path = os.path.join(directory, f"fluid_{step:04d}.sdf")
        with SdfWriter(path) as writer:
            writer.set_attribute("timestep", timestep_id(t))
            writer.set_attribute("time", t)
            writer.set_attribute(
                "blocks", ",".join(
                    str(i) for i in range(1, n_blocks + 1)
                ),
            )
            for index in range(1, n_blocks + 1):
                arrays = fluid_block_arrays(nx, ny, t, index)
                for name, data in arrays.items():
                    writer.add_dataset(f"{name}:{index}", data,
                                       attrs={"block": index})
        paths.append(path)
    return paths


def make_fluid_read_fn(stats: Optional[IoStats] = None,
                       profile: Optional[DiskProfile] = None,
                       ) -> ReadFunction:
    """A GODIVA read callback over :func:`generate_fluid_dataset` files.

    Unit name = file path (the quickstart's convention); one record per
    block, keys from the file attributes.
    """
    from repro.io.disk import NULL_DISK
    from repro.io.sdf import SdfReader

    def read_fn(gbo: GBO, unit_name: str) -> None:
        """Load every block of the SDF file ``unit_name`` names."""
        schema = fluid_sample_schema()
        schema.ensure(gbo)
        with SdfReader(unit_name, stats=stats,
                       profile=profile or NULL_DISK) as reader:
            attrs = reader.file_attributes()
            tsid = attrs["timestep"]
            for index in (int(i) for i in attrs["blocks"].split(",")):
                record = gbo.new_record(schema.name)
                record.field("block id").write(
                    block_key(f"block_{index:04d}").encode("ascii")
                )
                record.field("time-step id").write(
                    tsid.encode("ascii")
                )
                for name in ("x coordinates", "y coordinates",
                             "pressure", "temperature"):
                    info = reader.info(f"{name}:{index}")
                    buf = gbo.alloc_field_buffer(
                        record, name, info.data_nbytes
                    )
                    reader.read_into(f"{name}:{index}", buf.as_array())
                gbo.commit_record(record)

    return read_fn


def make_fluid_block_record(gbo: GBO, block_index: int, t: float,
                            nx: int = 100, ny: int = 100) -> Record:
    """Create, fill, and commit one Table-1 fluid record in ``gbo``.

    Uses the exact schema of Table 1 (two string keys, four UNKNOWN-size
    double arrays) and the exact key formats of Figure 2
    (``block_0001$`` / ``0.000025$``).
    """
    schema = fluid_sample_schema()
    schema.ensure(gbo)
    arrays = fluid_block_arrays(nx, ny, t, block_index)

    record = gbo.new_record(schema.name)
    record.field("block id").write(
        block_key(f"block_{block_index:04d}").encode("ascii")
    )
    record.field("time-step id").write(timestep_id(t).encode("ascii"))
    for field_name, data in arrays.items():
        gbo.alloc_field_buffer(record, field_name, data.nbytes)
        record.field(field_name).write(data)
    gbo.commit_record(record)
    return record
