"""Time-step snapshot writer: the 8-SDF-files-per-step dataset layout.

Section 4.2: "For each time-step snapshot, there are eight HDF4 files. In
all of our experiments, we process 32 time-step snapshots." We reproduce
that layout — each snapshot's blocks are distributed contiguously over
``files_per_snapshot`` SDF files; each block contributes its coordinate
and connectivity arrays plus every node- and element-based quantity.

Dataset naming: ``<field>:<block_id>``; per-dataset attributes carry the
block ID and time-step ID (the GODIVA key fields); file-level attributes
carry the snapshot metadata. A JSON manifest indexes the whole dataset so
tools can enumerate snapshots without directory scans.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.gen.quantities import element_fields, node_fields
from repro.gen.titan import TitanConfig, titan_blocks

#: Fixed key-field widths from the paper's Table 1 / Figure 2 — the '$'
#: terminator included ("block_0001$" is 11 bytes, "0.000025$" is 9).
BLOCK_ID_SIZE = 11
TIMESTEP_ID_SIZE = 9


def timestep_id(time: float) -> str:
    """The 9-byte time-step ID string, e.g. ``0.000025$``."""
    text = f"{time:.6f}"[: TIMESTEP_ID_SIZE - 1]
    return text.ljust(TIMESTEP_ID_SIZE - 1, "0") + "$"


def block_key(block_id: str) -> str:
    """The 11-byte block ID key, e.g. ``block_0001$``."""
    return block_id.ljust(BLOCK_ID_SIZE - 1)[: BLOCK_ID_SIZE - 1] + "$"


@dataclass(frozen=True)
class SnapshotSpec:
    """What to generate: mesh scale/config, number of steps, layout."""

    config: TitanConfig
    n_steps: int = 32
    dt: float = 25e-6
    files_per_snapshot: int = 8
    prefix: str = "solid"
    #: On-disk format: "sdf" (HDF4-like, directory at tail) or "cdf"
    #: (netCDF-like, header first). GODIVA itself is format-blind; this
    #: exercises the switch-formats-by-switching-read-functions claim.
    file_format: str = "sdf"

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.files_per_snapshot < 1:
            raise ValueError("files_per_snapshot must be >= 1")
        if self.file_format not in ("sdf", "cdf"):
            raise ValueError(
                f"unknown file format {self.file_format!r}"
            )

    def step_time(self, step: int) -> float:
        """Simulated time of ``step``: the end of its ``dt`` interval."""
        return (step + 1) * self.dt


@dataclass
class SnapshotEntry:
    """Manifest row for one time step."""

    step: int
    time: float
    tsid: str
    files: List[str]


@dataclass
class DatasetManifest:
    """Index of a generated dataset directory."""

    directory: str
    n_blocks: int
    block_ids: List[str]
    snapshots: List[SnapshotEntry]
    file_format: str = "sdf"

    def to_json(self) -> dict:
        """The manifest as the JSON object :meth:`save` writes."""
        return {
            "file_format": self.file_format,
            "n_blocks": self.n_blocks,
            "block_ids": self.block_ids,
            "snapshots": [
                {
                    "step": s.step,
                    "time": s.time,
                    "tsid": s.tsid,
                    "files": s.files,
                }
                for s in self.snapshots
            ],
        }

    def save(self) -> str:
        """Write ``manifest.json`` into the dataset directory; returns
        its path."""
        path = os.path.join(self.directory, "manifest.json")
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1)
        return path

    def snapshot_paths(self, step: int) -> List[str]:
        """Full paths of the files holding snapshot ``step``."""
        entry = self.snapshots[step]
        return [os.path.join(self.directory, name) for name in entry.files]


def load_manifest(directory: str) -> DatasetManifest:
    """Load the manifest written by :func:`generate_dataset`."""
    with open(os.path.join(directory, "manifest.json")) as f:
        data = json.load(f)
    return DatasetManifest(
        directory=directory,
        file_format=data.get("file_format", "sdf"),
        n_blocks=data["n_blocks"],
        block_ids=data["block_ids"],
        snapshots=[
            SnapshotEntry(
                step=s["step"], time=s["time"], tsid=s["tsid"],
                files=s["files"],
            )
            for s in data["snapshots"]
        ],
    )


def _split_blocks(n_blocks: int, n_files: int) -> List[range]:
    """Contiguous near-equal assignment of block indices to files."""
    bounds = np.linspace(0, n_blocks, n_files + 1).round().astype(int)
    return [range(bounds[i], bounds[i + 1]) for i in range(n_files)]


def generate_dataset(spec: SnapshotSpec, directory: str,
                     progress: Optional[callable] = None
                     ) -> DatasetManifest:
    """Generate the full dataset: meshes once, fields per step, manifest.

    Returns the saved :class:`DatasetManifest`.
    """
    # Local imports avoid cycles (io depends on nothing in gen).
    from repro.io.cdf import CdfWriter
    from repro.io.sdf import SdfWriter

    writer_cls = SdfWriter if spec.file_format == "sdf" else CdfWriter
    os.makedirs(directory, exist_ok=True)
    blocks = list(titan_blocks(spec.config))
    centroids = [b.mesh.tet_centroids() for b in blocks]
    assignment = _split_blocks(len(blocks), spec.files_per_snapshot)

    entries: List[SnapshotEntry] = []
    for step in range(spec.n_steps):
        t = spec.step_time(step)
        tsid = timestep_id(t)
        file_names: List[str] = []
        for file_index, block_range in enumerate(assignment):
            name = (
                f"{spec.prefix}_{step:04d}_{file_index:02d}"
                f".{spec.file_format}"
            )
            path = os.path.join(directory, name)
            with writer_cls(path) as writer:
                writer.set_attribute("timestep", tsid)
                writer.set_attribute("step", step)
                writer.set_attribute("time", t)
                writer.set_attribute(
                    "block_ids",
                    ",".join(blocks[i].block_id for i in block_range),
                )
                for i in block_range:
                    _write_block(writer, blocks[i], centroids[i], t, tsid)
            file_names.append(name)
        entries.append(
            SnapshotEntry(step=step, time=t, tsid=tsid, files=file_names)
        )
        if progress is not None:
            progress(step, spec.n_steps)

    manifest = DatasetManifest(
        directory=directory,
        file_format=spec.file_format,
        n_blocks=len(blocks),
        block_ids=[b.block_id for b in blocks],
        snapshots=entries,
    )
    manifest.save()
    return manifest


def _write_block(writer, block, centroids: np.ndarray, t: float,
                 tsid: str) -> None:
    attrs = {"block_id": block.block_id, "timestep": tsid}
    writer.add_dataset(
        f"coords:{block.block_id}", block.mesh.nodes, attrs=attrs
    )
    writer.add_dataset(
        f"conn:{block.block_id}", block.mesh.tets, attrs=attrs
    )
    for fname, data in node_fields(block.mesh.nodes, t).items():
        writer.add_dataset(f"{fname}:{block.block_id}", data, attrs=attrs)
    for fname, data in element_fields(centroids, t).items():
        writer.add_dataset(f"{fname}:{block.block_id}", data, attrs=attrs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``godiva-gen --out DIR [--scale S] [--steps N] ...``"""
    parser = argparse.ArgumentParser(
        description="Generate a synthetic GENx-like snapshot dataset."
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="mesh scale factor (1.0 = paper scale)")
    parser.add_argument("--steps", type=int, default=32,
                        help="number of time-step snapshots")
    parser.add_argument("--files-per-snapshot", type=int, default=8)
    parser.add_argument("--format", choices=("sdf", "cdf"),
                        default="sdf", help="on-disk file format")
    args = parser.parse_args(argv)

    spec = SnapshotSpec(
        config=TitanConfig.scaled(args.scale),
        n_steps=args.steps,
        files_per_snapshot=args.files_per_snapshot,
        file_format=args.format,
    )
    manifest = generate_dataset(
        spec, args.out,
        progress=lambda s, n: print(f"snapshot {s + 1}/{n}"),
    )
    print(
        f"wrote {len(manifest.snapshots)} snapshots x "
        f"{spec.files_per_snapshot} files, {manifest.n_blocks} blocks, "
        f"to {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
