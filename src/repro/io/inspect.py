"""``godiva-inspect``: examine scientific data files and datasets.

Prints the structure of an SDF/CDF file (datasets, shapes, dtypes,
attributes) or, given a dataset directory with a manifest, the snapshot
inventory — the quick sanity check a user reaches for before pointing
Voyager at new data.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional, Sequence


def describe_file(path: str, show_attrs: bool = True) -> List[str]:
    """Human-readable description of one SDF/CDF file."""
    from repro.io.readers import open_scientific_file

    extension = os.path.splitext(path)[1].lstrip(".").lower()
    file_format = extension if extension in ("sdf", "cdf") else "sdf"
    lines = [f"{path} ({file_format.upper()})"]
    with open_scientific_file(path, file_format) as reader:
        attrs = reader.file_attributes()
        if show_attrs and attrs:
            lines.append("  file attributes:")
            for key, value in attrs.items():
                lines.append(f"    {key} = {_short(value)}")
        names = reader.dataset_names
        lines.append(f"  {len(names)} datasets:")
        for name in names:
            info = reader.info(name)
            shape = "x".join(str(d) for d in info.shape) or "scalar"
            lines.append(
                f"    {name:40s} {str(info.dtype):8s} {shape:>12s} "
                f"{info.data_nbytes:>10,d} B"
            )
    return lines


def describe_dataset(directory: str) -> List[str]:
    """Summary of a generated snapshot dataset directory."""
    from repro.gen.snapshot import load_manifest

    manifest = load_manifest(directory)
    total_bytes = 0
    for entry in manifest.snapshots:
        for name in entry.files:
            total_bytes += os.path.getsize(
                os.path.join(directory, name)
            )
    lines = [
        f"{directory} — {manifest.file_format.upper()} dataset",
        f"  blocks        : {manifest.n_blocks} "
        f"({manifest.block_ids[0]} .. {manifest.block_ids[-1]})",
        f"  snapshots     : {len(manifest.snapshots)}",
        f"  files/snapshot: {len(manifest.snapshots[0].files)}",
        f"  total size    : {total_bytes / 1e6:.1f} MB "
        f"({total_bytes / max(len(manifest.snapshots), 1) / 1e6:.1f} "
        f"MB/snapshot)",
        f"  time steps    : {manifest.snapshots[0].tsid} .. "
        f"{manifest.snapshots[-1].tsid}",
    ]
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point: print what the given file or dataset
    directory holds; returns the exit status."""
    parser = argparse.ArgumentParser(
        description="Inspect SDF/CDF files or snapshot datasets."
    )
    parser.add_argument(
        "target",
        help="an .sdf/.cdf file, or a dataset directory with a "
             "manifest.json",
    )
    parser.add_argument("--no-attrs", action="store_true",
                        help="skip file attributes")
    args = parser.parse_args(argv)

    if os.path.isdir(args.target):
        lines = describe_dataset(args.target)
    else:
        lines = describe_file(args.target,
                              show_attrs=not args.no_attrs)
    for line in lines:
        print(line)
    return 0


def _short(value, limit: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


if __name__ == "__main__":
    raise SystemExit(main())
