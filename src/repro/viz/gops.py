"""Graphics-operations files: what Voyager should draw.

Voyager takes "a graphics operations file" generated during an interactive
session (section 4.1). Ours is a JSON list of operations; each op draws the
mesh boundary, an isosurface, or a cutting plane, colored by a field.

:func:`test_gops` returns the three evaluation op-sets. Section 4.2: "The
tests process different variables (e.g., velocity and stress) or have
different visualization features (such as the requested surfaces, slices,
and cutting planes). The 'simple' test has the smallest ratio of
computation work load to I/O load, while the 'complex' test has the
largest." Concretely:

* **simple** — a boundary surface and a slice over two variables:
  minimal geometry work, the smallest compute-to-I/O ratio.
* **medium** — surfaces/slices over four variables (two of them
  3-vectors): the largest input volume and, because the original Voyager
  re-reads coordinate data per variable, the largest redundant-read
  fraction.
* **complex** — two variables but heavy geometry: stacked isosurfaces
  and multiple cutting planes, the largest compute-to-I/O ratio.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

VALID_KINDS = ("boundary", "isosurface", "slice")
VALID_COMPONENTS = (None, "magnitude", "x", "y", "z")


@dataclass(frozen=True)
class GraphicsOp:
    """One drawing operation.

    ``kind``: 'boundary' (outer skin), 'isosurface', or 'slice'.
    ``field``: dataset name to color by (isosurface also contours it).
    ``component``: for vector fields — 'magnitude', 'x', 'y' or 'z'.
    ``isovalue``: contour level (isosurface only).
    ``origin``/``normal``: cutting plane (slice only).
    ``colormap``: colormap name; ``vmin``/``vmax``: fixed color range.
    """

    kind: str
    field: str
    component: Optional[str] = None
    isovalue: Optional[float] = None
    origin: Optional[Tuple[float, float, float]] = None
    normal: Optional[Tuple[float, float, float]] = None
    colormap: str = "rainbow"
    vmin: Optional[float] = None
    vmax: Optional[float] = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(
                f"unknown op kind {self.kind!r}; choose from {VALID_KINDS}"
            )
        if self.component not in VALID_COMPONENTS:
            raise ValueError(
                f"unknown component {self.component!r}"
            )
        if self.kind == "isosurface" and self.isovalue is None:
            raise ValueError("isosurface op requires an isovalue")
        if self.kind == "slice" and (
            self.origin is None or self.normal is None
        ):
            raise ValueError("slice op requires origin and normal")

    def to_json(self) -> dict:
        """The op as a JSON-ready dict; unset optional keys are left
        out. The inverse of :meth:`from_json`."""
        data = {"kind": self.kind, "field": self.field,
                "colormap": self.colormap}
        for key in ("component", "isovalue", "origin", "normal",
                    "vmin", "vmax"):
            value = getattr(self, key)
            if value is not None:
                data[key] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_json(cls, data: dict) -> "GraphicsOp":
        """An op from the dict :meth:`to_json` makes (JSON lists become
        the plane's tuples)."""
        kwargs = dict(data)
        for key in ("origin", "normal"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


class GraphicsOps:
    """An ordered list of :class:`GraphicsOp` with file round-trip."""

    def __init__(self, ops: Sequence[GraphicsOp]):
        self.ops: List[GraphicsOp] = list(ops)
        if not self.ops:
            raise ValueError("graphics operations list must be non-empty")

    def __iter__(self):
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def fields_used(self) -> List[str]:
        """Distinct field datasets the ops access, in first-use order."""
        seen: Dict[str, None] = {}
        for op in self.ops:
            seen.setdefault(op.field, None)
        return list(seen)

    def save(self, path: str) -> None:
        """Write the op list as JSON, atomically.

        The document lands via a same-directory temp file and
        ``os.replace`` so a crash mid-write can never leave a torn
        half-JSON at ``path`` — readers see the old file or the new one.
        """
        path = os.fspath(path)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "w") as f:
                json.dump([op.to_json() for op in self.ops], f, indent=1)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)

    @classmethod
    def load(cls, path: str) -> "GraphicsOps":
        """Read an op-list file: a JSON list of :meth:`GraphicsOp.to_json`
        dicts."""
        with open(os.fspath(path)) as f:
            data = json.load(f)
        return cls([GraphicsOp.from_json(item) for item in data])


def test_gops(test: str) -> GraphicsOps:
    """The evaluation op-sets: 'simple', 'medium', or 'complex'."""
    if test == "simple":
        # Two ops on two variables, both cheap geometry: the smallest
        # compute-to-I/O ratio. One variable switch -> one redundant
        # coordinate re-read in the original Voyager (paper: ~14 %
        # volume reduction).
        return GraphicsOps([
            GraphicsOp("boundary", "velocity", component="magnitude",
                       colormap="coolwarm"),
            GraphicsOp("slice", "temperature",
                       origin=(0.0, 0.0, 5.0), normal=(0.0, 0.0, 1.0),
                       colormap="heat", vmin=300.0, vmax=2500.0),
        ])
    if test == "medium":
        # Four variables (two of them full 3-vectors) -> the largest
        # input volume, and three variable switches -> the largest
        # redundant-read fraction (paper: ~24 %).
        return GraphicsOps([
            GraphicsOp("boundary", "ave_stress", colormap="heat",
                       vmin=0.0, vmax=8.0e6),
            GraphicsOp("slice", "velocity", component="magnitude",
                       origin=(0.0, 0.0, 5.0), normal=(0.0, 0.0, 1.0),
                       colormap="coolwarm"),
            GraphicsOp("slice", "displacement", component="magnitude",
                       origin=(0.0, 0.0, 0.0), normal=(0.0, 1.0, 0.0),
                       colormap="gray"),
            GraphicsOp("isosurface", "temperature", isovalue=600.0,
                       colormap="heat", vmin=300.0, vmax=2500.0),
        ])
    if test == "complex":
        # Two scalar variables but heavy geometry: stacked isosurfaces
        # and multiple cutting planes -> the largest compute-to-I/O
        # ratio. Ops are grouped by variable, so only one grid rebuild
        # (one redundant coordinate read) happens (paper: ~16 %).
        stress_levels = [1.0e6, 2.0e6, 3.0e6, 4.0e6, 5.0e6]
        ops = [
            GraphicsOp("isosurface", "ave_stress", isovalue=level,
                       colormap="heat", vmin=0.0, vmax=8.0e6)
            for level in stress_levels
        ]
        ops.append(
            GraphicsOp("slice", "ave_stress",
                       origin=(0.0, 0.0, 0.0), normal=(0.0, 1.0, 0.0),
                       colormap="heat", vmin=0.0, vmax=8.0e6)
        )
        for z in (2.0, 5.0, 8.0):
            ops.append(
                GraphicsOp("slice", "temperature",
                           origin=(0.0, 0.0, z), normal=(0.0, 0.0, 1.0),
                           colormap="heat", vmin=300.0, vmax=2500.0)
            )
        return GraphicsOps(ops)
    raise ValueError(
        f"unknown test {test!r}; choose simple, medium, or complex"
    )
