"""2-D structured fluid-block rendering (the Table 1 dataset family).

The paper's running example (Table 1 / Figure 2) is a *fluid* dataset:
2-D structured mesh blocks with element-based pressure and temperature.
This module renders such blocks directly — each block is a rectilinear
cell grid, so an image is produced by sampling cell values onto pixels
(no camera or rasterizer needed), exactly how quick-look tools display
structured CFD data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.viz.colormap import Colormap

if TYPE_CHECKING:
    from repro.core.database import GBO


def sample_block(
    x_edges: np.ndarray,
    y_edges: np.ndarray,
    cell_values: np.ndarray,
    width: int,
    height: int,
    bounds: Optional[Tuple[float, float, float, float]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample one block's cell data onto a pixel grid.

    ``x_edges``/``y_edges`` are the (n+1,) coordinate arrays of Table 1;
    ``cell_values`` is the flat (nx*ny,) element array in x-major order
    (as :func:`repro.gen.structured_fluid.fluid_block_arrays` produces).
    Returns ``(values, mask)``: per-pixel sampled values and a boolean
    coverage mask (False outside the block).
    """
    x_edges = np.asarray(x_edges, dtype=np.float64)
    y_edges = np.asarray(y_edges, dtype=np.float64)
    nx = len(x_edges) - 1
    ny = len(y_edges) - 1
    cells = np.asarray(cell_values, dtype=np.float64)
    if cells.size != nx * ny:
        raise ValueError(
            f"{cells.size} cell values for a {nx}x{ny} grid"
        )
    cells = cells.reshape(nx, ny)
    if bounds is None:
        bounds = (x_edges[0], x_edges[-1], y_edges[0], y_edges[-1])
    x_lo, x_hi, y_lo, y_hi = bounds

    # Pixel-center sample coordinates (y up -> image row 0 at the top).
    xs = x_lo + (np.arange(width) + 0.5) * (x_hi - x_lo) / width
    ys = y_hi - (np.arange(height) + 0.5) * (y_hi - y_lo) / height
    # Locate each sample in the (possibly non-uniform) edge arrays.
    ix = np.searchsorted(x_edges, xs, side="right") - 1
    iy = np.searchsorted(y_edges, ys, side="right") - 1
    in_x = (ix >= 0) & (ix < nx) & (xs >= x_edges[0]) & \
        (xs <= x_edges[-1])
    in_y = (iy >= 0) & (iy < ny) & (ys >= y_edges[0]) & \
        (ys <= y_edges[-1])
    mask = in_y[:, None] & in_x[None, :]
    values = np.zeros((height, width))
    safe_ix = np.clip(ix, 0, nx - 1)
    safe_iy = np.clip(iy, 0, ny - 1)
    values[:, :] = cells[safe_ix[None, :], safe_iy[:, None]]
    values[~mask] = 0.0
    return values, mask


def render_fluid_blocks(
    blocks: Sequence[Dict[str, np.ndarray]],
    field: str = "pressure",
    width: int = 400,
    height: int = 300,
    colormap: str = "coolwarm",
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
    background: Tuple[float, float, float] = (0.08, 0.08, 0.12),
) -> np.ndarray:
    """Compose several fluid blocks into one image.

    Each block is a dict with ``x coordinates``, ``y coordinates`` and
    the requested ``field`` (the Table 1 layout). The image frame spans
    the union of all block extents; later blocks overwrite earlier ones
    where they overlap (multiblock quick-look behaviour).
    """
    if not blocks:
        raise ValueError("no blocks to render")
    for block in blocks:
        for key in ("x coordinates", "y coordinates", field):
            if key not in block:
                raise ValueError(f"block is missing {key!r}")
    x_lo = min(block["x coordinates"][0] for block in blocks)
    x_hi = max(block["x coordinates"][-1] for block in blocks)
    y_lo = min(block["y coordinates"][0] for block in blocks)
    y_hi = max(block["y coordinates"][-1] for block in blocks)
    bounds = (x_lo, x_hi, y_lo, y_hi)

    all_values = np.concatenate(
        [np.ravel(block[field]) for block in blocks]
    )
    lo = vmin if vmin is not None else float(all_values.min())
    hi = vmax if vmax is not None else float(all_values.max())
    cmap = Colormap(colormap, vmin=lo, vmax=hi)

    frame = np.tile(
        np.asarray(background, dtype=np.float64), (height, width, 1)
    )
    for block in blocks:
        values, mask = sample_block(
            block["x coordinates"], block["y coordinates"],
            np.ravel(block[field]), width, height, bounds=bounds,
        )
        rgb = cmap.map(values)
        frame[mask] = rgb[mask]
    return (np.clip(frame, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def render_from_gbo(
    gbo: GBO,
    block_keys: Sequence[Tuple[bytes, bytes]],
    field: str = "pressure",
    record_type: str = "fluid",
    **render_kwargs: object,
) -> np.ndarray:
    """Render fluid blocks straight out of a GODIVA database.

    ``block_keys`` is a list of (block id, time-step id) key pairs; the
    buffers are queried with ``get_field_buffer`` — the paper's pattern
    of computing directly on database-managed buffers.
    """
    blocks: List[Dict[str, np.ndarray]] = []
    for keys in block_keys:
        blocks.append({
            name: gbo.get_field_buffer(record_type, name, list(keys))
            for name in ("x coordinates", "y coordinates", field)
        })
    return render_fluid_blocks(blocks, field=field, **render_kwargs)
