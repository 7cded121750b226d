"""A z-buffered software rasterizer.

Projects triangle soups through a :class:`~repro.viz.camera.Camera`,
shades them with per-vertex colors (Gouraud) modulated by a single
directional light, and composites into an RGB image — the VTK-replacement
needed to make Voyager produce actual image files.

There is one rasterization path. Every draw projects, culls, bins the
surviving triangles to ``TILE_SIZE`` screen tiles (disjoint frame/
z-buffer regions) and composites each tile with
:func:`_composite_fragments`: submission-ordered runs of triangles,
each expanded into one flat batch of (triangle, pixel) fragments.
Every tile composites inline and in place, whatever pool the caller
holds: shipping a tile to a parallel pool was measured on both
backends at every dataset scale the repo produces, and no tile paid
for its dispatch, staging and write-back
(docs/adr/008-tiles-composite-inline.md).

Determinism is stated against the spec the rasterizer replaced, the
one-triangle-at-a-time loop kept as ``tests/reference_raster.py``:
(a) every fragment's floats are computed with the same operands in the
same association order as that loop (pixel centers are exact ``integer
+ 0.5`` values either way); (b) a pixel's winner within a run is its
minimum depth, the earliest submission on ties — the first entry of the
pixel's group after a stable ``np.lexsort`` over fragments laid out in
submission order — tested with the same strict ``pixel_z < z`` against
the buffer as it stood before the run, and runs apply in ascending
submission order, so later triangles never overwrite an equal-depth
earlier one; (c) a fragment exists only inside its own triangle's bbox
∩ tile, exactly the pixels the reference loop touches, and tiles are
disjoint pixel sets, so the order tiles composite in cannot matter.
Frames are byte-for-byte the reference's for every ``FRAGMENT_BATCH``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.geometry import triangle_normals
from repro.viz.isosurface import TriangleSoup

#: Screen-space tile edge in pixels — the compositing unit.
TILE_SIZE = 64
#: Most (triangle, pixel) fragments one vectorized pass evaluates: the
#: pass's temporaries (~20 float64 arrays this long) should stay inside
#: the L2 cache. Swept 2^10..2^17 on the e2e and full-scale meshes
#: (DESIGN.md section 6): shorter is interpreter-bound, longer is slower
#: *and* raises peak RSS.
FRAGMENT_BATCH = 1 << 13
#: Frame clear color (RGB in [0, 1]).
BACKGROUND = (0.08, 0.08, 0.12)
#: Unit direction of the headlight the diffuse shading uses.
LIGHT_DIR = np.array([0.4, 0.3, 0.85]) / np.linalg.norm([0.4, 0.3, 0.85])


def _composite_fragments(tri: np.ndarray, pts: np.ndarray, zs: np.ndarray,
                         cols: np.ndarray, x_min: np.ndarray,
                         x_max: np.ndarray, y_min: np.ndarray,
                         y_max: np.ndarray, denom: np.ndarray,
                         zbuf: np.ndarray, frame: np.ndarray,
                         px0: int, px1: int, py0: int, py1: int) -> None:
    """Composite one tile's triangles in submission order.

    ``zbuf``/``frame`` are views of exactly the tile's pixel region
    ``[py0..py1] × [px0..px1]`` of the renderer's buffers and are
    updated in place. Each triangle's bbox is clipped to the tile;
    submission-ordered runs of triangles whose clipped areas sum to at
    most FRAGMENT_BATCH (a larger triangle is a run of its own) are
    expanded into flat (triangle, pixel) fragment arrays and evaluated
    in one vectorized pass. Why the result is the reference loop's, bit
    for bit:

    (a) every fragment evaluates the reference's barycentric, ``inv_z``
        and color expressions on the same operands in the same
        association order — per-triangle and per-row terms are computed
        once and *copied* to their fragments (``np.repeat``), never
        re-associated;
    (b) a fragment survives only if it is inside and strictly ``<`` the
        buffer *as it stood before the run*; among a pixel's survivors
        the winner is the minimum z, the earliest submission on ties —
        ``np.lexsort`` is documented stable and fragments are laid out
        in submission order, so the first entry of each pixel group is
        that winner — and runs apply in ascending submission order:
        together the reference's strict-``<`` first-wins rule;
    (c) a fragment exists only for a pixel of its triangle's bbox ∩
        tile, so coverage is confined to the pixels the reference
        evaluates by construction, whatever the submission order.
    """
    bx0 = np.maximum(x_min[tri], px0)
    by0 = np.maximum(y_min[tri], py0)
    bw = np.minimum(x_max[tri], px1) - bx0 + 1
    bh = np.minimum(y_max[tri], py1) - by0 + 1
    ends = np.cumsum(bw * bh)
    row_ends = np.cumsum(bh)
    p = pts[tri]
    x0, y0 = p[:, 0, 0], p[:, 0, 1]
    x1, y1 = p[:, 1, 0], p[:, 1, 1]
    x2, y2 = p[:, 2, 0], p[:, 2, 1]
    # One matrix row per per-triangle operand: np.repeat copies whole
    # columns to rows and then to fragments, several times cheaper
    # than gathering each operand through an index array.
    coef = np.array([y1 - y2, y2 - y0, x2, denom[tri],
                     x2 - x1, x0 - x2, y2])
    # "Position minus (group start - origin)" numbers the rows of a
    # triangle, and below the pixels of a row, without an integer divide.
    cell = np.array([row_ends - bh - by0, bx0, bw, tri])
    width = px1 - px0 + 1
    lo = 0
    while lo < tri.size:
        budget = (ends[lo - 1] if lo else 0) + FRAGMENT_BATCH
        hi = max(int(np.searchsorted(ends, budget, side="right")), lo + 1)
        # (triangle, row): the y term of both edge functions.
        nb = bh[lo:hi]
        rows = np.repeat(coef[:, lo:hi], nb, axis=1)
        shift, ix0, rw, t = np.repeat(cell[:, lo:hi], nb, axis=1)
        iy = np.arange(row_ends[hi - 1] - rw.size, row_ends[hi - 1]) - shift
        lo = hi
        # Pixel centers: exact integer + 0.5 floats, the same values
        # the reference loop's meshgrid produces.
        gy = (iy + 0.5) - rows[6]
        rows[4] *= gy
        rows[5] *= gy
        # (triangle, row, column): one fragment per bbox ∩ tile pixel.
        a, c, fx2, fd, by, dy = np.repeat(rows[:6], rw, axis=1)
        shift, row = np.repeat(
            np.array([np.cumsum(rw) - rw - ix0, np.arange(rw.size)]),
            rw, axis=1)
        ix = np.arange(row.size) - shift
        gx = (ix + 0.5) - fx2
        w0 = (a * gx + by) / fd
        w1 = (c * gx + dy) / fd
        w2 = 1.0 - w0 - w1
        inside = np.nonzero((w0 >= 0) & (w1 >= 0) & (w2 >= 0))[0]
        # Perspective-correct depth, for covered fragments only.
        row = row[inside]
        t, ry, rx = t[row], iy[row] - py0, ix[inside] - px0
        z0, z1, z2 = zs[t].T
        a0 = w0[inside] / z0
        a1 = w1[inside] / z1
        a2 = w2[inside] / z2
        inv_z = a0 + a1 + a2
        pixel_z = 1.0 / np.where(inv_z > 0, inv_z, np.inf)
        closer = np.nonzero(pixel_z < zbuf[ry, rx])[0]
        if closer.size == 0:
            continue
        # Sort by pixel, then depth; the stable sort keeps submission
        # order among equals, so each pixel group leads with its winner.
        pix = ry[closer] * width + rx[closer]
        order = np.lexsort((pixel_z[closer], pix))
        win = closer[order[np.diff(pix[order], prepend=-1) != 0]]
        ry, rx, pz, cw = ry[win], rx[win], pixel_z[win], cols[t[win]]
        zbuf[ry, rx] = pz
        # Same association order as the reference color blend.
        frame[ry, rx] = (
            a0[win][:, None] * cw[:, 0]
            + a1[win][:, None] * cw[:, 1]
            + a2[win][:, None] * cw[:, 2]
        ) * pz[:, None]


class Renderer:
    """Accumulates shaded triangles into an image with a z-buffer."""

    def __init__(self, camera: Camera, pool: Optional[object] = None):
        """``pool`` is accepted from callers that hold a compute pool
        and is not used: every tile composites inline on every pool
        (docs/adr/008-tiles-composite-inline.md)."""
        self.camera = camera
        height, width = camera.height, camera.width
        self._frame = np.tile(BACKGROUND, (height, width, 1))
        self._zbuffer = np.full((height, width), np.inf)
        #: Total triangles submitted (pipeline statistics).
        self.triangles_drawn = 0
        #: Triangles dropped by the near-plane cull. Any triangle with
        #: at least one vertex at depth <= near is culled *whole* —
        #: geometry crossing the near plane is not clipped (a known
        #: limitation); this counter makes the loss observable.
        self.triangles_culled = 0
        #: (triangle, pixel) pairs evaluated: the sum of the drawable
        #: triangles' screen-clipped bbox areas — the compositor's cost
        #: model input.
        self.fragments_evaluated = 0

    def draw(self, soup: TriangleSoup, colormap: Colormap,
             vmin: Optional[float] = None,
             vmax: Optional[float] = None) -> None:
        """Shade and rasterize a triangle soup.

        Colors come from mapping the soup's per-vertex values through
        ``colormap`` (an explicit ``vmin``/``vmax`` overrides that bound
        of the colormap's own range), then scaling by a two-sided
        diffuse factor from the triangle normal.
        """
        if soup.n_triangles == 0:
            return
        cmap = colormap
        if vmin is not None or vmax is not None:
            cmap = Colormap(
                colormap.name,
                vmin=colormap.vmin if vmin is None else vmin,
                vmax=colormap.vmax if vmax is None else vmax,
            )
        colors = cmap.map(soup.values)                    # (n, 3, 3)
        normals = triangle_normals(soup.vertices)
        diffuse = 0.25 + 0.75 * np.abs(normals @ LIGHT_DIR)
        colors = colors * diffuse[:, None, None]
        self._rasterize(soup.vertices, colors)
        self.triangles_drawn += soup.n_triangles

    def draw_flat(self, soup: TriangleSoup,
                  color: Sequence[float]) -> None:
        """Rasterize with one flat RGB color (still lit)."""
        if soup.n_triangles == 0:
            return
        base = np.asarray(color, dtype=np.float64)
        normals = triangle_normals(soup.vertices)
        diffuse = 0.25 + 0.75 * np.abs(normals @ LIGHT_DIR)
        colors = np.tile(base, (soup.n_triangles, 3, 1))
        colors *= diffuse[:, None, None]
        self._rasterize(soup.vertices, colors)
        self.triangles_drawn += soup.n_triangles

    def _rasterize(self, vertices: np.ndarray,
                   colors: np.ndarray) -> None:
        """Project, cull, bin to screen tiles and composite each tile
        in place, one after another."""
        height, width = self._zbuffer.shape
        xy, depth = self.camera.project(vertices.reshape(-1, 3))
        xy = xy.reshape(-1, 3, 2)
        depth = depth.reshape(-1, 3)

        # Cull triangles behind the near plane (whole triangles — no
        # clipping; see triangles_culled).
        visible = np.all(depth > self.camera.near, axis=1)
        self.triangles_culled += int(visible.size - int(visible.sum()))
        pts = xy[visible]                              # (n, 3, 2)
        x = pts[:, :, 0]
        y = pts[:, :, 1]
        x_min = np.maximum(
            np.floor(x.min(axis=1)).astype(np.int64), 0
        )
        x_max = np.minimum(
            np.ceil(x.max(axis=1)).astype(np.int64), width - 1
        )
        y_min = np.maximum(
            np.floor(y.min(axis=1)).astype(np.int64), 0
        )
        y_max = np.minimum(
            np.ceil(y.max(axis=1)).astype(np.int64), height - 1
        )
        denom = (
            (y[:, 1] - y[:, 2]) * (x[:, 0] - x[:, 2])
            + (x[:, 2] - x[:, 1]) * (y[:, 0] - y[:, 2])
        )
        # Off-screen bboxes and screen-degenerate triangles contribute
        # nothing. Boolean masks keep submission order.
        drawable = (
            (x_min <= x_max) & (y_min <= y_max)
            & (np.abs(denom) >= 1e-12)
        )
        keep = np.nonzero(visible)[0][drawable]
        x_min, x_max, y_min, y_max, denom = (
            a[drawable] for a in (x_min, x_max, y_min, y_max, denom)
        )
        self.fragments_evaluated += int(
            ((x_max - x_min + 1) * (y_max - y_min + 1)).sum())
        arrays = (xy[keep], depth[keep], colors[keep],
                  x_min, x_max, y_min, y_max, denom)
        for region, bounds, tri in self._bin_tiles(x_min, x_max,
                                                   y_min, y_max):
            _composite_fragments(tri, *arrays, self._zbuffer[region],
                                 self._frame[region], *bounds)

    def _bin_tiles(self, x_min: np.ndarray, x_max: np.ndarray,
                   y_min: np.ndarray, y_max: np.ndarray):
        """Yield ``(region, (px0, px1, py0, py1), tri)`` per non-empty
        tile: the buffer slices, the inclusive pixel bounds, and the
        indices of the triangles whose bbox touches the tile."""
        height, width = self._zbuffer.shape
        tx_lo = x_min // TILE_SIZE
        tx_hi = x_max // TILE_SIZE
        ty_lo = y_min // TILE_SIZE
        ty_hi = y_max // TILE_SIZE
        for ty in range((height + TILE_SIZE - 1) // TILE_SIZE):
            row = (ty_lo <= ty) & (ty <= ty_hi)
            if not row.any():
                continue
            py0 = ty * TILE_SIZE
            py1 = min(py0 + TILE_SIZE, height) - 1
            for tx in range((width + TILE_SIZE - 1) // TILE_SIZE):
                mask = row & (tx_lo <= tx) & (tx <= tx_hi)
                if not mask.any():
                    continue
                px0 = tx * TILE_SIZE
                px1 = min(px0 + TILE_SIZE, width) - 1
                # nonzero is ascending, so each tile sees its triangles
                # in original submission order.
                yield ((slice(py0, py1 + 1), slice(px0, px1 + 1)),
                       (px0, px1, py0, py1), np.nonzero(mask)[0])

    def draw_colorbar(self, colormap: Colormap,
                      width: int = 12,
                      margin: int = 4) -> None:
        """Paint a vertical colorbar strip along the right edge.

        The bar runs from the colormap's low color (bottom) to its high
        color (top) — the legend interactive tools show next to the
        scene. Drawn over whatever is already in the frame.
        """
        height, frame_width = self._zbuffer.shape
        if width + 2 * margin >= frame_width:
            raise ValueError("colorbar wider than the frame")
        if 2 * margin >= height:
            raise ValueError("colorbar margins taller than the frame")
        x0 = frame_width - margin - width
        # One color sample per row, high values on top.
        t = np.linspace(1.0, 0.0, height - 2 * margin)
        strip = Colormap(colormap.name, vmin=0.0, vmax=1.0).map(t)
        self._frame[margin:height - margin, x0:x0 + width] = \
            strip[:, None, :]

    def image(self) -> np.ndarray:
        """The current frame as an (h, w, 3) uint8 array."""
        return (np.clip(self._frame, 0.0, 1.0) * 255.0 + 0.5).astype(
            np.uint8
        )

    def depth_image(self) -> np.ndarray:
        """The z-buffer normalized to uint8 (for debugging/tests)."""
        z = self._zbuffer.copy()
        finite = np.isfinite(z)
        if finite.any():
            lo, hi = z[finite].min(), z[finite].max()
            span = (hi - lo) or 1.0
            z[finite] = 1.0 - (z[finite] - lo) / span
        z[~finite] = 0.0
        return (z * 255.0 + 0.5).astype(np.uint8)
