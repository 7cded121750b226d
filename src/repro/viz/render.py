"""A z-buffered software rasterizer.

Projects triangle soups through a :class:`~repro.viz.camera.Camera`,
shades them with per-vertex colors (Gouraud) modulated by a single
directional light, and composites into an RGB image — the VTK-replacement
needed to make Voyager produce actual image files.

There is one rasterization path, and a draw is two steps.
:meth:`Renderer.cover` projects, culls, bins the surviving triangles to
``TILE_SIZE`` screen tiles (disjoint z-buffer regions) and covers each
tile with :func:`_composite_fragments`: submission-ordered runs of
triangles, each expanded into one flat batch of (triangle, pixel)
fragments, whose winners advance the z-buffer. The result is a
:class:`Coverage` — each written pixel's last writer and its
interpolation terms — which :meth:`Renderer.shade` colors once. A
coverage does not depend on the colors, so a caller may keep one and
shade it again with new colors over the same z-buffer
(docs/adr/021-visibility-is-a-derived-product.md), and a caller may
compute colors for the triangles that won a pixel only
(:meth:`Coverage.winners`); :meth:`Renderer.image` converts only the
written pixels (docs/adr/023-a-frame-shades-what-it-shows.md). Every
tile is covered inline and in place, whatever pool the caller holds:
shipping a tile to a parallel pool was measured on both backends at
every dataset scale the repo produces, and no tile paid for its
dispatch, staging and write-back
(docs/adr/008-tiles-composite-inline.md).

Determinism is stated against the spec the rasterizer replaced, the
one-triangle-at-a-time loop kept as ``tests/reference_raster.py``:
(a) every fragment's floats are computed with the same operands in the
same association order as that loop (pixel centers are exact ``integer
+ 0.5`` values either way); (b) a pixel's winner within a run is its
minimum depth, the earliest submission on ties — two ``np.minimum.at``
reductions over the tile's pixels, the depth and then the smallest
fragment index at that depth, exact because ``ufunc.at`` is unbuffered
and applies every repeated index, over fragments laid out in
submission order — tested with the same strict ``pixel_z < z`` against
the buffer as it stood before the run, and runs apply in ascending
submission order, so later triangles never overwrite an equal-depth
earlier one, and the color the loop leaves in a pixel is the one its
last winner writes, which is what :meth:`Renderer.shade` computes; (c) a fragment exists only for a pixel of its own
triangle's bbox ∩ tile whose centre lies within a margin ``m`` of the
triangle's coordinate range, and every pixel of the reference's
``floor``/``ceil`` bbox left out provably fails the inside test as the
reference computes it in float64 (``m = 2 max(w, h) E`` with ``E = 32 u
(1 + K)^2`` bounding each computed weight's error, see
:func:`_centre_margin`); tiles are disjoint pixel sets, so the order
tiles composite in cannot matter. Frames are byte-for-byte the
reference's for every ``FRAGMENT_BATCH``.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Union

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
#: (ADR-002), and 2^12..2^15 again under the pixel-centre-tight bbox
#: (ADR-013, docs/adr/): shorter is interpreter-bound, longer raises
#: peak RSS.
FRAGMENT_BATCH = 1 << 13
#: Frame clear color (RGB in [0, 1]).
BACKGROUND = (0.08, 0.08, 0.12)
#: Unit direction of the headlight the diffuse shading uses.
LIGHT_DIR = np.array([0.4, 0.3, 0.85]) / np.linalg.norm([0.4, 0.3, 0.85])


def _to_bytes(frame: np.ndarray) -> np.ndarray:
    """Float RGB in [0, 1] to uint8, rounding half up."""
    return (np.clip(frame, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


@functools.lru_cache(maxsize=4)
def _blank_image(height: int, width: int) -> np.ndarray:
    """The 8-bit image of a frame nothing was written to (read-only),
    filled from the background's three bytes with no float frame:
    what :meth:`Renderer.image` copies before converting the written
    pixels."""
    image = np.empty((height, width, 3), np.uint8)
    image[...] = _to_bytes(np.asarray(BACKGROUND))
    image.flags.writeable = False
    return image


def _centre_margin(w: np.ndarray, h: np.ndarray, denom: np.ndarray,
                   reach: np.ndarray) -> np.ndarray:
    """Per-triangle screen margin m such that a pixel centre farther
    than m outside ``[min, max]`` of the triangle's coordinates fails
    the inside test *as computed*; derived in
    docs/adr/013-one-fragment-per-covered-pixel.md.

    ``w``/``h`` are the triangle's x/y extents, ``denom`` its computed
    edge-function denominator, ``reach`` its largest absolute
    coordinate, ``u`` the float64 unit roundoff 2^-53. For a centre in
    the ``floor``/``ceil`` bbox each computed weight (the reference's
    expressions) is within ``E = 32 u (1 + K)^2`` of its exact
    barycentric, ``K = (h (w + 2) + w (h + 2)) / |denom|``, while a
    centre at distance d outside has an exact barycentric
    ``<= -d / (2 max(w, h))``: past ``2 max(w, h) E`` one computed
    weight is negative. ``8 u (reach + 1)`` covers the rounding of the
    span arithmetic; past ``K = 2^49`` the error analysis no longer
    holds and the margin is infinite (the old bbox).
    """
    u = np.finfo(np.float64).eps / 2
    # The floor only keeps undrawable (|denom| < 1e-12) triangles finite.
    k = (h * (w + 2) + w * (h + 2)) / np.maximum(np.abs(denom), 1e-12)
    err = 32 * u * (1 + k) ** 2
    margin = 2 * np.maximum(w, h) * err + 8 * u * (reach + 1)
    return np.where(k < 2.0 ** 49, margin, np.inf)


def _centre_span(lo: np.ndarray, hi: np.ndarray, margin: np.ndarray,
                 size: int):
    """Inclusive pixel range ``[first, last]`` along one screen axis:
    the pixels ``i`` of the ``floor``/``ceil`` bbox and the screen whose
    centre ``i + 0.5`` lies in ``[lo - margin, hi + margin]``; empty
    (``first > last``) when there is none."""
    first = np.maximum(np.ceil(lo - margin - 0.5), np.floor(lo))
    last = np.minimum(np.floor(hi + margin - 0.5), np.ceil(hi))
    return (np.clip(first, 0, size).astype(np.int64),
            np.clip(last, -1, size - 1).astype(np.int64))


def _centre_bbox(pts: np.ndarray, width: int, height: int):
    """Per triangle of ``pts`` (n, 3, 2): the inclusive, screen-clipped
    pixel bbox ``x_min, x_max, y_min, y_max`` whose centres can pass
    the inside test (:func:`_centre_span` on each axis, with
    :func:`_centre_margin`), and the edge-function ``denom``."""
    x0, x1, x2 = pts[:, 0, 0], pts[:, 1, 0], pts[:, 2, 0]
    y0, y1, y2 = pts[:, 0, 1], pts[:, 1, 1], pts[:, 2, 1]
    denom = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
    # Elementwise over the three vertices: a reduction along an axis of
    # length 3 costs ~20x more.
    lo_x = np.minimum(np.minimum(x0, x1), x2)
    hi_x = np.maximum(np.maximum(x0, x1), x2)
    lo_y = np.minimum(np.minimum(y0, y1), y2)
    hi_y = np.maximum(np.maximum(y0, y1), y2)
    # Largest |coordinate|: lo <= hi, so max(|lo|, |hi|) = max(-lo, hi).
    reach = np.maximum(np.maximum(-lo_x, hi_x), np.maximum(-lo_y, hi_y))
    margin = _centre_margin(hi_x - lo_x, hi_y - lo_y, denom, reach)
    return (*_centre_span(lo_x, hi_x, margin, width),
            *_centre_span(lo_y, hi_y, margin, height), denom)


def _composite_fragments(tri: np.ndarray, pts: np.ndarray, zs: np.ndarray,
                         x_min: np.ndarray, x_max: np.ndarray,
                         y_min: np.ndarray, y_max: np.ndarray,
                         denom: np.ndarray, zbuf: np.ndarray,
                         px0: int, px1: int, py0: int, py1: int,
                         stride: int) -> Optional[tuple]:
    """Cover one tile with its triangles in submission order.

    ``zbuf`` is a view of exactly the tile's pixel region
    ``[py0..py1] × [px0..px1]`` of the renderer's z-buffer and is
    updated in place, run by run. Each triangle's pixel-centre-tight
    bbox (:func:`_centre_bbox`) is clipped to the tile;
    submission-ordered runs of triangles whose clipped areas sum to at
    most FRAGMENT_BATCH (a larger triangle is a run of its own) are
    expanded into flat (triangle, pixel) fragment arrays and evaluated
    in one vectorized pass. Returns the last writer of every pixel the
    tile's runs wrote — ``(pixels, triangles, terms)``: flat frame
    indices (row ``stride``), indices into ``tri``'s arrays, and the
    ``(4, k)`` rows ``a0``, ``a1``, ``a2``, depth — or None when no
    fragment won. Why shading those terms gives the reference loop's
    frame, bit for bit:

    (a) every fragment evaluates the reference's barycentric and
        ``inv_z`` expressions on the same operands in the same
        association order — per-triangle and per-row terms are computed
        once and *copied* to their fragments (``np.repeat``), never
        re-associated — and :meth:`Renderer.shade` blends the colors
        from the recorded ``a0``/``a1``/``a2`` and depth exactly as the
        reference does;
    (b) a fragment survives only if it is inside and strictly ``<`` the
        buffer *as it stood before the run*; among a pixel's survivors
        the winner is the minimum z, the earliest submission on ties —
        ``np.minimum.at`` over the tile's pixels finds each pixel's
        least z, then the least fragment index at it; ``ufunc.at`` is
        documented unbuffered, so every repeated pixel index is
        applied, and fragments are laid out in submission order — and
        runs apply in ascending submission order: together the
        reference's strict-``<`` first-wins rule, under which a pixel's
        color is its last winner's;
    (c) a fragment exists only for a pixel of its triangle's tight bbox
        ∩ tile, a subset of the pixels the reference evaluates, and
        every pixel the tight bbox leaves out fails the reference's
        inside test as computed (:func:`_centre_margin`), so coverage
        is the reference's whatever the submission order.
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
    # Each pixel's latest winner: its triangle (-1: none) and terms.
    owner = np.full(zbuf.size, -1)
    terms = np.empty((4, zbuf.size))
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
        # Each pixel's minimum depth, then the first fragment at that
        # depth: fragments are laid out in submission order, and
        # ufunc.at applies every index, repeated ones included.
        pix = ry[closer] * width + rx[closer]
        pz = pixel_z[closer]
        least = np.full(zbuf.size, np.inf)
        np.minimum.at(least, pix, pz)
        tied = np.nonzero(pz == least[pix])[0]
        first = np.full(zbuf.size, closer.size)
        np.minimum.at(first, pix[tied], tied)
        sel = tied[first[pix[tied]] == tied]
        win = closer[sel]
        pz = pz[sel]
        zbuf[ry[win], rx[win]] = pz
        # A run's winners are distinct pixels; a later run's winner
        # overwrites an earlier one's.
        pix = pix[sel]
        owner[pix] = t[win]
        terms[0, pix] = a0[win]
        terms[1, pix] = a1[win]
        terms[2, pix] = a2[win]
        terms[3, pix] = pz
    local = np.flatnonzero(owner >= 0)
    if not local.size:
        return None
    ry, rx = np.divmod(local, width)
    return ((ry + py0) * stride + (rx + px0), owner[local],
            terms[:, local])


class Coverage:
    """What one draw covers: the last writer of every pixel it wrote.

    The product of :meth:`Renderer.cover`, consumed by
    :meth:`Renderer.shade`. It is a function of the soup's vertices,
    the camera and the z-buffer the draw started from — not of the
    colors — so a draw of the same geometry over the same earlier
    geometry may replay it with new colors (the "visibility buffer"
    of Burns & Hunt, JCGT 2013). Carries the counters the draw adds,
    so a replayed draw counts what a computed one does.
    """

    __slots__ = ("pixels", "triangles", "terms", "culled", "fragments")

    def __init__(self, pixels: np.ndarray, triangles: np.ndarray,
                 terms: np.ndarray, culled: int, fragments: int):
        #: Flat frame indices of the written pixels, each once.
        self.pixels = pixels
        #: Soup index of each pixel's last writer.
        self.triangles = triangles
        #: ``(4, k)`` float64: the writer's ``a0``, ``a1``, ``a2``
        #: (barycentric over vertex depth) and its depth.
        self.terms = terms
        #: Triangles the near-plane cull dropped.
        self.culled = culled
        #: (triangle, pixel) pairs the draw evaluated.
        self.fragments = fragments

    def cache_nbytes(self) -> int:
        """Budget-accounting size: the three arrays' payload."""
        return int(self.pixels.nbytes + self.triangles.nbytes
                   + self.terms.nbytes) + 64

    def cache_freeze(self) -> "Coverage":
        """Mark the arrays read-only (a cached coverage is shared)."""
        for array in (self.pixels, self.triangles, self.terms):
            array.flags.writeable = False
        return self

    def winners(self, n: int) -> "tuple[np.ndarray, Coverage]":
        """The rows of an ``n``-triangle submission that won a pixel,
        ascending, and this coverage with each pixel's writer numbered
        by its place among them — what :meth:`Renderer.shade` reads
        when colors are computed for the winners only."""
        won = np.zeros(n, dtype=bool)
        won[self.triangles] = True
        place = np.cumsum(won) - 1
        return np.flatnonzero(won), Coverage(
            self.pixels, place[self.triangles], self.terms, self.culled,
            self.fragments)


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
        #: Frame regions :meth:`draw_colorbar` painted (no depth).
        self._painted = []
        #: Total triangles submitted (pipeline statistics).
        self.triangles_drawn = 0
        #: Triangles dropped by the near-plane cull. Any triangle with
        #: at least one vertex at depth <= near is culled *whole* —
        #: geometry crossing the near plane is not clipped (a known
        #: limitation); this counter makes the loss observable.
        self.triangles_culled = 0
        #: (triangle, pixel) pairs evaluated: the sum of the drawable
        #: triangles' pixel-centre-tight, screen-clipped bbox areas —
        #: the compositor's cost model input.
        self.fragments_evaluated = 0

    def draw(self, soup: TriangleSoup, colormap: Colormap,
             vmin: Optional[float] = None,
             vmax: Optional[float] = None) -> None:
        """Shade and rasterize a triangle soup; colors are
        :meth:`colors`."""
        if soup.n_triangles == 0:
            return
        self.draw_colored(soup.vertices,
                          self.colors(soup, colormap, vmin, vmax))

    def colors(self, soup: TriangleSoup, colormap: Colormap,
               vmin: Optional[float] = None,
               vmax: Optional[float] = None,
               out: Optional[np.ndarray] = None,
               rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The soup's lit per-vertex colors, ``(n, 3, 3)``.

        The soup's values map through ``colormap`` (an explicit
        ``vmin``/``vmax`` overrides that bound of the colormap's own
        range), then scale by a two-sided diffuse factor from the
        triangle normal. ``out`` (``(n, 3, 3)`` float64), when given,
        receives the colors: a caller drawing several soups as one
        submission writes each into its rows of one buffer. ``rows``
        (ascending soup indices), when given, colors only those
        triangles, each exactly as the whole soup's colors have it: an
        autoscaled bound is the whole soup's, and a lone row is lit by
        the matrix-vector product the whole soup's normals take, not
        by the dot product a ``(1, 3)`` array takes, which may round
        it differently.
        """
        lo = colormap.vmin if vmin is None else vmin
        hi = colormap.vmax if vmax is None else vmax
        values, vertices = soup.values, soup.vertices
        if rows is not None:
            lo = float(np.min(values)) if lo is None else lo
            hi = float(np.max(values)) if hi is None else hi
            values, vertices = values[rows], vertices[rows]
        mapped = Colormap(colormap.name, vmin=lo, vmax=hi).map(values)
        normals = triangle_normals(vertices)
        if len(normals) == 1 < soup.n_triangles:
            normals = np.repeat(normals, 2, axis=0)
        diffuse = 0.25 + 0.75 * np.abs(normals @ LIGHT_DIR)
        return np.multiply(mapped, diffuse[:len(mapped), None, None],
                           out=out)

    def draw_colored(self, vertices: np.ndarray,
                     colors: np.ndarray) -> None:
        """Rasterize ``(n, 3, 3)`` triangles with per-vertex ``colors``
        as one submission."""
        self._rasterize(vertices, colors)
        self.triangles_drawn += len(colors)

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
        self.draw_colored(soup.vertices, colors)

    def _rasterize(self, vertices: np.ndarray,
                   colors: np.ndarray) -> None:
        """Cover the triangles, then shade what they cover."""
        self.shade(self.cover(vertices), colors)

    def cover(self, vertices: Union[np.ndarray, Sequence[np.ndarray]]
              ) -> Coverage:
        """Visibility of an ``(n, 3, 3)`` triangle array against the
        z-buffer as it stands: project, cull, bin to screen tiles and
        cover each tile (:func:`_composite_fragments`), one after
        another. Advances the z-buffer; the frame and the counters are
        :meth:`shade`'s.

        ``vertices`` may also be a sequence of such arrays: one
        submission of their triangles in order, each array projected on
        its own (the arithmetic of covering them one by one) into its
        rows of the projected buffers, so the triangles are never
        copied into one array."""
        height, width = self._zbuffer.shape
        if isinstance(vertices, np.ndarray):
            vertices = [vertices]
        total = sum(len(part) for part in vertices)
        xy = np.empty((3 * total, 2))
        depth = np.empty(3 * total)
        offset = 0
        for part in vertices:
            end = offset + 3 * len(part)
            self.camera.project(part.reshape(-1, 3),
                                out=(xy[offset:end], depth[offset:end]))
            offset = end
        xy = xy.reshape(-1, 3, 2)
        depth = depth.reshape(-1, 3)

        # Cull triangles behind the near plane (whole triangles — no
        # clipping; see triangles_culled).
        visible = np.all(depth > self.camera.near, axis=1)
        culled = int(visible.size - int(visible.sum()))
        pts = xy[visible]                              # (n, 3, 2)
        x_min, x_max, y_min, y_max, denom = _centre_bbox(pts, width,
                                                         height)
        # Bboxes holding no on-screen pixel centre the triangle can
        # cover and screen-degenerate triangles contribute nothing.
        # Boolean masks keep submission order.
        drawable = (
            (x_min <= x_max) & (y_min <= y_max)
            & (np.abs(denom) >= 1e-12)
        )
        keep = np.nonzero(visible)[0][drawable]
        x_min, x_max, y_min, y_max, denom = (
            a[drawable] for a in (x_min, x_max, y_min, y_max, denom)
        )
        fragments = int(((x_max - x_min + 1) * (y_max - y_min + 1)).sum())
        arrays = (xy[keep], depth[keep], x_min, x_max, y_min, y_max, denom)
        tiles = [
            _composite_fragments(tri, *arrays, self._zbuffer[region],
                                 *bounds, width)
            for region, bounds, tri in self._bin_tiles(x_min, x_max,
                                                       y_min, y_max)
        ]
        tiles = [tile for tile in tiles if tile is not None]
        if not tiles:
            return Coverage(np.empty(0, np.int64), np.empty(0, np.int64),
                            np.empty((4, 0)), culled, fragments)
        pixels, tri, terms = (np.concatenate(part, axis=-1)
                              for part in zip(*tiles))
        return Coverage(pixels, keep[tri], terms, culled, fragments)

    def shade(self, coverage: Coverage, colors: np.ndarray) -> None:
        """Write a coverage into the buffers: each covered pixel's depth
        and its last writer's color from ``colors`` (``(n, 3, 3)``, per
        triangle and vertex), in the reference's association order
        ``(a0*c0 + a1*c1 + a2*c2) * z``; adds the coverage's counters.
        ``colors`` laid out channel-major (a ``(3, 3, n)`` buffer seen
        through ``transpose(2, 1, 0)``) is read in place, not copied."""
        a0, a1, a2, pz = coverage.terms
        tri = coverage.triangles
        self._zbuffer.reshape(-1)[coverage.pixels] = pz
        frame = self._frame.reshape(-1)
        first = 3 * coverage.pixels
        # One channel at a time over contiguous per-vertex color
        # columns: scalar gathers and scatters, no (k, 3) subspaces.
        by_channel = np.ascontiguousarray(colors.transpose(2, 1, 0))
        for channel, (c0, c1, c2) in enumerate(by_channel):
            frame[first + channel] = (
                a0 * c0.take(tri) + a1 * c1.take(tri) + a2 * c2.take(tri)
            ) * pz
        self.triangles_culled += coverage.culled
        self.fragments_evaluated += coverage.fragments

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
        region = (slice(margin, height - margin), slice(x0, x0 + width))
        self._frame[region] = strip[:, None, :]
        self._painted.append(region)

    def image(self) -> np.ndarray:
        """The current frame as an (h, w, 3) uint8 array.

        Only the written pixels are converted; every other one is the
        background's constant. A pixel is written exactly when its
        depth is finite (a draw writes the color and the depth
        together) or it lies in a colorbar strip, the one write that
        has no depth."""
        written = np.isfinite(self._zbuffer)
        for region in self._painted:
            written[region] = True
        pixels = np.flatnonzero(written)
        image = _blank_image(*written.shape).copy()
        image.reshape(-1, 3)[pixels] = _to_bytes(
            self._frame.reshape(-1, 3).take(pixels, axis=0))
        return image

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
