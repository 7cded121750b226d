"""Screen-space oracle tests for the pixel-centre-tight bbox.

The renderer evaluates a triangle only at the pixels whose centre lies
within a per-triangle margin of the triangle's coordinate range
(``repro.viz.render._centre_margin``, derived in
``docs/adr/013-one-fragment-per-covered-pixel.md``); every pixel it
drops must fail the reference loop's inside test *as computed in
float64*, and a pixel's winner among equal depths must be the first
submission. Here a camera passes chosen screen coordinates straight
through, so vertices sit exactly on pixel centres, one ulp either side
of them, on slivers at the degeneracy cut-off or in equal-depth stacks,
and the renderer is compared with ``tests/reference_raster.py`` at
``FRAGMENT_BATCH`` 1, 64 and the shipped value.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_raster import ReferenceRenderer

import repro.viz.render as render_module
from repro.viz.colormap import Colormap
from repro.viz.isosurface import TriangleSoup
from repro.viz.render import Renderer

#: Read once: the tests patch the module attribute.
SHIPPED_BATCH = render_module.FRAGMENT_BATCH
BATCHES = (1, 64, SHIPPED_BATCH)


class ScreenCamera:
    """Projects a vertex ``(x, y, depth)`` to the screen point
    ``(x, y)`` at ``depth``: tests choose screen coordinates exactly."""

    near = 0.1

    def __init__(self, width, height):
        self.width, self.height = width, height

    def project(self, points, out=None):
        """``Camera.project``'s contract: new arrays, or ``out``."""
        points = np.asarray(points, dtype=np.float64)
        if out is None:
            return points[:, :2].copy(), points[:, 2].copy()
        out[0][...] = points[:, :2]
        out[1][...] = points[:, 2]
        return out


def assert_matches_oracle(vertices, size, batches=BATCHES):
    """Draw ``vertices`` (one distinct value per triangle, so the
    winner of every tie shows in the frame) with the reference loop and
    with the renderer at each batch size: frames and z-buffers equal.
    Returns the oracle."""
    n = len(vertices)
    values = np.repeat(np.arange(n, dtype=np.float64)[:, None] % 16, 3,
                       axis=1)
    soup = TriangleSoup(np.asarray(vertices, dtype=np.float64), values)
    cmap = Colormap("rainbow", vmin=0.0, vmax=15.0)
    oracle = ReferenceRenderer(ScreenCamera(*size))
    oracle.draw(soup, cmap)
    for batch in batches:
        with mock.patch.object(render_module, "FRAGMENT_BATCH", batch):
            renderer = Renderer(ScreenCamera(*size))
            renderer.draw(soup, cmap)
        assert np.array_equal(renderer._zbuffer, oracle._zbuffer), batch
        assert np.array_equal(renderer._frame, oracle._frame), batch
    return oracle


def accepted_outside(vertices):
    """Pixel centres the reference's inside test accepts although they
    lie strictly outside the triangle's coordinate range — the centres
    a bbox without a margin would wrongly drop — summed over the
    drawable triangles."""
    count = 0
    for (x0, y0, _), (x1, y1, _), (x2, y2, _) in vertices:
        denom = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
        if abs(denom) < 1e-12:
            continue
        xs, ys = (x0, x1, x2), (y0, y1, y2)
        gx, gy = np.meshgrid(
            np.arange(np.floor(min(xs)), np.ceil(max(xs)) + 1) + 0.5,
            np.arange(np.floor(min(ys)), np.ceil(max(ys)) + 1) + 0.5,
        )
        w0 = ((y1 - y2) * (gx - x2) + (x2 - x1) * (gy - y2)) / denom
        w1 = ((y2 - y0) * (gx - x2) + (x0 - x2) * (gy - y2)) / denom
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        outside = ((gx < min(xs)) | (gx > max(xs))
                   | (gy < min(ys)) | (gy > max(ys)))
        count += int((inside & outside).sum())
    return count


def shift_ulps(values, steps):
    """``values`` moved ``steps`` (elementwise, signed) representable
    floats up or down."""
    values = np.array(values, dtype=np.float64)
    steps = np.broadcast_to(steps, values.shape)
    for _ in range(int(np.abs(steps).max(initial=0))):
        up = np.nextafter(values, np.inf)
        down = np.nextafter(values, -np.inf)
        values = np.where(steps > 0, up, np.where(steps < 0, down, values))
        steps = steps - np.sign(steps)
    return values


#: Small triangles whose every extreme lies on a pixel centre
#: (``i + 0.5``), in cell-local screen coordinates.
CENTRE_SHAPES = (
    ((0.5, 0.5), (3.5, 0.5), (0.5, 2.5)),     # legs on centre lines
    ((0.5, 2.5), (3.5, 0.5), (2.5, 3.5)),
    ((1.5, 0.5), (3.5, 2.5), (0.5, 3.5)),
)


def test_extremes_on_pixel_centres_and_one_ulp_either_side():
    # Every coordinate of every shape at a centre, one ulp below and
    # one above it (3^6 variants a shape), each in a 5 x 5 cell of its
    # own on a ragged 4 x 4-tile frame, depths varying per vertex.
    vertices = []
    for shape in CENTRE_SHAPES:
        for code in range(3 ** 6):
            steps = np.array([(code // 3 ** k) % 3 - 1 for k in range(6)])
            cell = len(vertices)
            offset = (5 * (cell % 47), 5 * (cell // 47))
            xy = shift_ulps(np.add(shape, offset), steps.reshape(3, 2))
            vertices.append(np.column_stack([xy, (1.0, 2.0, 3.0)]))
    # Rounding really does put centres outside the triangle's range
    # inside it: a margin-free bbox would drop pixels the oracle draws.
    assert accepted_outside(vertices) > 0
    oracle = assert_matches_oracle(vertices, (240, 240))
    assert np.isfinite(oracle._zbuffer).sum() > 3 * 3 ** 6


def test_slivers_just_above_the_degeneracy_cutoff():
    # Nearly collinear triangles along a centre row, a centre column
    # and a diagonal through centres, pinched until |denom| is just
    # above 1e-12: the error bound grows past the bbox and the sliver
    # is evaluated over its whole floor/ceil bbox, as the oracle is.
    vertices, denoms = [], []
    for k, pinch in enumerate((5e-14, 8e-14, 1.2e-13)):
        base = 10.5 + 12 * k
        for a, b, c in (
                ((2.5, base), (40.5, base), (21.5, base + pinch)),
                ((base, 2.5), (base, 40.5), (base + pinch, 21.5)),
                ((2.5, base - 8), (30.5, base + 20),
                 (16.5 + pinch, base + 6))):
            tri = np.array([a, b, c])
            (x0, y0), (x1, y1), (x2, y2) = tri
            denoms.append((y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2))
            vertices.append(np.column_stack([tri, (1.0, 1.5, 2.0)]))
    assert 1e-12 <= np.abs(denoms).min() and np.abs(denoms).max() < 1e-11
    oracle = assert_matches_oracle(vertices, (64, 64))
    assert np.isfinite(oracle._zbuffer).any()


def test_equal_depth_stack_keeps_the_first_submission():
    # Triangles at one constant depth over the same pixels — identical
    # copies in distinct colors, and shifted ones whose interpolated
    # depths tie or differ by an ulp — all in one run at the shipped
    # batch and each a run of its own at batch 1.
    big = np.array([(4.5, 4.5), (40.5, 6.5), (12.5, 44.5)])
    shapes = [big, big + (3.0, 2.0), big, big + (-1.0, 1.0), big]
    stack = [np.column_stack([s, (2.0, 2.0, 2.0)]) for s in shapes]
    assert_matches_oracle(stack, (64, 64))
    # Identical copies tie exactly at every pixel: the first one shows.
    copies = assert_matches_oracle(stack[::2], (64, 64))
    alone = assert_matches_oracle(stack[:1], (64, 64), batches=())
    assert np.isfinite(alone._zbuffer).sum() > 300
    assert np.array_equal(copies._frame, alone._frame)


#: A coordinate on the quarter-pixel lattice (pixel edges and centres
#: included), moved up to two ulps either way.
snapped = st.builds(
    lambda quarter, ulps: float(shift_ulps(quarter / 4.0, ulps)),
    st.integers(-8, 4 * 44), st.integers(-2, 2))


@settings(max_examples=60, deadline=None)
@given(
    triangles=st.lists(
        st.tuples(snapped, snapped, snapped, snapped, snapped, snapped,
                  st.sampled_from((1.0, 1.5, 2.0))),
        min_size=1, max_size=12),
    batch=st.sampled_from(BATCHES),
)
def test_snapped_soups_match_reference_loop(triangles, batch):
    """Any soup of snapped triangles, equal depths frequent, on a
    ragged two-tile frame."""
    vertices = [
        np.array([(x0, y0, z), (x1, y1, z + 0.25), (x2, y2, z)])
        for x0, y0, x1, y1, x2, y2, z in triangles
    ]
    assert_matches_oracle(vertices, (70, 40), batches=(batch,))
