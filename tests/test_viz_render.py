"""Software rasterizer: coverage, z-buffering, shading."""

import numpy as np
import pytest

from repro.viz.camera import Camera
from repro.viz.colormap import Colormap
from repro.viz.isosurface import TriangleSoup
from repro.viz.render import Renderer


def front_camera():
    return Camera(position=(0.0, -5.0, 0.0), look_at=(0.0, 0.0, 0.0),
                  up=(0, 0, 1), width=64, height=64)


def facing_triangle(y=0.0, size=1.0):
    verts = np.array([[
        [-size, y, -size],
        [size, y, -size],
        [0.0, y, size],
    ]])
    values = np.zeros((1, 3))
    return TriangleSoup(verts, values)


def test_blank_image_is_background():
    renderer = Renderer(front_camera())
    image = renderer.image()
    assert image.shape == (64, 64, 3)
    assert len(np.unique(image.reshape(-1, 3), axis=0)) == 1


def test_draw_covers_pixels():
    renderer = Renderer(front_camera())
    renderer.draw(facing_triangle(), Colormap("gray"))
    image = renderer.image()
    background = image[0, 0]
    changed = (image != background).any(axis=2)
    assert changed.sum() > 100
    assert renderer.triangles_drawn == 1


def test_center_pixel_hit():
    renderer = Renderer(front_camera())
    renderer.draw_flat(facing_triangle(), (1.0, 0.0, 0.0))
    image = renderer.image()
    center = image[32, 32]
    assert center[0] > center[2]   # red-ish


def test_zbuffer_near_wins():
    renderer = Renderer(front_camera())
    # Far green triangle drawn first, near red one after.
    renderer.draw_flat(facing_triangle(y=2.0), (0.0, 1.0, 0.0))
    renderer.draw_flat(facing_triangle(y=-2.0), (1.0, 0.0, 0.0))
    center = renderer.image()[32, 32]
    assert center[0] > center[1]


def test_zbuffer_order_independent():
    a = Renderer(front_camera())
    a.draw_flat(facing_triangle(y=2.0), (0.0, 1.0, 0.0))
    a.draw_flat(facing_triangle(y=-2.0), (1.0, 0.0, 0.0))
    b = Renderer(front_camera())
    b.draw_flat(facing_triangle(y=-2.0), (1.0, 0.0, 0.0))
    b.draw_flat(facing_triangle(y=2.0), (0.0, 1.0, 0.0))
    assert np.array_equal(a.image(), b.image())


def test_behind_camera_culled():
    renderer = Renderer(front_camera())
    renderer.draw_flat(facing_triangle(y=-10.0), (1.0, 1.0, 1.0))
    image = renderer.image()
    assert len(np.unique(image.reshape(-1, 3), axis=0)) == 1


def test_empty_soup_noop():
    renderer = Renderer(front_camera())
    renderer.draw(TriangleSoup.empty(), Colormap("gray"))
    assert renderer.triangles_drawn == 0


def test_gouraud_color_interpolation():
    """Per-vertex values shade across the triangle."""
    renderer = Renderer(front_camera())
    soup = TriangleSoup(
        facing_triangle(size=2.0).vertices,
        np.array([[0.0, 0.0, 1.0]]),   # one hot vertex (the top)
    )
    renderer.draw(soup, Colormap("gray", vmin=0.0, vmax=1.0))
    image = renderer.image()
    top = image[10, 32].astype(int).sum()
    bottom = image[50, 32].astype(int).sum()
    assert top > bottom


def test_vmin_vmax_override():
    renderer = Renderer(front_camera())
    soup = facing_triangle()
    renderer.draw(soup, Colormap("gray"), vmin=-1.0, vmax=1.0)
    center = renderer.image()[40, 32]
    # value 0 in [-1, 1] -> mid gray (before lighting).
    assert 40 < center[0] < 220


def test_one_sided_override_keeps_colormap_bound():
    # Only vmax is overridden: the colormap's own vmin still holds
    # instead of autoscaling to the soup.
    soup = TriangleSoup(facing_triangle(size=2.0).vertices,
                        np.array([[0.5, 1.0, 1.5]]))
    overridden = Renderer(front_camera())
    overridden.draw(soup, Colormap("gray", vmin=0.0, vmax=1.0), vmax=2.0)
    explicit = Renderer(front_camera())
    explicit.draw(soup, Colormap("gray", vmin=0.0, vmax=2.0))
    assert np.array_equal(overridden.image(), explicit.image())


def test_partially_offscreen_triangle_covers_screen():
    """A triangle far larger than the frustum is clipped to the image
    and covers every pixel."""
    renderer = Renderer(front_camera())
    soup = TriangleSoup(
        np.array([[[-20.0, 0.0, -20.0], [20.0, 0.0, -20.0],
                   [0.0, 0.0, 20.0]]]),
        np.zeros((1, 3)),
    )
    renderer.draw_flat(soup, (1.0, 1.0, 1.0))
    blank = Renderer(front_camera()).image()
    image = renderer.image()
    assert (image != blank).all(axis=2).all()


def test_depth_image():
    renderer = Renderer(front_camera())
    renderer.draw_flat(facing_triangle(), (1.0, 1.0, 1.0))
    depth = renderer.depth_image()
    assert depth.shape == (64, 64)
    assert depth.max() > 0


class TestColorbar:
    def test_colorbar_strip_drawn(self):
        renderer = Renderer(front_camera())
        renderer.draw_colorbar(Colormap("rainbow"))
        image = renderer.image()
        # Rightmost columns (inside the margin) differ from background.
        blank = Renderer(front_camera()).image()
        strip = image[:, 64 - 16:64 - 4]
        assert not np.array_equal(strip, blank[:, 64 - 16:64 - 4])

    def test_colorbar_orientation_high_on_top(self):
        renderer = Renderer(front_camera())
        renderer.draw_colorbar(Colormap("gray"))
        image = renderer.image()
        x = 64 - 4 - 6   # middle of the strip
        top = image[6, x].astype(int).sum()
        bottom = image[57, x].astype(int).sum()
        assert top > bottom   # gray: high value = white = top

    def test_colorbar_too_wide_rejected(self):
        renderer = Renderer(front_camera())
        with pytest.raises(ValueError):
            renderer.draw_colorbar(Colormap("gray"), width=100)


class TestColorbarHeightValidation:
    def test_margins_taller_than_frame_rejected(self):
        # Regression: margin*2 >= height used to produce an empty/
        # inverted gradient range and crash in the strip fill.
        camera = Camera(position=(0.0, -5.0, 0.0), look_at=(0, 0, 0),
                        up=(0, 0, 1), width=64, height=8)
        renderer = Renderer(camera)
        with pytest.raises(ValueError):
            renderer.draw_colorbar(Colormap("gray"), margin=4)

    def test_just_tall_enough_accepted(self):
        camera = Camera(position=(0.0, -5.0, 0.0), look_at=(0, 0, 0),
                        up=(0, 0, 1), width=64, height=9)
        renderer = Renderer(camera)
        renderer.draw_colorbar(Colormap("gray"), margin=4)


class TestTrianglesCulledStat:
    def test_counts_triangles_with_vertex_at_or_behind_near(self):
        renderer = Renderer(front_camera())
        assert renderer.triangles_culled == 0
        # One triangle fully behind the camera, one straddling the near
        # plane (one vertex behind): both are whole-triangle culled.
        behind = facing_triangle(y=-10.0)
        straddle = TriangleSoup(np.array([[
            [-1.0, -10.0, -1.0],   # behind the camera
            [1.0, 2.0, -1.0],
            [0.0, 2.0, 1.0],
        ]]), np.zeros((1, 3)))
        renderer.draw_flat(behind, (1.0, 1.0, 1.0))
        assert renderer.triangles_culled == 1
        renderer.draw_flat(straddle, (1.0, 1.0, 1.0))
        assert renderer.triangles_culled == 2

    def test_visible_triangles_not_counted(self):
        renderer = Renderer(front_camera())
        renderer.draw_flat(facing_triangle(), (1.0, 1.0, 1.0))
        assert renderer.triangles_culled == 0


class TestFragmentsEvaluatedStat:
    def test_sums_screen_clipped_bbox_areas(self):
        camera = front_camera()
        renderer = Renderer(camera)
        assert renderer.fragments_evaluated == 0
        soup = facing_triangle()
        xy, _ = camera.project(soup.vertices.reshape(-1, 3))
        lo, hi = xy.min(axis=0), xy.max(axis=0)
        # Per axis, the pixels of the floor/ceil bbox whose centre lies
        # in the triangle's coordinate range (no centre sits within the
        # renderer's ~1e-13 px margin of an extreme here).
        spans = [np.arange(np.floor(a), np.ceil(b) + 1) + 0.5
                 for a, b in zip(lo, hi)]
        area = int(np.prod([((c >= a) & (c <= b)).sum()
                            for c, a, b in zip(spans, lo, hi)]))
        assert area < np.prod([c.size for c in spans])
        renderer.draw_flat(soup, (1.0, 1.0, 1.0))
        assert renderer.fragments_evaluated == area
        # Accumulates per draw; covered pixels are a subset of it.
        renderer.draw(soup, Colormap("gray"))
        assert renderer.fragments_evaluated == 2 * area
        assert np.isfinite(renderer._zbuffer).sum() < area

    def test_offscreen_part_and_undrawable_triangles_not_counted(self):
        renderer = Renderer(front_camera())
        # Far larger than the frustum: clipped to the 64 x 64 frame.
        renderer.draw_flat(facing_triangle(size=20.0), (1.0, 1.0, 1.0))
        assert renderer.fragments_evaluated == 64 * 64
        # Near-plane culled and screen-degenerate triangles add nothing.
        renderer.draw_flat(facing_triangle(y=-10.0), (1.0, 1.0, 1.0))
        renderer.draw_flat(facing_triangle(size=0.0), (1.0, 1.0, 1.0))
        assert renderer.fragments_evaluated == 64 * 64
