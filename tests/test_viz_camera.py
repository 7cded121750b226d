"""Camera projection and camera-position files."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.viz.camera import Camera


def test_basis_orthonormal():
    camera = Camera(position=(5, 2, 3), look_at=(0, 0, 0))
    right, up, forward = camera.basis()
    for vec in (right, up, forward):
        assert np.linalg.norm(vec) == pytest.approx(1.0)
    assert abs(right @ up) < 1e-12
    assert abs(right @ forward) < 1e-12
    assert abs(up @ forward) < 1e-12


def test_basis_view_convention():
    """OpenGL-style view basis: (right, up, -forward) is right-handed,
    i.e. right x up points back toward the camera."""
    camera = Camera(position=(5, 0, 0), look_at=(0, 0, 0))
    right, up, forward = camera.basis()
    assert np.allclose(np.cross(right, up), -forward)


def test_basis_up_stays_up():
    camera = Camera(position=(5, 0, 0), look_at=(0, 0, 0),
                    up=(0, 0, 1))
    _right, up, _forward = camera.basis()
    assert up[2] > 0.99


def test_degenerate_position_rejected():
    with pytest.raises(ValueError):
        Camera(position=(1, 1, 1), look_at=(1, 1, 1)).basis()


def test_up_parallel_to_view_recovers():
    camera = Camera(position=(0, 0, 5), look_at=(0, 0, 0),
                    up=(0, 0, 1))
    right, up, forward = camera.basis()
    assert np.linalg.norm(right) == pytest.approx(1.0)


def test_lookat_point_projects_to_center():
    camera = Camera(position=(0, -5, 0), look_at=(0, 0, 0),
                    width=320, height=240)
    xy, depth = camera.project(np.array([[0.0, 0.0, 0.0]]))
    assert xy[0, 0] == pytest.approx(160.0)
    assert xy[0, 1] == pytest.approx(120.0)
    assert depth[0] == pytest.approx(5.0)


def test_point_right_of_view_projects_right():
    camera = Camera(position=(0, -5, 0), look_at=(0, 0, 0),
                    up=(0, 0, 1))
    xy, _ = camera.project(np.array([[1.0, 0.0, 0.0]]))
    assert xy[0, 0] > camera.width / 2


def test_point_above_projects_up():
    camera = Camera(position=(0, -5, 0), look_at=(0, 0, 0),
                    up=(0, 0, 1))
    xy, _ = camera.project(np.array([[0.0, 0.0, 1.0]]))
    assert xy[0, 1] < camera.height / 2   # y is down in image space


def test_nearer_objects_appear_larger():
    camera = Camera(position=(0, -10, 0), look_at=(0, 0, 0),
                    up=(0, 0, 1))
    near, _ = camera.project(np.array([[1.0, -5.0, 0.0]]))
    far, _ = camera.project(np.array([[1.0, 5.0, 0.0]]))
    near_offset = near[0, 0] - camera.width / 2
    far_offset = far[0, 0] - camera.width / 2
    assert near_offset > far_offset > 0


def test_behind_camera_flagged_by_depth():
    camera = Camera(position=(0, -5, 0), look_at=(0, 0, 0))
    _, depth = camera.project(np.array([[0.0, -10.0, 0.0]]))
    assert depth[0] < 0


def test_save_load_roundtrip(tmp_path):
    camera = Camera(position=(1, 2, 3), look_at=(4, 5, 6),
                    up=(0, 1, 0), fov_deg=55.0, width=640, height=480)
    path = str(tmp_path / "camera.json")
    camera.save(path)
    loaded = Camera.load(path)
    assert loaded.position == (1, 2, 3)
    assert loaded.look_at == (4, 5, 6)
    assert loaded.fov_deg == 55.0
    assert loaded.width == 640


def test_save_load_preserves_near_plane(tmp_path):
    # Regression: save() used to omit `near`, so a custom near plane
    # silently reverted to the default on reload.
    camera = Camera(near=0.25)
    path = str(tmp_path / "camera.json")
    camera.save(path)
    assert Camera.load(path).near == 0.25


def test_load_legacy_file_without_near_key(tmp_path):
    # Camera files written before `near` was persisted must still load,
    # falling back to the dataclass default.
    import json
    camera = Camera()
    path = str(tmp_path / "camera.json")
    camera.save(path)
    with open(path) as f:
        data = json.load(f)
    del data["near"]
    with open(path, "w") as f:
        json.dump(data, f)
    assert Camera.load(path).near == 0.01


def test_fit_bounds_sees_the_box():
    camera = Camera.fit_bounds((-1, -1, 0), (1, 1, 10))
    corners = np.array([
        [x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (0, 10)
    ], dtype=float)
    xy, depth = camera.project(corners)
    assert (depth > 0).all()
    assert (xy[:, 0] >= 0).all() and (xy[:, 0] <= camera.width).all()
    assert (xy[:, 1] >= 0).all() and (xy[:, 1] <= camera.height).all()


def test_fit_bounds_fov_param_sets_camera_fov():
    # Regression: fit_bounds hardcoded a 40-degree FOV in the framing
    # math while the returned Camera used the dataclass default — the
    # explicit parameter keeps distance and stored FOV in lockstep.
    camera = Camera.fit_bounds((-1, -1, 0), (1, 1, 10), fov_deg=60.0)
    assert camera.fov_deg == 60.0
    corners = np.array([
        [x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (0, 10)
    ], dtype=float)
    xy, depth = camera.project(corners)
    assert (depth > 0).all()
    assert (xy[:, 0] >= 0).all() and (xy[:, 0] <= camera.width).all()
    assert (xy[:, 1] >= 0).all() and (xy[:, 1] <= camera.height).all()


def test_fit_bounds_narrow_fov_backs_off():
    near_cam = Camera.fit_bounds((-1, -1, -1), (1, 1, 1), fov_deg=60.0)
    far_cam = Camera.fit_bounds((-1, -1, -1), (1, 1, 1), fov_deg=20.0)
    d_near = np.linalg.norm(np.asarray(near_cam.position))
    d_far = np.linalg.norm(np.asarray(far_cam.position))
    assert d_far > d_near


def _reference_project(camera, points):
    """The projection as first written — ``w/2 + f*x/d``,
    ``h/2 - f*y/d``, column-stacked — kept verbatim so that a rewrite
    of :meth:`Camera.project` is checked against it, not against
    itself (the rasterizer oracle projects through ``Camera.project``)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    eye = np.asarray(camera.position, dtype=np.float64)
    right, true_up, forward = camera.basis()
    rel = points - eye
    x_cam = rel @ right
    y_cam = rel @ true_up
    depth = rel @ forward
    f = (camera.height / 2.0) / math.tan(math.radians(camera.fov_deg) / 2)
    safe_depth = np.where(depth > camera.near, depth, np.inf)
    px = camera.width / 2.0 + f * x_cam / safe_depth
    py = camera.height / 2.0 - f * y_cam / safe_depth
    return np.column_stack([px, py]), depth


_COORD = st.floats(-50.0, 50.0)


@settings(max_examples=200, deadline=None)
@given(position=st.tuples(_COORD, _COORD, _COORD),
       look_at=st.tuples(_COORD, _COORD, _COORD),
       fov_deg=st.floats(5.0, 120.0),
       width=st.integers(1, 640), height=st.integers(1, 480),
       seed=st.integers(0, 2**32 - 1))
def test_project_is_the_reference_expression_byte_for_byte(
        position, look_at, fov_deg, width, height, seed):
    """Random cameras and points, some behind the near plane: ``project``
    and ``project(out=)`` into rows of larger buffers both give the
    reference expression's floats exactly."""
    assume(np.linalg.norm(np.subtract(look_at, position)) > 1e-6)
    camera = Camera(position=position, look_at=look_at, fov_deg=fov_deg,
                    width=width, height=height)
    rng = np.random.default_rng(seed)
    points = rng.uniform(-60.0, 60.0, size=(int(rng.integers(1, 40)), 3))
    want_xy, want_depth = _reference_project(camera, points)
    xy, depth = camera.project(points)
    assert xy.tobytes() == want_xy.tobytes()
    assert depth.tobytes() == want_depth.tobytes()
    n = len(points)
    out_xy, out_depth = np.full((n + 5, 2), -1.0), np.full(n + 5, -1.0)
    got = camera.project(points, out=(out_xy[2:2 + n], out_depth[2:2 + n]))
    assert got[0].tobytes() == want_xy.tobytes()
    assert got[1].tobytes() == want_depth.tobytes()
    assert (out_xy[:2] == -1.0).all() and (out_xy[2 + n:] == -1.0).all()
    assert (out_depth[:2] == -1.0).all() and (out_depth[2 + n:] == -1.0).all()
