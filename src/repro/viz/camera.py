"""Look-at camera and the Voyager "camera position file".

Voyager "takes as arguments a camera position file, a graphics operations
file, and a list of HDF files to process" (section 4.1); the camera file
is produced during an interactive Rocketeer session. Ours is a small JSON
document.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass
class Camera:
    """A perspective look-at camera.

    ``position``/``look_at``/``up`` are world-space; ``fov_deg`` is the
    vertical field of view; ``width``/``height`` the image resolution.
    """

    position: Tuple[float, float, float] = (5.0, 5.0, 5.0)
    look_at: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    up: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    fov_deg: float = 40.0
    width: int = 320
    height: int = 240
    near: float = 0.01

    def basis(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Right-handed camera basis (right, up, forward)."""
        eye = np.asarray(self.position, dtype=np.float64)
        target = np.asarray(self.look_at, dtype=np.float64)
        forward = target - eye
        norm = np.linalg.norm(forward)
        if norm == 0:
            raise ValueError("camera position equals look_at")
        forward /= norm
        up_hint = np.asarray(self.up, dtype=np.float64)
        right = np.cross(forward, up_hint)
        r_norm = np.linalg.norm(right)
        if r_norm < 1e-12:
            # up parallel to view direction; pick any perpendicular.
            up_hint = np.array([1.0, 0.0, 0.0])
            right = np.cross(forward, up_hint)
            r_norm = np.linalg.norm(right)
        right /= r_norm
        true_up = np.cross(right, forward)
        return right, true_up, forward

    def project(self, points: np.ndarray,
                out: Optional[Tuple[np.ndarray, np.ndarray]] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Project world points to pixel coordinates.

        Returns ``(xy, depth)``: xy is (n, 2) pixel coordinates (x right,
        y down), depth is the view-space distance along the camera's
        forward axis (points with depth <= near should be culled by the
        caller). ``out``, an ``(xy, depth)`` pair of that shape, receives
        them instead of new arrays.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        eye = np.asarray(self.position, dtype=np.float64)
        right, true_up, forward = self.basis()
        rel = points - eye
        x_cam = rel @ right
        y_cam = rel @ true_up
        depth = rel @ forward
        del rel
        f = (self.height / 2.0) / math.tan(math.radians(self.fov_deg) / 2)
        safe_depth = np.where(depth > self.near, depth, np.inf)
        # width/2 + f*x/d and height/2 - f*y/d, in place: the same
        # operations on the same operands (x*f is f*x, bit for bit), so
        # the same floats, without a temporary per step.
        x_cam *= f
        x_cam /= safe_depth
        x_cam += self.width / 2.0
        y_cam *= f
        y_cam /= safe_depth
        np.subtract(self.height / 2.0, y_cam, out=y_cam)
        if out is None:
            return np.column_stack([x_cam, y_cam]), depth
        xy, out_depth = out
        xy[:, 0] = x_cam
        xy[:, 1] = y_cam
        out_depth[...] = depth
        return xy, out_depth

    # ------------------------------------------------------------------
    # Camera position file
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the camera to a JSON position file (see :meth:`load`)."""
        with open(os.fspath(path), "w") as f:
            json.dump(
                {
                    "position": list(self.position),
                    "look_at": list(self.look_at),
                    "up": list(self.up),
                    "fov_deg": self.fov_deg,
                    "width": self.width,
                    "height": self.height,
                    "near": self.near,
                },
                f,
                indent=1,
            )

    @classmethod
    def load(cls, path: str) -> "Camera":
        """Read a camera position file written by :meth:`save`."""
        with open(os.fspath(path)) as f:
            data = json.load(f)
        return cls(
            position=tuple(data["position"]),
            look_at=tuple(data["look_at"]),
            up=tuple(data["up"]),
            fov_deg=float(data["fov_deg"]),
            width=int(data["width"]),
            height=int(data["height"]),
            # Files written before the near plane was persisted lack the
            # key; fall back to the dataclass default.
            near=float(data.get("near", 0.01)),
        )

    @classmethod
    def fit_bounds(cls, lo: Sequence[float], hi: Sequence[float],
                   width: int = 320, height: int = 240,
                   fov_deg: float = 40.0) -> "Camera":
        """A camera that comfortably frames an axis-aligned bounding box.

        ``fov_deg`` sets both the framing distance *and* the returned
        camera's field of view, so the two cannot drift apart.
        """
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        center = (lo + hi) / 2
        radius = float(np.linalg.norm(hi - lo)) / 2 or 1.0
        # Far enough that the bounding sphere fits the vertical FOV
        # with some margin (the horizontal FOV is wider still).
        fov = math.radians(fov_deg)
        distance = radius * (1.15 / math.tan(fov / 2) + 1.0)
        direction = np.array([1.0, 0.8, 0.6])
        direction /= np.linalg.norm(direction)
        return cls(
            position=tuple(center + distance * direction),
            look_at=tuple(center),
            up=(0.0, 0.0, 1.0),
            fov_deg=fov_deg,
            width=width,
            height=height,
        )
