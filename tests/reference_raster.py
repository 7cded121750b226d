"""The rasterizer's spec, kept as a test oracle.

:class:`ReferenceRenderer` is :class:`~repro.viz.render.Renderer` with
``_rasterize`` replaced by the original one-triangle-at-a-time loop,
moved here verbatim when the chunked tile compositor became the only
path in ``src/``. It is slow and obviously right: each triangle tests
its own bbox against the whole z-buffer with a strict ``<``, so the
first submission wins ties. Every schedule of the real renderer
(inline, thread pool, process pool) must reproduce its ``_frame``,
``_zbuffer``, ``image()`` and ``triangles_culled`` byte for byte.
"""

import numpy as np

from repro.viz.render import Renderer


class ReferenceRenderer(Renderer):
    def _rasterize(self, vertices: np.ndarray,
                   colors: np.ndarray) -> None:
        """Scanline-free barycentric rasterization, one triangle at a
        time with vectorized pixel coverage."""
        height, width = self._zbuffer.shape
        flat = vertices.reshape(-1, 3)
        xy, depth = self.camera.project(flat)
        xy = xy.reshape(-1, 3, 2)
        depth = depth.reshape(-1, 3)

        # Cull triangles behind the near plane (whole triangles — no
        # clipping; see triangles_culled).
        visible = np.all(depth > self.camera.near, axis=1)
        self.triangles_culled += int(visible.size - int(visible.sum()))
        for tri_index in np.nonzero(visible)[0]:
            pts = xy[tri_index]                            # (3, 2)
            zs = depth[tri_index]                          # (3,)
            cols = colors[tri_index]                       # (3, 3)
            x_min = max(int(np.floor(pts[:, 0].min())), 0)
            x_max = min(int(np.ceil(pts[:, 0].max())), width - 1)
            y_min = max(int(np.floor(pts[:, 1].min())), 0)
            y_max = min(int(np.ceil(pts[:, 1].max())), height - 1)
            if x_min > x_max or y_min > y_max:
                continue
            (x0, y0), (x1, y1), (x2, y2) = pts
            denom = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
            if abs(denom) < 1e-12:
                continue  # degenerate in screen space
            gx, gy = np.meshgrid(
                np.arange(x_min, x_max + 1) + 0.5,
                np.arange(y_min, y_max + 1) + 0.5,
            )
            w0 = ((y1 - y2) * (gx - x2) + (x2 - x1) * (gy - y2)) / denom
            w1 = ((y2 - y0) * (gx - x2) + (x0 - x2) * (gy - y2)) / denom
            w2 = 1.0 - w0 - w1
            inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
            if not inside.any():
                continue
            # Perspective-correct interpolation of depth and color.
            inv_z = w0 / zs[0] + w1 / zs[1] + w2 / zs[2]
            pixel_z = 1.0 / np.where(inv_z > 0, inv_z, np.inf)
            zslice = self._zbuffer[y_min:y_max + 1, x_min:x_max + 1]
            closer = inside & (pixel_z < zslice)
            if not closer.any():
                continue
            r = (
                (w0 / zs[0])[..., None] * cols[0]
                + (w1 / zs[1])[..., None] * cols[1]
                + (w2 / zs[2])[..., None] * cols[2]
            ) * pixel_z[..., None]
            zslice[closer] = pixel_z[closer]
            fslice = self._frame[y_min:y_max + 1, x_min:x_max + 1]
            fslice[closer] = r[closer]
