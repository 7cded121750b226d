"""Scalar-to-RGB colormaps.

Rocketeer users "play with the color scale" interactively (section 4.1);
the pipeline maps field values through a named colormap. Colormaps are
piecewise-linear interpolations over control points in RGB space.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

# name -> list of (t, (r, g, b)) control points, t in [0, 1], rgb in [0, 1].
_CONTROL_POINTS: Dict[str, Sequence[Tuple[float, Tuple[float, float, float]]]] = {
    "rainbow": [
        (0.00, (0.0, 0.0, 1.0)),
        (0.25, (0.0, 1.0, 1.0)),
        (0.50, (0.0, 1.0, 0.0)),
        (0.75, (1.0, 1.0, 0.0)),
        (1.00, (1.0, 0.0, 0.0)),
    ],
    "heat": [
        (0.00, (0.0, 0.0, 0.0)),
        (0.40, (0.8, 0.0, 0.0)),
        (0.75, (1.0, 0.7, 0.0)),
        (1.00, (1.0, 1.0, 0.9)),
    ],
    "gray": [
        (0.00, (0.0, 0.0, 0.0)),
        (1.00, (1.0, 1.0, 1.0)),
    ],
    "coolwarm": [
        (0.00, (0.23, 0.30, 0.75)),
        (0.50, (0.87, 0.87, 0.87)),
        (1.00, (0.71, 0.02, 0.15)),
    ],
}


class Colormap:
    """A named colormap with an optional fixed value range.

    Without an explicit range, each :meth:`map` call normalizes to the
    data's own min/max (per-image autoscale, as interactive tools do).
    """

    def __init__(self, name: str = "rainbow",
                 vmin: Optional[float] = None,
                 vmax: Optional[float] = None):
        try:
            points = _CONTROL_POINTS[name]
        except KeyError:
            raise ValueError(
                f"unknown colormap {name!r}; choose from "
                f"{sorted(_CONTROL_POINTS)}"
            ) from None
        self.name = name
        self.vmin = vmin
        self.vmax = vmax
        self._ts = np.array([t for t, _rgb in points])
        self._rgb = np.array([rgb for _t, rgb in points])

    @staticmethod
    def names() -> Tuple[str, ...]:
        """The known colormap names, sorted."""
        return tuple(sorted(_CONTROL_POINTS))

    def map(self, values: np.ndarray) -> np.ndarray:
        """Map scalars to float RGB in [0, 1]; shape (..., 3)."""
        values = np.asarray(values, dtype=np.float64)
        vmin = self.vmin if self.vmin is not None else float(np.min(values))
        vmax = self.vmax if self.vmax is not None else float(np.max(values))
        if vmax <= vmin:
            t = np.zeros_like(values)
        else:
            t = np.clip((values - vmin) / (vmax - vmin), 0.0, 1.0)
        out = np.empty(values.shape + (3,))
        for channel in range(3):
            out[..., channel] = np.interp(
                t, self._ts, self._rgb[:, channel]
            )
        return out

    def map_uint8(self, values: np.ndarray) -> np.ndarray:
        """Map scalars to uint8 RGB; shape (..., 3)."""
        return (self.map(values) * 255.0 + 0.5).astype(np.uint8)
