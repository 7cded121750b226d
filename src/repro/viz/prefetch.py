"""Predictive prefetching for interactive exploration.

The paper positions GODIVA as "a building block in implementing
previously proposed domain-specific prefetching/caching techniques"
(section 5, citing Doshi et al.'s prefetching for visual exploration).
This module is such a technique built *on top of* the GODIVA interfaces:
an access-pattern predictor watches the user's recent time-step requests
and speculatively ``add_unit``s the likely next steps, so the background
I/O thread warms the cache before the user asks.

Patterns recognized (after Doshi et al.'s direction heuristics):

* **strides** — the last requests advance by a constant step (forward
  playback, every-other-step skimming, backward scrubbing): predict the
  next ``depth`` steps of the same stride;
* **ping-pong** — the section-1 motif of flipping between two steps
  (a, b, a, ...): predict the alternate step plus the forward neighbour
  the user will move on to.

Everything stays within public GODIVA semantics: predictions are pure
``add_unit`` hints; wrong guesses are at worst wasted prefetch that LRU
eviction reclaims.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List


class AccessPredictor:
    """Predicts the next time-step requests from recent history."""

    def __init__(self, history: int = 6, depth: int = 2):
        if history < 2:
            raise ValueError("need at least two steps of history")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._history: Deque[int] = deque(maxlen=history)

    def record(self, step: int) -> None:
        """Tell the predictor what the user just requested."""
        self._history.append(step)

    @property
    def history(self) -> List[int]:
        """The recorded requests, oldest first (a copy)."""
        return list(self._history)

    def predict(self, n_steps: int) -> List[int]:
        """Likely next requests (most likely first), within
        ``[0, n_steps)``, excluding the current step."""
        if len(self._history) < 2:
            return []
        recent = list(self._history)
        current = recent[-1]

        predictions: List[int] = []

        def add(step: int) -> None:
            """Append a new in-range prediction, once."""
            if 0 <= step < n_steps and step != current and \
                    step not in predictions:
                predictions.append(step)

        # Ping-pong: ... a, b, a  -> the user flips back to b next.
        if len(recent) >= 3 and recent[-1] == recent[-3] and \
                recent[-2] != recent[-1]:
            add(recent[-2])
            # After comparing, users usually move on forward.
            add(max(recent[-1], recent[-2]) + 1)
            return predictions[: self.depth]

        # Constant stride (includes +1 playback and -1 scrubbing).
        stride = recent[-1] - recent[-2]
        if stride != 0 and (
            len(recent) < 3 or recent[-2] - recent[-3] == stride
        ):
            for k in range(1, self.depth + 1):
                add(current + k * stride)
            return predictions[: self.depth]

        # No confident pattern: hint the immediate neighbours.
        add(current + 1)
        add(current - 1)
        return predictions[: self.depth]
