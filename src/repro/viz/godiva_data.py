"""GodivaSnapshotData — the pipeline's data access through a GBO.

The G and TG builds of Voyager, the interactive Apollo session, the
Houston servers and the shard hosts all hand the pipeline this one
:class:`~repro.viz.pipeline.SnapshotData`: every array is a query of
the GBO's buffers, none is read from a file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.database import GBO
from repro.gen.snapshot import block_key
from repro.viz.pipeline import SnapshotData, field_components


class GodivaSnapshotData(SnapshotData):
    """GODIVA-backed data access: query buffer locations, zero reads.

    Every request resolves through ``get_field_buffer``, once per
    (block, field) per snapshot object; mesh arrays read
    once per snapshot by the unit's read callback are reused across all
    ops — the redundant-read elimination the paper credits for the O->G
    I/O volume drop.

    The returned arrays are zero-copy ``writeable=False`` views of the
    GBO's live buffers: no intermediate copies, and read-only because
    the derived-data cache keys memoized results by buffer *content* —
    an in-place mutation through a view would silently invalidate them
    (and corrupt the shared unit buffer for every other consumer), so
    it raises instead. When the GBO carries a
    :class:`~repro.core.derived.DerivedCache`, content tokens are
    served through it, enabling frame/op/kernel memoization in the
    pipeline.
    """

    def __init__(self, gbo: GBO, tsid: str, block_ids: Sequence[str]):
        self._gbo = gbo
        self._tsid = tsid
        self._tsid_key = tsid.encode("ascii")
        self._block_order = tuple(block_ids)
        self._derived = gbo.derived
        #: Each block's key values, built on its first query (a view that
        #: hits the frame cache queries nothing).
        self._block_keys: Dict[str, Tuple[bytes, bytes]] = {}
        #: (block, field) -> the read-only view of its one query.
        self._views: Dict[Tuple[str, str], np.ndarray] = {}

    def parallel_extract_safe(self) -> bool:
        """True: buffer queries go through the engine lock and the
        derived cache tolerates racing computes, so per-op extraction
        may run on compute-pool threads."""
        return True

    def block_ids(self) -> List[str]:
        """The snapshot's mesh blocks, in manifest order."""
        return list(self._block_order)

    def _keys(self, block_id: str) -> Tuple[bytes, bytes]:
        keys = self._block_keys.get(block_id)
        if keys is None:
            keys = self._block_keys[block_id] = (
                block_key(block_id).encode("ascii"), self._tsid_key)
        return keys

    def _buffer(self, block_id: str, name: str) -> np.ndarray:
        """The block's ``name`` buffer as a read-only view: one query per
        (block, field) per snapshot object, shared by the token and the
        accessors (the object lives while its unit is pinned)."""
        buf = self._views.get((block_id, name))
        if buf is None:
            buf = self._gbo.get_field_buffer("solid", name,
                                             self._keys(block_id))
            # get_field_buffer makes a fresh view object per call, so the
            # flag flip affects this view only, not the engine's buffer.
            buf.flags.writeable = False
            self._views[block_id, name] = buf
        return buf

    def derived_cache(self) -> Optional[object]:
        """The GBO's derived-data memo cache (None when disabled)."""
        return self._derived

    def snapshot_token(self, name: str) -> Optional[str]:
        """One content hash of ``name`` over every block, in
        ``block_ids()`` order, memoized per (field, block order,
        time-step) identity: a first visit hashes the new bytes once, a
        revisit costs one lookup."""
        if self._derived is None:
            return None
        return self._derived.token(
            ("solid", name, self._block_order, self._tsid),
            lambda: [self._buffer(block_id, name)
                     for block_id in self._block_order],
        )

    def coords(self, block_id: str) -> np.ndarray:
        """The block's node coordinates, ``(n, 3)``."""
        return self._buffer(block_id, "coords").reshape(-1, 3)

    def connectivity(self, block_id: str) -> np.ndarray:
        """The block's tetrahedra, ``(m, 4)`` node indices."""
        return self._buffer(block_id, "conn").reshape(-1, 4)

    def field(self, block_id: str, name: str) -> np.ndarray:
        """A block's field, ``(n, 3)`` for a vector quantity."""
        buf = self._buffer(block_id, name)
        if field_components(name) == 3:
            return buf.reshape(-1, 3)
        return buf
