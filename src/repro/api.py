"""repro.api — the blessed client surface of the GODIVA reproduction.

Import the tiers from here rather than from engine modules. The
service and fleet names come from here (or from their packages) only:
:mod:`repro` itself exports the paper's single-process GBO API and
nothing that would load another tier. ``repro-lint`` rule REP107
enforces that the engine-layer modules (``record_engine``,
``memory_manager``, ``io_scheduler``) are only imported inside
:mod:`repro.core`.

Two ways to hold a database:

* **Single-process** — :class:`~repro.core.database.GBO`: the paper's
  one-database-per-process object, unchanged. Conceptually this is the
  degenerate service: one tenant whose carve-out is the whole budget,
  no admission control, no name scoping.
* **Multi-tenant** — :class:`~repro.service.service.GodivaService`
  hosts one shared engine; :meth:`~GodivaService.create_session` admits
  tenants and returns :class:`~repro.service.service.ServiceSession`
  handles (scoped names, carve-out floors, fair eviction);
  :class:`~repro.service.aio.AsyncGodivaClient` bridges asyncio
  clients onto the same engine.

Every tier that hosts an engine takes the same budget spellings
(``mem=`` / ``mem_mb=``) and the same engine keywords, declared once as
the fields of :class:`~repro.core.config.EngineConfig`.

All three database-shaped objects are context managers, mirroring
:class:`~repro.core.units.UnitHandle`'s ``with`` discipline::

    with GodivaService(mem_mb=256) as service:
        with service.create_session("viz", mem_mb=64) as session:
            with session.add_unit("snap:0001", read_fn).wait() as unit:
                ...  # query buffers; finished on exit

:class:`~repro.viz.voyager.VoyagerConfig` accepts ``session=`` to run
the batch visualization tool against a shared engine.

* **Sharded** — :class:`~repro.parallel.sharded.ShardedGBO` places
  processing units across shard-host processes by rendezvous hashing
  and serves frames zero-copy out of each shard's
  :class:`~repro.core.shared_arena.SharedMemoryArena`;
  :func:`~repro.parallel.sharded.render_sharded` is the one-call batch
  entry point. The :class:`~repro.core.arena.Arena` seam itself
  (``HeapArena`` default, ``SharedMemoryArena``) is part of this
  blessed surface — ``GBO(arena=...)`` accepts either.
"""

from repro.core.arena import Arena, HeapArena
from repro.core.shared_arena import SharedMemoryArena
from repro.core.config import EngineConfig
from repro.core.database import GBO
from repro.core.units import UnitHandle
from repro.parallel.sharded import ShardedGBO, render_sharded
from repro.service.aio import AsyncGodivaClient
from repro.service.service import GodivaService, ServiceSession
from repro.viz.voyager import VoyagerConfig

__all__ = [
    "GBO",
    "EngineConfig",
    "UnitHandle",
    "GodivaService",
    "ServiceSession",
    "AsyncGodivaClient",
    "VoyagerConfig",
    "Arena",
    "HeapArena",
    "SharedMemoryArena",
    "ShardedGBO",
    "render_sharded",
]
