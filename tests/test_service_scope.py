"""A session is a scope: ``ServiceSession`` is a GBO bound to a tenant.

Collected into the ``races`` sanitizer job (file name prefix), like the
other service suites.
"""

import asyncio

import numpy as np
import pytest

from repro.core.database import GBO
from repro.core.units import UnitHandle, UnitState
from repro.errors import DatabaseClosedError
from repro.service import GodivaService, ServiceSession
from repro.service.aio import AsyncGodivaClient
from repro.simulate.tenants import payload_read_fn

KB = 1024

#: Everything ServiceSession may define itself. The GBO verbs among
#: them are the ones a session genuinely changes (its own close, its
#: own closed flag, its units only); the private hooks are the open
#: check and the close-race translation; the rest is what a tenant
#: adds. Any other verb is inherited — a forwarder here is the second
#: dialect growing back.
SESSION_OWN = {
    "close", "closed", "list_units",
    "_check_open", "_closed_locked", "_blocking",
    "acquire", "carveout_bytes", "report",
}


@pytest.fixture
def service():
    svc = GodivaService(mem_mb=16, io_workers=2)
    yield svc
    svc.close()


def test_session_is_a_gbo(service):
    with service.create_session("a") as session:
        assert isinstance(session, GBO)


def test_session_defines_no_second_dialect():
    # Verbs only: under REPRO_ANALYSIS=1 the sanitizer also installs
    # guarded-field descriptors on the class.
    own = {name for name, attr in vars(ServiceSession).items()
           if isinstance(attr, (property, type(lambda: None)))
           and not (name.startswith("__") and name.endswith("__"))}
    assert own <= SESSION_OWN, sorted(own - SESSION_OWN)


def test_private_gbo_keeps_its_fast_bound_paths():
    with GBO(mem_mb=8) as gbo:
        assert gbo.wait_unit == gbo._io.wait_unit
        assert gbo.read_unit == gbo._io.read_unit
        assert gbo.get_field_buffer == gbo._records.get_field_buffer


def test_unit_handle_round_trips_through_local_names(service):
    seen = []

    def read_fn(owner, name):
        seen.append((owner, name))
        payload_read_fn(2 * KB)(owner, name)

    with service.create_session("a") as session:
        handle = session.add_unit("u", read_fn, priority=1.0)
        assert isinstance(handle, UnitHandle)
        assert handle.name == "u"
        assert handle == session.unit("u")
        with handle.wait():
            assert handle.is_resident
            assert handle.resident_bytes >= 2 * KB
            handle.priority = 3.0
            assert session.unit_priority("u") == 3.0
        assert seen == [(session, "u")]
        assert session.list_units() == [("u", UnitState.RESIDENT)]
        # Engine-side the unit carries the tenant scope.
        engine = service._gbo
        assert engine.unit_state("tenant::a::u") is UnitState.RESIDENT
        handle.delete()
        assert handle.state is UnitState.DELETED


def test_tenant_tokens_stay_distinct(service):
    with service.create_session("a") as a, \
            service.create_session("b") as b:
        identity = ("blob", "payload", 0)
        tok_a = a.derived.token(identity, lambda: [np.zeros(8)])
        tok_b = b.derived.token(identity, lambda: [np.ones(8)])
        assert tok_a != tok_b
        # Each scope memoizes its own identity: no provider runs again.
        assert a.derived.token(identity, pytest.fail) == tok_a
        assert b.derived.token(identity, pytest.fail) == tok_b


def test_derived_entries_named_for_their_tenant(service):
    with service.create_session("a") as a:
        a.derived.put(("k", 1), np.zeros(16))
        assert ("k", 1) in a.derived
        names = [name for name, _ in service._gbo.derived.report()]
        assert names == ["derived::tenant::a|k|1"]
    assert service._gbo.derived.report() == []


def test_closed_session_rejects_inherited_verbs(service):
    session = service.create_session("a")
    session.acquire("u", payload_read_fn(KB)).finish()
    session.close()
    for call in (lambda: session.wait_unit("u"),
                 lambda: session.read_unit("u"),
                 lambda: session.finish_unit("u"),
                 lambda: session.try_wait_unit("u")):
        with pytest.raises(DatabaseClosedError):
            call()


def test_async_close_propagates_unrelated_executor_errors(
        service, monkeypatch):
    client = AsyncGodivaClient(service.create_session("a"))

    def broken(_service):
        raise RuntimeError("executor failed")

    monkeypatch.setattr(GodivaService, "executor", property(broken))
    with pytest.raises(RuntimeError, match="executor failed"):
        asyncio.run(client.close())


def test_session_frames_match_a_private_gbo(small_dataset, tmp_path):
    from repro.viz.voyager import Voyager, VoyagerConfig

    def frames(out, **kwargs):
        config = VoyagerConfig(data_dir=small_dataset.directory,
                               test="simple", render=True, steps=2,
                               out_dir=str(tmp_path / out), **kwargs)
        result = Voyager(config).run()
        assert result.images
        return [open(path, "rb").read() for path in result.images]

    private = frames("private", mode="TG", mem_mb=64.0)
    with GodivaService(mem_mb=64, io_workers=2) as svc:
        with svc.create_session("v1", mem_mb=8) as s1, \
                svc.create_session("v2", mem_mb=8) as s2:
            assert frames("v1", session=s1) == private
            assert frames("v2", session=s2) == private
