"""Shared fixtures for the test suite, plus the races plugin.

The ``races`` marker turns the existing ``test_database_*``,
``test_service_*`` and ``test_core_compute*`` suites, plus the
model-checked ``TestGboUnitMachine`` (marked at class level), into
lockset-race tests: with ``REPRO_ANALYSIS=1`` (see
:mod:`repro.analysis`), every GBO built by a test uses tracked locks,
the ``@guarded_by`` descriptors are installed for the duration of each
test, and the Eraser tracker plus the lock-order graph are checked
after it. With analysis disabled (the default) the plugin is inert and
the suites run exactly as before. CI runs
``REPRO_ANALYSIS=1 pytest -m races`` as a separate job.

With ``CI`` set, hypothesis loads the ``ci`` profile: examples derive
from each test's own name instead of a random seed, so a property or
fuzz test that goes red in CI goes red the same way on a rerun.
"""

import os

import pytest
from hypothesis import settings

from repro.core.database import GBO
from repro.core.schema import fluid_sample_schema
from repro.gen.snapshot import SnapshotSpec, generate_dataset
from repro.gen.titan import TitanConfig

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "races: database suites doubling as concurrency-sanitizer "
        "tests (meaningful under REPRO_ANALYSIS=1)",
    )


def pytest_collection_modifyitems(items):
    for item in items:
        filename = item.nodeid.split("::", 1)[0].rsplit("/", 1)[-1]
        if filename.startswith(("test_database_", "test_service_",
                                "test_core_compute")):
            item.add_marker(pytest.mark.races)


@pytest.fixture(autouse=True)
def _concurrency_sanitizer(request):
    """Install guarded-field tracking and settle sanitizer verdicts.

    No-op unless analysis is enabled, so the default test run pays one
    boolean check per test and nothing else.
    """
    from repro.analysis import primitives

    if not primitives.analysis_enabled():
        yield
        return
    from repro.analysis import races as analysis_races
    from repro.analysis.lockorder import GLOBAL_GRAPH

    installed = analysis_races.install()
    analysis_races.TRACKER.reset()
    GLOBAL_GRAPH.reset()
    try:
        yield
        if request.node.get_closest_marker("races") is not None:
            analysis_races.TRACKER.check()
            GLOBAL_GRAPH.check()
    finally:
        analysis_races.uninstall(*installed)
        analysis_races.TRACKER.reset()
        GLOBAL_GRAPH.reset()


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """A small generated snapshot dataset shared across the session.

    12 blocks, 4 snapshots, 2 files per snapshot — enough structure for
    every io/viz integration test while staying fast.
    """
    directory = tmp_path_factory.mktemp("dataset")
    spec = SnapshotSpec(
        config=TitanConfig.scaled(0.15),
        n_steps=4,
        files_per_snapshot=2,
    )
    return generate_dataset(spec, str(directory))


@pytest.fixture
def gbo():
    """A multi-thread GBO with a roomy budget; closed after the test."""
    database = GBO(mem_mb=64)
    yield database
    database.close()


@pytest.fixture
def gbo_single():
    """A single-thread (paper 'G') GBO; closed after the test."""
    database = GBO(mem_mb=64, background_io=False)
    yield database
    database.close()


@pytest.fixture
def fluid_gbo(gbo):
    """A GBO with the paper's Table-1 'fluid' record type committed."""
    fluid_sample_schema().ensure(gbo)
    return gbo
