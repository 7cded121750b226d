"""P2 — parallel scaling extension: worker sweep, shared vs private disks.

Extends the paper's 4-process experiment (section 4.2) into a scaling
study on the simulated Turing cluster: 1/2/4/8 Voyager workers over a
32-snapshot series in G and TG modes, with each node owning its disk
(the paper's regime) and with all nodes contending on one shared device
(the cluster-filesystem regime). Expected shapes: near-linear speedup on
private disks; the shared disk caps the makespan at its total service
time; GODIVA's per-worker TG benefit persists at every width.
"""

import pytest

from repro.bench.figure3 import trace_all_workloads
from repro.bench.report import Table
from repro.simulate import simulate_cluster_voyager
from repro.simulate.machine import TURING


@pytest.fixture(scope="module")
def workload(paper_scale_snapshot):
    return trace_all_workloads(
        paper_scale_snapshot.directory, n_snapshots=32
    )["medium"]


def test_parallel_scaling(benchmark, workload, results_dir):
    widths = (1, 2, 4, 8)

    def sweep():
        rows = {}
        for shared in (False, True):
            for mode in ("G", "TG"):
                for n_workers in widths:
                    rows[(shared, mode, n_workers)] = \
                        simulate_cluster_voyager(
                            TURING, workload, mode, n_workers,
                            shared_disk=shared,
                        )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = Table(
        title="P2 — parallel Voyager scaling (simulated Turing, "
              "medium test, 32 snapshots)",
        headers=("disk", "mode", "workers", "makespan (s)",
                 "speedup", "sum visible I/O (s)"),
    )
    for shared in (False, True):
        for mode in ("G", "TG"):
            serial = rows[(shared, mode, 1)]
            for n_workers in widths:
                run = rows[(shared, mode, n_workers)]
                table.add(
                    "shared" if shared else "private",
                    mode, n_workers, run.makespan_s,
                    f"{run.speedup_vs(serial):.2f}x",
                    run.total_visible_io_s,
                )
    table.emit(results_dir)

    # Private disks: near-linear speedup at 4 workers (paper regime).
    for mode in ("G", "TG"):
        serial = rows[(False, mode, 1)]
        quad = rows[(False, mode, 4)]
        assert quad.speedup_vs(serial) > 3.2
    # TG beats G at every width and disk layout.
    for shared in (False, True):
        for n_workers in widths:
            assert rows[(shared, "TG", n_workers)].makespan_s < \
                rows[(shared, "G", n_workers)].makespan_s
    # The shared disk throttles wide TG runs below private scaling.
    assert rows[(True, "TG", 8)].makespan_s > \
        rows[(False, "TG", 8)].makespan_s
