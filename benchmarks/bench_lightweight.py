"""L1 — "lightweight" as a number: the GBO's overhead over its floor.

The paper's claim is that a buffer database costs a visualization tool
almost nothing (§3, §4.2). This bench makes it one number. It runs the
``unit_churn`` visits of the end-to-end benchmark twice, on the same
files in the same order:

* **real** — through the GBO as ``unit_churn`` builds it (one
  ``GBO(mem_mb=24)`` with its background I/O thread) and the real
  ``SdfReader.read_into``;
* **floor** — through :class:`FloorGBO`, a dict of ``bytearray``\\ s
  read by the visit loop itself, whose queries are a dict lookup plus
  ``np.frombuffer``, with ``SdfReader.read_into`` cut to a raw ``seek``
  and ``readinto``. The SDF open and ``info()`` are kept: every tool
  must find its bytes.

Both use the benchmark's own ``set_up`` (the dataset and the visit
order) and ``make_read_fn`` (the read callback), imported unchanged
from ``benchmarks/e2e/workloads.py``. The two alternate in one process
and the bench reports ``overhead_frac = (real - floor) / real`` on the
median CPU seconds, with both sides' quartiles. When the overhead sits
inside the floor's own spread there is nothing left to cut on the
per-buffer path.

Run the measurement (prints one JSON object, on one line)::

    PYTHONPATH=src python benchmarks/bench_lightweight.py --pairs 6

or once, quick-sized, as a smoke test::

    PYTHONPATH=src python -m pytest benchmarks/bench_lightweight.py

**Numbers** (2-core host, default size, 36 visits):

* This bench, eight pairs, seed 3: real 0.545 s CPU (q1-q3
  0.527-0.564) against floor 0.350 s (0.338-0.361), so
  ``overhead_frac`` is 0.36. The same file on the code before the
  directory-parse memo read 0.741 against 0.464 s, 0.37.
* After records became rows (ADR-020), two runs a side, same
  command: real 0.348 / 0.369 s against floor 0.258 / 0.272 s,
  ``overhead_frac`` 0.26 / 0.26; the code before it read real
  0.398 / 0.405 against 0.257 / 0.267, 0.35 / 0.34.
* Six alternating fresh-process runs of each side, with the replica
  written out by hand: floor 0.274 s against real 0.477 s CPU, 0.43.
* Each lever stripped from the real side alone, before ADR-020: the
  reader layer -12 %, the record-lock claim -5 %, the query's touch
  -6 % (a query of a pinned unit no longer makes it),
  ``IoStats.record_read`` -4 %, the budget charge -3 %, GC -2 %; all
  of them together -37 %.

This bench is not part of ``BENCHMARK.json``; the per-buffer path's
contract metric stays ``unit_churn`` ``cpu_s``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from unittest import mock

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))

from tracing import NullTracer  # noqa: E402
from workloads import (  # noqa: E402
    CHURN_LOOKAHEAD,
    SIZES,
    make_read_fn,
    set_up,
)

from repro.core.database import GBO  # noqa: E402
from repro.gen import load_manifest  # noqa: E402
from repro.gen.snapshot import block_key  # noqa: E402
from repro.io.disk import IoStats  # noqa: E402
from repro.io.readers import (  # noqa: E402
    ALL_SOLID_FIELDS,
    snapshot_unit_name,
    solid_schema,
)
from repro.io.sdf import SdfReader  # noqa: E402

#: The one non-double field of the solid record type.
_DTYPES = {"conn": np.dtype(np.int32)}
_DOUBLE = np.dtype(np.float64)


class _FloorBuffer:
    __slots__ = ("data", "dtype")

    def __init__(self, nbytes: int, dtype: np.dtype) -> None:
        self.data = bytearray(nbytes)
        self.dtype = dtype

    def write(self, data: bytes) -> None:
        self.data[:] = data

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.data, self.dtype)


class _FloorRecord:
    __slots__ = ("buffers",)

    def __init__(self) -> None:
        self.buffers = {}

    def field(self, name: str) -> _FloorBuffer:
        buffer = self.buffers[name] = _FloorBuffer(0, _DOUBLE)
        return buffer


class FloorGBO:
    """The GBO calls ``unit_churn`` makes, at their floor: a unit is
    read when it is waited for, its records are dicts of
    ``bytearray``\\ s filed under their key bytes, and a query is a
    dict lookup plus ``np.frombuffer``."""

    def __init__(self) -> None:
        self._pending = {}
        self._records = {}
        self._units = {}
        self._loading = None

    def add_unit(self, name, read_fn) -> None:
        self._pending[name] = read_fn

    def wait_unit(self, name) -> None:
        read_fn = self._pending.pop(name, None)
        if read_fn is not None:
            self._loading = self._units[name] = []
            read_fn(self, name)

    def new_record(self, record_type: str) -> _FloorRecord:
        return _FloorRecord()

    def alloc_field_buffer(self, record, name, nbytes) -> _FloorBuffer:
        buffer = record.buffers[name] = _FloorBuffer(
            nbytes, _DTYPES.get(name, _DOUBLE))
        return buffer

    def commit_record(self, record) -> None:
        buffers = record.buffers
        key = (bytes(buffers["block id"].data),
               bytes(buffers["time-step id"].data))
        self._records[key] = buffers
        self._loading.append(key)

    def get_field_buffer(self, record_type, name, keys) -> np.ndarray:
        return self._records[tuple(keys)][name].as_array()

    def delete_unit(self, name) -> None:
        for key in self._units.pop(name):
            del self._records[key]

    def close(self) -> None:
        self._records.clear()


def _floor_read_into(reader, name, out) -> None:
    """``SdfReader.read_into`` at its floor: a raw seek and readinto."""
    raw = reader._file._file
    raw.seek(reader._infos[name].data_offset)
    raw.readinto(out)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


def _visits(gbo, read_fn, order, keys) -> None:
    """``unit_churn``'s visits: keep CHURN_LOOKAHEAD units queued
    ahead, wait for each, query every buffer, delete it."""
    query = gbo.get_field_buffer

    def add(visit: int) -> None:
        if visit < len(order):
            gbo.add_unit(snapshot_unit_name(order[visit]), read_fn)

    for visit in range(CHURN_LOOKAHEAD + 1):
        add(visit)
    for visit, step in enumerate(order):
        unit = snapshot_unit_name(step)
        gbo.wait_unit(unit)
        buffers = [query("solid", name, key)
                   for key in keys[step] for name in ALL_SOLID_FIELDS]
        del buffers
        gbo.delete_unit(unit)
        add(visit + CHURN_LOOKAHEAD + 1)


def run_once(prep: dict, floor: bool) -> dict:
    """One pass over the visits; ``{"wall_s", "cpu_s"}``."""
    manifest = load_manifest(prep["data_dir"])
    read_fn = make_read_fn(NullTracer(), manifest, None, IoStats())
    keys = {
        entry.step: [
            [block_key(block_id).encode("ascii"),
             entry.tsid.encode("ascii")]
            for block_id in manifest.block_ids
        ]
        for entry in manifest.snapshots
    }
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    if floor:
        with mock.patch.object(SdfReader, "read_into", _floor_read_into):
            gbo = FloorGBO()
            _visits(gbo, read_fn, prep["order"], keys)
            gbo.close()
    else:
        gbo = GBO(mem_mb=24, derived_cache=False)
        try:
            solid_schema().ensure(gbo)
            _visits(gbo, read_fn, prep["order"], keys)
        finally:
            gbo.close()
    return {"wall_s": time.perf_counter() - wall0,
            "cpu_s": _cpu_seconds() - cpu0}


def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def measure(pairs: int, seed: int, size: str = "default") -> dict:
    """Alternate real and floor ``pairs`` times over one dataset (after
    one unmeasured pass of each to warm the page cache) and summarize
    CPU and wall seconds."""
    with tempfile.TemporaryDirectory() as work_dir:
        prep = set_up("unit_churn", seed, SIZES[size]["unit_churn"],
                      work_dir)
        run_once(prep, floor=False)
        run_once(prep, floor=True)
        runs = {"real": [], "floor": []}
        for pair in range(pairs):
            sides = ("real", "floor") if pair % 2 == 0 else ("floor", "real")
            for side in sides:
                runs[side].append(run_once(prep, floor=side == "floor"))
    summary = {"pairs": pairs, "seed": seed, "size": size,
               "visits": len(prep["order"])}
    for metric in ("cpu_s", "wall_s"):
        real = _quartiles([run[metric] for run in runs["real"]])
        floor = _quartiles([run[metric] for run in runs["floor"]])
        summary[metric] = {
            "real_q1_q2_q3": real,
            "floor_q1_q2_q3": floor,
            "overhead_frac": (real[1] - floor[1]) / real[1],
        }
    summary["overhead_frac"] = summary["cpu_s"]["overhead_frac"]
    return summary


def test_lightweight_overhead_runs():
    """Smoke: one quick pair runs, and the floor is below the real
    calls (an overhead fraction between 0 and 1)."""
    summary = measure(pairs=1, seed=11, size="quick")
    assert summary["visits"] == SIZES["quick"]["unit_churn"]["visits"]
    assert 0.0 < summary["cpu_s"]["real_q1_q2_q3"][1]
    assert summary["overhead_frac"] < 1.0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=sorted(SIZES), default="default")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.pairs, args.seed, args.size)))


if __name__ == "__main__":
    main()
