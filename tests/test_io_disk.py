"""Disk cost model and I/O statistics."""

import pytest

from repro.io.disk import (
    ENGLE_DISK,
    NULL_DISK,
    TURING_DISK,
    CostedFile,
    DiskProfile,
    IoStats,
)


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(bytes(range(256)) * 64)  # 16 KiB
    return str(path)


class TestDiskProfile:
    def test_transfer_time(self):
        profile = DiskProfile("t", seek_s=0.01,
                              bandwidth_bytes_s=1e6, open_s=0.0)
        assert profile.transfer_s(500_000) == pytest.approx(0.5)

    def test_position_cost_first_read_is_seek(self):
        assert ENGLE_DISK.position_cost_s(None) == ENGLE_DISK.seek_s

    def test_position_cost_sequential_is_free(self):
        assert ENGLE_DISK.position_cost_s(0) == 0.0

    def test_position_cost_short_forward_is_settle(self):
        assert ENGLE_DISK.position_cost_s(1024) == ENGLE_DISK.settle_s

    def test_position_cost_long_forward_is_seek(self):
        gap = ENGLE_DISK.forward_window_bytes + 1
        assert ENGLE_DISK.position_cost_s(gap) == ENGLE_DISK.seek_s

    def test_position_cost_backward_is_seek(self):
        assert ENGLE_DISK.position_cost_s(-1) == ENGLE_DISK.seek_s

    def test_named_profiles(self):
        assert ENGLE_DISK.seek_s > TURING_DISK.seek_s
        assert NULL_DISK.transfer_s(10**9) == 0.0
        assert NULL_DISK.read_cost_s(100, None) == 0.0


class TestCostedFile:
    def test_plain_read(self, sample_file):
        with CostedFile(sample_file) as f:
            data = f.read(16)
            assert data == bytes(range(16))
            assert f.tell() == 16
            assert f.size() == 16 * 1024

    def test_stats_accumulate(self, sample_file):
        stats = IoStats()
        with CostedFile(sample_file, stats=stats,
                        profile=ENGLE_DISK) as f:
            f.read(1000)           # first read: seek
            f.read(1000)           # sequential
            f.seek(8000)
            f.read(100)            # short forward: settle
            f.seek(0)
            f.read(10)             # backward: seek
        snap = stats.snapshot()
        assert snap["bytes_read"] == 2110
        assert snap["read_calls"] == 4
        assert snap["opens"] == 1
        assert snap["seeks"] == 2
        assert snap["settles"] == 1
        expected = (
            ENGLE_DISK.open_s
            + ENGLE_DISK.seek_s + ENGLE_DISK.transfer_s(1000)
            + ENGLE_DISK.transfer_s(1000)
            + ENGLE_DISK.settle_s + ENGLE_DISK.transfer_s(100)
            + ENGLE_DISK.seek_s + ENGLE_DISK.transfer_s(10)
        )
        assert snap["virtual_seconds"] == pytest.approx(expected)

    def test_per_file_bytes(self, sample_file):
        stats = IoStats()
        with CostedFile(sample_file, stats=stats) as f:
            f.read(100)
        assert stats.per_file_bytes[sample_file] == 100

    def test_seek_alone_costs_nothing(self, sample_file):
        stats = IoStats()
        with CostedFile(sample_file, stats=stats,
                        profile=ENGLE_DISK) as f:
            f.seek(1000)
            f.seek(0)
        assert stats.snapshot()["virtual_seconds"] == \
            pytest.approx(ENGLE_DISK.open_s)

    def test_reset(self, sample_file):
        stats = IoStats()
        with CostedFile(sample_file, stats=stats) as f:
            f.read(10)
        stats.reset()
        snap = stats.snapshot()
        assert snap["bytes_read"] == 0
        assert snap["opens"] == 0
        assert stats.per_file_bytes == {}

    def test_thread_safety_smoke(self, sample_file):
        import threading

        stats = IoStats()

        def worker():
            with CostedFile(sample_file, stats=stats,
                            profile=ENGLE_DISK) as f:
                for _ in range(50):
                    f.read(8)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.snapshot()["bytes_read"] == 4 * 50 * 8


class TestCostedFileClose:
    def test_close_is_idempotent(self, sample_file):
        f = CostedFile(sample_file)
        f.read(4)
        assert not f.closed
        f.close()
        assert f.closed
        f.close()   # second close: no-op, no raise
        assert f.closed

    def test_with_block_after_explicit_close(self, sample_file):
        # A callback may hand ownership around and close early; the
        # context manager's exit must then be a no-op.
        with CostedFile(sample_file) as f:
            f.read(4)
            f.close()
        assert f.closed


class TestIoStatsMerge:
    def test_self_merge_is_noop(self, sample_file):
        stats = IoStats()
        with CostedFile(sample_file, stats=stats) as f:
            f.read(100)
        before = stats.snapshot()
        stats.merge(stats)
        assert stats.snapshot() == before

    def test_merge_adds_counters_and_per_file(self, sample_file):
        total, private = IoStats(), IoStats()
        with CostedFile(sample_file, stats=total,
                        profile=ENGLE_DISK) as f:
            f.read(100)
        with CostedFile(sample_file, stats=private,
                        profile=ENGLE_DISK) as f:
            f.read(50)
        total.merge(private)
        snap = total.snapshot()
        assert snap["bytes_read"] == 150
        assert snap["opens"] == 2
        assert total.per_file_bytes[sample_file] == 150
        # The source is read, not drained.
        assert private.snapshot()["bytes_read"] == 50

    def test_concurrent_cross_merge_does_not_deadlock(self):
        """a.merge(b) racing b.merge(a): holding one lock at a time
        must make this safe. A join timeout converts a lock-order
        deadlock into a test failure."""
        import threading

        a, b = IoStats(), IoStats()
        a.bytes_read = 1
        b.bytes_read = 1

        def cross(dst, src):
            for _ in range(200):
                dst.merge(src)

        threads = [
            threading.Thread(target=cross, args=(a, b)),
            threading.Thread(target=cross, args=(b, a)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20.0)
        assert not any(t.is_alive() for t in threads), \
            "cross-merge deadlocked"

    def test_merge_is_atomic_against_recording(self, sample_file):
        """A record_read on the source mid-merge must not be half
        counted: totals after the dust settles have to balance."""
        import threading

        total, private = IoStats(), IoStats()

        def record():
            with CostedFile(sample_file, stats=private) as f:
                for _ in range(100):
                    f.read(8)

        recorder = threading.Thread(target=record)
        recorder.start()
        for _ in range(50):
            total.merge(private)
        recorder.join()
        final = IoStats()
        final.merge(private)
        assert final.snapshot()["bytes_read"] == 100 * 8
