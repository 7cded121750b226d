"""repro-check: each SC rule on synthetic sources, the interprocedural
propagation machinery, and the repo-cleanliness gate CI enforces.

Synthetic classes reuse registry names (``ComputePool``, ``IoScheduler``,
``RecordEngine``...) to inherit their lock roles; the registry-drift
pass then also reports the fields those stand-ins do not declare, so
assertions here are membership-based rather than exact-list."""

import os

from repro.analysis import static
from repro.analysis.baseline import load_baseline

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC = '"""Module docstring."""\n'


def diagnostics(source, path="src/repro/somewhere.py"):
    return static.check_sources([(path, DOC + source)])


def keys(source, rule=None):
    return [
        d.key for d in diagnostics(source)
        if rule is None or d.rule == rule
    ]


class TestSC101GuardedAccess:
    UNSAFE = (
        "@guarded_by('_items', lock='_lock')\n"
        "class Widget:\n"
        '    """Doc."""\n'
        "    def peek(self):\n"
        '        """No contract, no lock."""\n'
        "        return self._items\n"
        "    def read(self):\n"
        '        """Covered. Lock held."""\n'
        "        return self._items\n"
        "    def add(self, x):\n"
        '        """Takes the lock lexically."""\n'
        "        with self._lock:\n"
        "            self._items.append(x)\n"
    )

    def test_unlocked_access_flagged_with_line(self):
        found = [d for d in diagnostics(self.UNSAFE)
                 if d.rule == "SC101"]
        assert [d.symbol for d in found] == ["Widget.peek:Widget._items"]
        assert found[0].line == 7
        assert "_items" in found[0].message

    def test_contract_and_lexical_lock_are_clean(self):
        assert not [k for k in keys(self.UNSAFE, "SC101")
                    if "read" in k or "add" in k]

    def test_condition_alias_counts_as_the_lock(self):
        src = (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
            "    def drain(self):\n"
            '        """Uses the paired condition."""\n'
            "        with self._cond:\n"
            "            return list(self._items)\n"
        )
        assert keys(src, "SC101") == []

    def test_acquire_then_try_finally_release_counts_as_the_lock(self):
        src = (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
            "    def add(self, x):\n"
            '        """The hot-path spelling of with self._lock."""\n'
            "        self._lock.acquire()\n"
            "        try:\n"
            "            self._items.append(x)\n"
            "        finally:\n"
            "            self._lock.release()\n"
            "        return x\n"
        )
        assert keys(src, "SC101") == []

    def test_access_after_the_release_is_flagged(self):
        src = (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
            "    def add(self, x):\n"
            '        """The lock is gone after the finally."""\n'
            "        self._lock.acquire()\n"
            "        try:\n"
            "            pass\n"
            "        finally:\n"
            "            self._lock.release()\n"
            "        self._items.append(x)\n"
        )
        found = [d for d in diagnostics(src) if d.rule == "SC101"]
        assert [(d.symbol, d.line) for d in found] == [
            ("Widget.add:Widget._items", 12)]

    def test_try_without_the_release_holds_nothing(self):
        src = (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
            "    def add(self, x):\n"
            '        """A finally that does not release the lock."""\n'
            "        try:\n"
            "            self._items.append(x)\n"
            "        finally:\n"
            "            x = None\n"
        )
        assert [d.symbol for d in diagnostics(src) if d.rule == "SC101"] \
            == ["Widget.add:Widget._items"]

    def test_registry_class_checked_without_decorator_noise(self):
        # A registry class (engine role) accessed through a typed
        # attribute from another class.
        src = (
            "class Holder:\n"
            '    """Doc."""\n'
            "    def __init__(self):\n"
            "        self._store = IoScheduler()\n"
            "    def sizes(self):\n"
            '        """No lock."""\n'
            "        return len(self._store._units)\n"
            "class IoScheduler:\n"
            '    """Doc."""\n'
        )
        assert "SC101:src/repro/somewhere.py:Holder.sizes:IoScheduler._units" \
            in keys(src, "SC101")

    def test_init_is_exempt(self):
        src = (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
            "    def __init__(self):\n"
            "        self._items = []\n"
        )
        assert keys(src, "SC101") == []

    def test_nested_defs_are_exempt(self):
        src = (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
            "    def schedule(self):\n"
            '        """Builds a callback. Lock held."""\n'
            "        def _cb():\n"
            "            return self._items\n"
            "        return _cb\n"
        )
        assert keys(src, "SC101") == []


class TestSC102Hierarchy:
    def test_out_of_order_acquisition_flagged(self):
        # compute (rank 2) held, then record (rank 1): order violation.
        src = (
            "class ComputePool:\n"
            '    """Doc."""\n'
            "    def bad(self, records: 'RecordEngine'):\n"
            '        """Backwards nesting."""\n'
            "        with self._lock:\n"
            "            with records._lock:\n"
            "                pass\n"
            "class RecordEngine:\n"
            '    """Doc."""\n'
        )
        found = [d for d in diagnostics(src) if d.rule == "SC102"]
        assert [d.symbol for d in found] == [
            "ComputePool.bad:record<-compute"
        ]
        assert "engine -> record -> compute" in found[0].message

    def test_declared_order_is_clean(self):
        src = (
            "class RecordEngine:\n"
            '    """Doc."""\n'
            "    def fine(self, pool: 'ComputePool'):\n"
            '        """Correct nesting."""\n'
            "        with self._lock:\n"
            "            with pool._lock:\n"
            "                pass\n"
            "class ComputePool:\n"
            '    """Doc."""\n'
        )
        assert keys(src, "SC102") == []

    def test_out_of_order_inside_try_finally_flagged(self):
        src = (
            "class ComputePool:\n"
            '    """Doc."""\n'
            "    def bad(self, records: 'RecordEngine'):\n"
            '        """Backwards nesting, acquire/release spelling."""\n'
            "        self._lock.acquire()\n"
            "        try:\n"
            "            records._lock.acquire()\n"
            "            try:\n"
            "                pass\n"
            "            finally:\n"
            "                records._lock.release()\n"
            "        finally:\n"
            "            self._lock.release()\n"
            "class RecordEngine:\n"
            '    """Doc."""\n'
        )
        assert [d.symbol for d in diagnostics(src) if d.rule == "SC102"] \
            == ["ComputePool.bad:record<-compute"]

    def test_reacquire_flagged_as_self_deadlock(self):
        src = (
            "class IoScheduler:\n"
            '    """Doc."""\n'
            "    def stuck(self):\n"
            '        """Double acquisition."""\n'
            "        with self._lock:\n"
            "            self._lock.acquire()\n"
        )
        found = [d for d in diagnostics(src) if d.rule == "SC102"]
        assert [d.symbol for d in found] == [
            "IoScheduler.stuck:engine<-engine"
        ]
        assert "self-deadlock" in found[0].message

    def test_unranked_lock_nests_anywhere(self):
        src = (
            "class ComputePool:\n"
            '    """Doc."""\n'
            "    def count(self, stats: 'IoStats'):\n"
            '        """iostats is unranked: legal under any lock."""\n'
            "        with self._lock:\n"
            "            with stats._lock:\n"
            "                pass\n"
            "class IoStats:\n"
            '    """Doc."""\n'
        )
        assert keys(src, "SC102") == []


class TestSC103BlockingUnderLeaf:
    def test_sleep_under_compute_lock_flagged(self):
        src = (
            "import time\n"
            "class ComputePool:\n"
            '    """Doc."""\n'
            "    def nap(self):\n"
            '        """Sleeps while holding the leaf."""\n'
            "        with self._lock:\n"
            "            time.sleep(0.1)\n"
        )
        assert "SC103:src/repro/somewhere.py:" \
            "ComputePool.nap:time.sleep()@compute" in keys(src, "SC103")

    def test_open_under_iostats_lock_flagged(self):
        src = (
            "class IoStats:\n"
            '    """Doc."""\n'
            "    def dump(self, path):\n"
            '        """File I/O under the stats leaf."""\n'
            "        with self._lock:\n"
            "            with open(path) as f:\n"
            "                f.write('x')\n"
        )
        assert any("open()@iostats" in k for k in keys(src, "SC103"))

    def test_wait_on_own_condition_is_exempt(self):
        # Condition.wait releases its own lock while sleeping.
        src = (
            "class ComputePool:\n"
            '    """Doc."""\n'
            "    def idle(self):\n"
            '        """Classic guarded wait."""\n'
            "        with self._cond:\n"
            "            while True:\n"
            "                self._cond.wait()\n"
        )
        assert keys(src, "SC103") == []

    def test_wait_on_other_condition_flagged(self):
        src = (
            "class ComputePool:\n"
            '    """Doc."""\n'
            "    def cross(self, store: 'IoScheduler'):\n"
            '        """Waits on a different lock\'s condition."""\n'
            "        with self._lock:\n"
            "            store._cond.wait()\n"
        )
        assert any("@compute" in k for k in keys(src, "SC103"))

    def test_blocking_under_non_leaf_is_clean(self):
        src = (
            "import time\n"
            "class IoScheduler:\n"
            '    """Doc."""\n'
            "    def nap(self):\n"
            '        """Engine lock is not a leaf."""\n'
            "        with self._lock:\n"
            "            time.sleep(0.1)\n"
        )
        assert keys(src, "SC103") == []

    def test_leaf_propagates_through_calls(self):
        # The blocking op is in a helper; only the *caller* holds the
        # leaf — SC103 must come from the propagated context, with the
        # proving chain attached.
        src = (
            "import time\n"
            "class ComputePool:\n"
            '    """Doc."""\n'
            "    def outer(self):\n"
            '        """Holds the leaf across a call."""\n'
            "        with self._lock:\n"
            "            self._helper()\n"
            "    def _helper(self):\n"
            "        time.sleep(0.1)\n"
        )
        found = [d for d in diagnostics(src) if d.rule == "SC103"]
        assert len(found) == 1
        assert found[0].symbol == "ComputePool._helper:time.sleep()@compute"
        assert found[0].chain == ("ComputePool.outer",
                                  "ComputePool._helper")
        assert "[chain: ComputePool.outer -> ComputePool._helper]" \
            in repr(found[0])


class TestSC104ContractDrift:
    def test_uncontracted_call_site_flagged(self):
        src = (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
            "    def read(self):\n"
            '        """Lock held."""\n'
            "        return self._items\n"
            "    def careless(self):\n"
            '        """Calls the contract method without the lock."""\n'
            "        return self.read()\n"
            "    def careful(self):\n"
            '        """Honors the contract."""\n'
            "        with self._lock:\n"
            "            return self.read()\n"
        )
        found = [d.symbol for d in diagnostics(src)
                 if d.rule == "SC104"]
        assert "Widget.careless->Widget.read" in found
        assert "Widget.careful->Widget.read" not in found

    def test_caller_contract_satisfies_callee(self):
        src = (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
            "    def read(self):\n"
            '        """Lock held."""\n'
            "        return self._items\n"
            "    def read_twice(self):\n"
            '        """Also under contract. Lock held."""\n'
            "        return self.read() + self.read()\n"
        )
        assert keys(src, "SC104") == []

    def test_subclass_inherits_layer_types(self):
        # A facade subclass reaches layers its base built: the call
        # still resolves, so a missing lock is still reported.
        src = (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """Doc."""\n'
            "    def read(self):\n"
            '        """Lock held."""\n'
            "        return self._items\n"
            "class Facade:\n"
            '    """Doc."""\n'
            "    def __init__(self):\n"
            "        self._widget = Widget()\n"
            "class Scoped(Facade):\n"
            '    """Doc."""\n'
            "    def careless(self):\n"
            '        """Calls an inherited layer without the lock."""\n'
            "        return self._widget.read()\n"
        )
        found = [d.symbol for d in diagnostics(src)
                 if d.rule == "SC104"]
        assert "Scoped.careless->Widget.read" in found

    def test_undeclared_registry_field_reported(self):
        # A registry class that drops a declared field from its
        # decorator drifts from the DESIGN table.
        src = (
            "@guarded_by(lock='_lock')\n"
            "class IoScheduler:\n"
            '    """Doc."""\n'
            "    pass\n"
        )
        assert "SC104:src/repro/somewhere.py:IoScheduler._units:undeclared" \
            in keys(src, "SC104")

    def test_unregistered_field_on_registry_class_reported(self):
        src = (
            "@guarded_by('_units', '_bogus', lock='_lock')\n"
            "class IoScheduler:\n"
            '    """Doc."""\n'
        )
        assert "SC104:src/repro/somewhere.py:IoScheduler._bogus:unregistered" \
            in keys(src, "SC104")

    def test_uncontracted_nonregistry_field_reported(self):
        src = (
            "@guarded_by('_items', lock='_lock')\n"
            "class Widget:\n"
            '    """No contract anywhere."""\n'
        )
        assert "SC104:src/repro/somewhere.py:Widget._items:uncontracted" \
            in keys(src, "SC104")


class TestCheckerMechanics:
    def test_diagnostic_keys_are_line_number_free(self):
        src = TestSC101GuardedAccess.UNSAFE
        (first,) = [d for d in diagnostics(src) if d.rule == "SC101"]
        shifted = [
            d for d in static.check_sources(
                [("src/repro/somewhere.py", DOC + "\n\n" + src)]
            )
            if d.rule == "SC101"
        ]
        assert [d.key for d in shifted] == [first.key]
        assert shifted[0].line != first.line

    def test_analysis_package_paths_are_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "analysis"
        pkg.mkdir(parents=True)
        (pkg / "x.py").write_text(
            DOC
            + "@guarded_by('_f', lock='_lock')\n"
            + "class W:\n"
            + '    """Doc."""\n'
            + "    def g(self):\n"
            + '        """D."""\n'
            + "        return self._f\n"
        )
        assert static.check_paths([str(tmp_path)]) == []

    def test_multiple_files_form_one_program(self):
        # Cross-module resolution: the class lives in one file, the
        # caller in another.
        files = [
            ("src/repro/a.py", DOC + (
                "@guarded_by('_items', lock='_lock')\n"
                "class Widget:\n"
                '    """Doc."""\n'
                "    def read(self):\n"
                '        """Lock held."""\n'
                "        return self._items\n"
            )),
            ("src/repro/b.py", DOC + (
                "class Holder:\n"
                '    """Doc."""\n'
                "    def __init__(self):\n"
                "        self._w = Widget()\n"
                "    def use(self):\n"
                '        """No lock across modules."""\n'
                "        return self._w.read()\n"
            )),
        ]
        found = [d.symbol for d in static.check_sources(files)
                 if d.rule == "SC104"]
        assert "Holder.use->Widget.read" in found


class TestRepoCleanliness:
    def test_src_repro_is_clean_with_committed_baseline(
        self, monkeypatch
    ):
        """The same gate CI runs: zero new repro-check violations."""
        monkeypatch.chdir(REPO_ROOT)
        assert static.main([]) == 0

    def test_committed_baseline_matches_current_findings(
        self, monkeypatch
    ):
        """Every committed suppression still fires (no stale entries)
        and nothing new fires — the baseline is exactly the current
        report."""
        monkeypatch.chdir(REPO_ROOT)
        found = {d.key for d in static.check_paths(["src/repro"])}
        assert found == load_baseline(".repro-check-baseline.json")

    def test_accepted_suppressions_are_the_documented_ones(self):
        """No finding is accepted: the committed baseline is empty
        (documented in docs/ANALYSIS.md)."""
        path = os.path.join(REPO_ROOT, ".repro-check-baseline.json")
        assert os.path.exists(path)
        assert load_baseline(path) == set()
