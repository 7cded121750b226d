"""Documentation consistency: the docs track the code.

Cheap guards that keep README/DESIGN/EXPERIMENTS/API honest as the code
evolves — every promised module exists, every public name is documented,
every bench the experiment index references is present.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name: str) -> str:
    with open(os.path.join(ROOT, name)) as f:
        return f.read()


class TestReadme:
    def test_quickstart_snippet_runs(self):
        """The README's quickstart code block must execute verbatim."""
        readme = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert blocks, "README lost its python quickstart"
        exec_globals = {}
        exec(blocks[0], exec_globals)  # raises on breakage

    def test_examples_listed_exist(self):
        readme = read("README.md")
        for match in re.findall(r"examples/(\w+\.py)", readme):
            assert os.path.exists(
                os.path.join(ROOT, "examples", match)
            ), match

    def test_cli_names_exist(self):
        import tomllib

        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        readme = read("README.md")
        for name in ("godiva-gen", "godiva-voyager"):
            assert name in scripts
            assert name in readme


class TestDesign:
    def test_experiment_index_benches_exist(self):
        design = read("DESIGN.md")
        for match in set(re.findall(r"benchmarks/(bench_\w+\.py)",
                                    design)):
            assert os.path.exists(
                os.path.join(ROOT, "benchmarks", match)
            ), match

    def test_inventory_packages_exist(self):
        design = read("DESIGN.md")
        for match in set(re.findall(r"`repro\.(\w+)`", design)):
            assert os.path.isdir(
                os.path.join(ROOT, "src", "repro", match)
            ) or os.path.exists(
                os.path.join(ROOT, "src", "repro", f"{match}.py")
            ), match

    def test_paper_match_confirmed(self):
        assert "matches the title/venue/authors" in read("DESIGN.md")

    def test_lock_table_matches_registry(self):
        """DESIGN's lock-ownership table and the machine-readable
        registry (``repro.analysis.lockfacts.LOCK_TABLE``) never drift:
        same roles, same classes, same guarded fields, in order."""
        from repro.analysis.lockfacts import (
            LOCK_TABLE,
            parse_design_lock_table,
        )

        parsed = parse_design_lock_table(read("DESIGN.md"))
        expected = {
            role: {
                cls: list(fields)
                for cls, fields in entry["classes"].items()
                # Field-less classes (contract-only members of a role)
                # have nothing to list in the table's fields column.
                if fields
            }
            for role, entry in LOCK_TABLE.items()
        }
        assert parsed == expected


class TestAdrIndex:
    """DESIGN.md §6 opens with a one-line-each index of ``docs/adr/``."""

    INDEX_LINE = re.compile(r"^- `docs/adr/(\d{3}-[\w-]+\.md)` — PR \d+: \S")

    def indexed(self):
        section = read("DESIGN.md").split("## 6. Key internal decisions")[1]
        return [m.group(1) for m in map(self.INDEX_LINE.match,
                                        section.splitlines()) if m]

    def test_index_and_directory_agree(self):
        indexed = self.indexed()
        on_disk = sorted(os.listdir(os.path.join(ROOT, "docs", "adr")))
        assert indexed == on_disk, (indexed, on_disk)
        assert [name[:3] for name in indexed] == [
            f"{n:03d}" for n in range(1, len(indexed) + 1)
        ], "ADR numbers are consecutive from 001"

    def test_every_record_has_the_header(self):
        for name in self.indexed():
            text = read(os.path.join("docs", "adr", name))
            assert text.startswith(f"# ADR-{name[:3]}: "), name
            for field in ("**Status:**", "**Date:**", "**PR:**",
                          "**Verdict:**"):
                assert field in text.split("\n\n", 2)[1], (name, field)

    def test_every_mention_of_a_record_resolves(self):
        for doc in ("DESIGN.md", "README.md", "EXPERIMENTS.md",
                    os.path.join("docs", "API.md")):
            for name in re.findall(r"docs/adr/([\w-]+\.md)", read(doc)):
                assert os.path.exists(
                    os.path.join(ROOT, "docs", "adr", name)), (doc, name)


class TestExperiments:
    def test_every_bench_documented(self):
        """EXPERIMENTS.md references every benchmark module."""
        experiments = read("EXPERIMENTS.md")
        benches = [
            name for name in os.listdir(
                os.path.join(ROOT, "benchmarks")
            )
            if name.startswith("bench_") and name.endswith(".py")
        ]
        undocumented = [
            name for name in benches
            if name not in experiments and name != "bench_core_micro.py"
        ]
        assert not undocumented, undocumented


class TestApiDoc:
    def test_public_names_documented(self):
        import repro

        api = read(os.path.join("docs", "API.md"))
        missing = [
            name for name in repro.__all__
            if name not in api and name != "__version__"
        ]
        assert not missing, missing

    def test_removed_budget_spelling_is_not_documented(self):
        for doc in ("README.md", "DESIGN.md",
                    os.path.join("docs", "API.md"),
                    os.path.join("docs", "SERVICE.md"),
                    os.path.join("docs", "SHARDING.md"),
                    os.path.join("src", "repro", "api.py")):
            text = read(doc)
            assert "mem_bytes" not in text, doc
            assert "parse_budget" not in text, doc

    def test_documented_modules_import(self):
        import importlib

        api = read(os.path.join("docs", "API.md"))
        for match in set(re.findall(r"`repro(\.\w+)+`", api)):
            pass  # group captures only the last segment; re-scan below
        for module in set(re.findall(r"`(repro(?:\.\w+)+)`", api)):
            # Only module-looking names (lowercase path, no call syntax).
            if any(part[0].isupper() for part in module.split(".")):
                continue
            importlib.import_module(module)
