"""Documentation integrity: DESIGN.md's experiment index must stay in sync
with the benchmark files that actually exist, every figure has a
benchmark, and README.md lists every runnable example.

Each test skips only when the file or directory it reads is absent (an
installed package has no docs, examples or benchmarks)."""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _skip_unless_checkout(*paths: str):
    for path in paths:
        if not (REPO_ROOT / path).exists():
            pytest.skip(f"{path} only present in a repository checkout")


class TestDesignDoc:
    def test_every_referenced_benchmark_exists(self):
        _skip_unless_checkout("DESIGN.md")
        text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", text))
        assert referenced, "DESIGN.md should reference benchmark files"
        for name in referenced:
            assert (REPO_ROOT / "benchmarks" / name).is_file(), name

    def test_every_figure_has_a_benchmark(self):
        _skip_unless_checkout("benchmarks")
        bench_dir = REPO_ROOT / "benchmarks"
        for fig in range(8, 18):
            matches = list(bench_dir.glob(f"test_fig{fig:02d}_*.py"))
            assert matches, f"no benchmark for figure {fig}"
        assert list(bench_dir.glob("test_table1_*.py"))
        assert list(bench_dir.glob("test_table2_*.py"))

    def test_paper_identity_statement_present(self):
        _skip_unless_checkout("DESIGN.md")
        text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        assert "Optimizing Context-Enhanced Relational Joins" in text
        assert "2312.01476" in text


class TestExamples:
    def test_examples_exist_and_have_mains(self):
        _skip_unless_checkout("examples")
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3, "need at least three runnable examples"
        for path in examples:
            source = path.read_text(encoding="utf-8")
            assert '__main__' in source, f"{path.name} is not runnable"
            assert source.lstrip().startswith('"""'), (
                f"{path.name} lacks a module docstring"
            )

    def test_readme_mentions_each_example(self):
        _skip_unless_checkout("README.md", "examples")
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for path in (REPO_ROOT / "examples").glob("*.py"):
            if path.name == "semantic_search_table2.py":
                continue  # listed in the table by name
            assert path.stem in readme or path.name in readme, path.name
