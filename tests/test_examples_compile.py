"""Examples and benchmarks must at least compile and expose a main().

These are structural checks (docstring, main guard).  Running the six
examples end to end takes about half a minute in all, so CI's tier-1
job does that in a step of its own rather than in this suite.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
BENCHES = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
class TestExamples:
    def test_compiles(self, path):
        ast.parse(path.read_text(), filename=str(path))

    def test_has_module_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"

    def test_has_main_guard(self, path):
        source = path.read_text()
        assert 'if __name__ == "__main__":' in source

    def test_defines_main(self, path):
        tree = ast.parse(path.read_text())
        functions = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert "main" in functions


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.name)
class TestBenchmarks:
    def test_compiles(self, path):
        ast.parse(path.read_text(), filename=str(path))

    def test_uses_benchmark_fixture(self, path):
        source = path.read_text()
        assert "benchmark.pedantic" in source, (
            f"{path.name} must run its workload through benchmark.pedantic"
        )

    def test_records_a_report(self, path):
        assert "record_report" in path.read_text()

    def test_asserts_paper_shape(self, path):
        tree = ast.parse(path.read_text())
        has_assert = any(isinstance(n, ast.Assert) for n in ast.walk(tree))
        # Some benches delegate assertions to a _check helper; accept either.
        assert has_assert or "_check" in path.read_text()


def test_example_count_matches_readme_claim():
    assert len(EXAMPLES) >= 3, "the library promises at least three examples"


def test_every_paper_figure_has_a_bench():
    names = " ".join(p.name for p in BENCHES)
    for token in ("fig02", "fig03", "fig04", "fig05", "fig06", "fig07_12",
                  "fig13", "fig14", "table1"):
        assert token in names, f"missing bench for {token}"
