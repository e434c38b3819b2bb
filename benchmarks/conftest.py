"""Benchmark-suite conftest: one BLAS thread, and the recorded reports at the end."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import common
from repro.utils.blas import limit_blas_threads


def pytest_configure(config):
    # Benches time the code, not the BLAS thread pool.  Under the default
    # pool one process in several runs the same GEMM an order of magnitude
    # slower than the next, which decided gates by process luck.
    limit_blas_threads(common.BLAS_THREADS)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = common.consume_reports()
    if not reports:
        return
    terminalreporter.write_sep("=", "OASIS reproduction: regenerated tables/figures")
    for title, body in reports:
        terminalreporter.write_sep("-", title)
        terminalreporter.write_line(body)
