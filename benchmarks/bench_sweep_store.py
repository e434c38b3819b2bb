"""Sweep-store bench: O(1) append-log upserts vs the old rewrite-all store.

The million-cell blocker was quadratic persistence: the monolithic-JSON
store rewrote the whole file on every put, so cell N cost O(N) bytes and
a full grid cost O(N^2).  The log store appends one record per put.  This
bench demonstrates both scaling laws and gates on them:

1. **Log store is flat** — the mean cost of the *last 100* puts into a
   10,000-cell store must be < 2x the last-100 cost at 1,000 cells
   (O(1) per put; the ratio would be ~10x if cost grew with N).
2. **Rewrite-all is not** — an inline reimplementation of the old
   store's persistence shows the last-100 cost at 800 cells >= 2x the
   cost at 200 cells, documenting the cliff the log store removes.
3. **Reopen stays cheap** — indexing a 10,000-cell log on open must run
   at >= 50,000 cells/s.  The scan ``json.loads`` every record line to
   check it and read its key, but keeps only ``key -> (offset, length)``;
   values are decoded again on ``get``.

Results land in ``BENCH_sweep_store.json`` next to this file, with the
gates that failed under ``"failed_gates"``, before any gate is asserted:
a failing run still records what it measured.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_sweep_store.py --benchmark-only
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from common import record_report, write_bench_json
from repro.experiments import SweepStore
from repro.utils import atomic_write_text

JSON_PATH = Path(__file__).parent / "BENCH_sweep_store.json"

LOG_SMALL, LOG_LARGE = 1_000, 10_000
REWRITE_SMALL, REWRITE_LARGE = 200, 800
TAIL = 100  # puts timed at the end of each fill
GATE_LOG_RATIO = 2.0  # log store: large/small last-TAIL cost must stay below
GATE_REWRITE_RATIO = 2.0  # rewrite-all: must exceed (shows the cliff)
GATE_OPEN_CELLS_PER_S = 50_000.0


def _cell_value(index: int) -> dict:
    return {"mean_psnr": 10.0 + (index % 50) * 0.25, "trials": 3}


def _fill_log_store(path: Path, total: int) -> float:
    """Fill a log store, returning mean seconds per put over the last TAIL."""
    store = SweepStore(path)
    for index in range(total - TAIL):
        store.put(f"cell-{index:07d}", _cell_value(index))
    start = time.perf_counter()
    for index in range(total - TAIL, total):
        store.put(f"cell-{index:07d}", _cell_value(index))
    elapsed = time.perf_counter() - start
    store.close()
    return elapsed / TAIL


class _RewriteAllStore:
    """The pre-log store's persistence: full-file JSON dump on every put."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.cells: dict = {}

    def put(self, key: str, value) -> None:
        self.cells[key] = value
        atomic_write_text(
            self.path,
            json.dumps({"cells": self.cells}, indent=2, sort_keys=True) + "\n",
        )


def _fill_rewrite_store(path: Path, total: int) -> float:
    store = _RewriteAllStore(path)
    for index in range(total - TAIL):
        store.put(f"cell-{index:07d}", _cell_value(index))
    start = time.perf_counter()
    for index in range(total - TAIL, total):
        store.put(f"cell-{index:07d}", _cell_value(index))
    return (time.perf_counter() - start) / TAIL


def test_store_upsert_scaling(tmp_path, benchmark):
    log_small = _fill_log_store(tmp_path / "log_small.json", LOG_SMALL)
    log_large = benchmark.pedantic(
        lambda: _fill_log_store(tmp_path / "log_large.json", LOG_LARGE),
        rounds=1,
        iterations=1,
    )
    log_ratio = log_large / log_small

    rewrite_small = _fill_rewrite_store(tmp_path / "rw_small.json", REWRITE_SMALL)
    rewrite_large = _fill_rewrite_store(tmp_path / "rw_large.json", REWRITE_LARGE)
    rewrite_ratio = rewrite_large / rewrite_small

    start = time.perf_counter()
    reopened = SweepStore(tmp_path / "log_large.json")
    open_s = time.perf_counter() - start
    assert len(reopened) == LOG_LARGE
    open_cells_per_s = LOG_LARGE / open_s
    reopened.close()

    # Record first, with the gates that failed, then fail: a failing run
    # still leaves what it measured.
    failed_gates = []
    if not log_ratio < GATE_LOG_RATIO:
        failed_gates.append(
            f"log-store put cost grew {log_ratio:.2f}x from {LOG_SMALL} to "
            f"{LOG_LARGE} cells (gate < {GATE_LOG_RATIO}x) — appends are no "
            "longer O(1)"
        )
    if not rewrite_ratio >= GATE_REWRITE_RATIO:
        failed_gates.append(
            f"rewrite-all baseline only grew {rewrite_ratio:.2f}x from "
            f"{REWRITE_SMALL} to {REWRITE_LARGE} cells — the baseline no "
            "longer demonstrates the cliff this store exists to remove"
        )
    if not open_cells_per_s >= GATE_OPEN_CELLS_PER_S:
        failed_gates.append(
            f"reopening a {LOG_LARGE}-cell log indexed only "
            f"{open_cells_per_s:,.0f} cells/s (gate >= "
            f"{GATE_OPEN_CELLS_PER_S:,.0f}/s)"
        )

    write_bench_json(
        JSON_PATH,
        {
            "tail_puts_timed": TAIL,
            "log_store": {
                "cells_small": LOG_SMALL,
                "cells_large": LOG_LARGE,
                "per_put_small_s": log_small,
                "per_put_large_s": log_large,
                "cost_ratio": log_ratio,
                "gate_max_ratio": GATE_LOG_RATIO,
            },
            "rewrite_all_baseline": {
                "cells_small": REWRITE_SMALL,
                "cells_large": REWRITE_LARGE,
                "per_put_small_s": rewrite_small,
                "per_put_large_s": rewrite_large,
                "cost_ratio": rewrite_ratio,
                "gate_min_ratio": GATE_REWRITE_RATIO,
            },
            "reopen": {
                "cells": LOG_LARGE,
                "open_s": open_s,
                "cells_per_s": open_cells_per_s,
                "gate_min_cells_per_s": GATE_OPEN_CELLS_PER_S,
            },
            "failed_gates": failed_gates,
        },
    )
    record_report(
        f"Sweep store — last-{TAIL}-put cost vs store size",
        f"log store     {LOG_SMALL:>6} -> {LOG_LARGE:>6} cells: "
        f"{log_small * 1e6:8.1f} -> {log_large * 1e6:8.1f} us/put "
        f"({log_ratio:.2f}x, gate < {GATE_LOG_RATIO}x)\n"
        f"rewrite-all   {REWRITE_SMALL:>6} -> {REWRITE_LARGE:>6} cells: "
        f"{rewrite_small * 1e6:8.1f} -> {rewrite_large * 1e6:8.1f} us/put "
        f"({rewrite_ratio:.2f}x, gate >= {GATE_REWRITE_RATIO}x)\n"
        f"reopen {LOG_LARGE} cells: {open_s * 1e3:.1f} ms "
        f"({open_cells_per_s:,.0f} cells/s)",
    )
    assert not failed_gates, "; ".join(failed_gates)
