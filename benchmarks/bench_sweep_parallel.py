"""Parallel sweep bench: work-stealing executor vs serial on an 8-cell grid.

Measures one wall-clock comparison: the 8-cell (2 attacks x 2 suites x 2
scenarios) grid below run serially, then run through
:func:`~repro.experiments.make_executor` asked for 4 workers — which now
adapts to the host instead of oversubscribing (the old pool forced 4
processes onto 1-core CI and ran 0.29x serial speed).  Three assertions
back the engine's claims:

1. **Correctness** — the executor's store file is byte-identical to the
   serial one (per-cell fingerprint seeding plus canonical compaction
   make the bytes independent of executor, worker count, and completion
   order).  Always enforced.
2. **Speedup** — wall-clock must be >= 2x faster than serial.  Enforced
   whenever the host exposes >= 4 usable cores.
3. **No slowdown** — on *any* host, including 1-core containers where
   make_executor degrades to the serial executor, speedup must stay
   >= 0.75x: adapting to the host means never paying pool overhead that
   cannot be repaid.  Always enforced.

When the executor resolves to the serial one, both arms run the same
code and their ratio is warm-up and host noise, not a speedup: the JSON
then records ``"speedup": null`` with a ``"not_measured"`` reason.  So it
does when the ratio exceeds the effective worker count, which no pool can
reach: load on the host slowed the serial leg.  Such a reading is checked
against no speed gate; it would pass them all.
Results, with the host block of :func:`common.host_block`, land in
``BENCH_sweep_parallel.json`` next to this file.  A run that fails a gate
still records its numbers, with the failed gates under
``"failed_gates"``, and then fails.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_sweep_parallel.py --benchmark-only
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path

from common import record_report, write_bench_json
from repro.experiments import (
    SerialSweepExecutor,
    SweepRunner,
    make_executor,
    usable_cpu_count,
)
from repro.data import synthetic_imagenet
from repro.fl import FederationConfig

JSON_PATH = Path(__file__).parent / "BENCH_sweep_parallel.json"

REQUESTED_WORKERS = 4
GATE_SPEEDUP = 2.0
GATE_MIN_CORES = 4
GATE_FLOOR = 0.75


def _bench_runner(store):
    """8 cells heavy enough (~1s each) that pool overhead is noise."""
    dataset = synthetic_imagenet(samples_per_class=32, image_size=32, seed=1001)
    return SweepRunner(
        dataset,
        attacks=("rtf", "cah"),
        defenses=("WO", "MR"),
        scenarios=(
            FederationConfig("full", num_clients=4),
            FederationConfig("sampled", num_clients=8, clients_per_round=4),
        ),
        batch_size=16,
        num_neurons=256,
        rounds=2,
        public_size=128,
        seed=0,
        store=store,
    )


def test_parallel_sweep_speedup(tmp_path, benchmark):
    cores = usable_cpu_count()
    serial_path = tmp_path / "serial.json"
    parallel_path = tmp_path / "parallel.json"

    start = time.perf_counter()
    serial = _bench_runner(serial_path).run()
    serial_s = time.perf_counter() - start
    assert len(serial.computed) == 8 and not serial.failed

    with warnings.catch_warnings():
        # On small hosts make_executor warns as it reduces the worker
        # count; that adaptation is exactly what this bench measures.
        warnings.simplefilter("ignore", RuntimeWarning)
        executor = make_executor(REQUESTED_WORKERS)
    effective_workers = executor.workers

    start = time.perf_counter()
    parallel = benchmark.pedantic(
        lambda: _bench_runner(parallel_path).run(executor),
        rounds=1,
        iterations=1,
    )
    parallel_s = time.perf_counter() - start
    assert len(parallel.computed) == 8 and not parallel.failed

    identical = serial_path.read_bytes() == parallel_path.read_bytes()
    speedup = serial_s / parallel_s
    plausible = speedup <= effective_workers
    gate_enforced = cores >= GATE_MIN_CORES
    # A failing run still records what it measured, and which gates it
    # failed, before it fails.
    failed_gates = []
    if not identical:
        failed_gates.append(
            "work-stealing store diverged from serial — determinism broken"
        )
    if plausible and gate_enforced and speedup < GATE_SPEEDUP:
        failed_gates.append(
            f"{effective_workers}-worker sweep only {speedup:.2f}x faster "
            f"than serial on {cores} cores (gate >= {GATE_SPEEDUP}x)"
        )
    if plausible and speedup < GATE_FLOOR:
        failed_gates.append(
            f"adaptive executor ran {speedup:.2f}x serial speed on {cores} "
            f"core(s) — the no-slowdown floor is {GATE_FLOOR}x; adapting to "
            "the host must never reintroduce the oversubscription regression"
        )

    result = {
        "grid_cells": 8,
        "requested_workers": REQUESTED_WORKERS,
        "effective_workers": effective_workers,
        "usable_cores": cores,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": speedup,
        "not_measured": None,
        "stores_byte_identical": identical,
        "gate": {
            "min_speedup": GATE_SPEEDUP,
            "min_cores": GATE_MIN_CORES,
            "enforced": gate_enforced,
            "floor_speedup": GATE_FLOOR,
            "floor_enforced": True,
        },
        "failed_gates": failed_gates,
    }
    if isinstance(executor, SerialSweepExecutor):
        result["speedup"] = None
        result["not_measured"] = (
            f"{cores} usable core(s): both arms ran the serial executor"
        )
    elif not plausible:
        result["speedup"] = None
        result["not_measured"] = (
            f"serial {serial_s:.2f} s / parallel {parallel_s:.2f} s = "
            f"{speedup:.2f}x exceeds {effective_workers} workers: host load "
            "skewed a leg"
        )
    write_bench_json(JSON_PATH, result)
    if result["speedup"] is None:
        verdict = f"speedup not measured: {result['not_measured']}"
    else:
        verdict = (
            f"{speedup:.2f}x, gate >= {GATE_SPEEDUP}x "
            f"{'enforced' if gate_enforced else f'unenforced: < {GATE_MIN_CORES} cores'}"
        )
    record_report(
        f"Parallel sweep — 8-cell grid, {REQUESTED_WORKERS} requested -> "
        f"{effective_workers} effective workers, {cores} cores",
        f"serial    {serial_s:7.2f} s\n"
        f"stealing  {parallel_s:7.2f} s"
        f"   ({verdict}, floor >= {GATE_FLOOR}x always)\n"
        f"stores byte-identical: {'yes' if identical else 'NO'}",
    )
    assert not failed_gates, "; ".join(failed_gates)
