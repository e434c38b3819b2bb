"""Shared benchmark infrastructure: datasets, report registry, scales, host.

The benchmark suite regenerates every table and figure of the paper at a
CPU-budget scale (reduced resolutions / trial counts, same protocol).  Each
bench records a plain-text report; the conftest's terminal-summary hook
prints all reports at the end of the run so ``pytest benchmarks/
--benchmark-only`` leaves the reproduced numbers in its output.
"""

from __future__ import annotations

import json
import os
import platform
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.data import make_synthetic_dataset, synthetic_cifar100, synthetic_imagenet
from repro.utils import atomic_write_text

_REPORTS: list[tuple[str, str]] = []

#: BLAS threads every bench computes with; ``conftest.py`` caps the pool.
BLAS_THREADS = 1


def bench_rng(seed: int) -> np.random.Generator:
    """The benchmark suite's one RNG constructor: an explicitly seeded
    ``np.random.default_rng``.

    Every bench draw goes through it, on the same seeding discipline the
    library enforces, which is what keeps recorded numbers comparable
    across runs and machines.
    """
    return np.random.default_rng(seed)


def host_block() -> dict:
    """The host a ``BENCH_*.json`` was recorded on, for its ``"host"`` key.

    Recorded numbers are same-host ratios; this block says which host,
    so numbers from different machines are never read side by side.
    """
    from repro.experiments import usable_cpu_count

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas_thread_cap": BLAS_THREADS,
        "usable_cores": usable_cpu_count(),
    }


def write_bench_json(path: Path, results: dict) -> None:
    """Merge ``results`` into the ``BENCH_*.json`` at ``path``, host-stamped.

    Merging lets one bench of a file run alone without dropping another
    bench's recorded section; ``"host"`` is always replaced by this host.
    A bench must write the same keys on every run, so a merge never keeps
    a stale key from an earlier run.
    """
    merged: dict = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except (ValueError, OSError):
            merged = {}
    merged.update(results)
    merged["host"] = host_block()
    atomic_write_text(path, json.dumps(merged, indent=2, sort_keys=True) + "\n")


def best_of(fn, rounds: int) -> float:
    """Seconds of ``fn``'s fastest call in ``rounds`` timed calls.

    One untimed warm-up call runs first.
    """
    fn()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def below(label: str, value: float, gate: float) -> list[str]:
    """``[reason]`` when ``value`` misses its ``>= gate``, else ``[]``."""
    if value >= gate:
        return []
    return [f"{label} {value:.2f}x (gate >= {gate}x)"]


def record_report(title: str, body: str) -> None:
    _REPORTS.append((title, body))


def consume_reports() -> list[tuple[str, str]]:
    return list(_REPORTS)


@lru_cache(maxsize=None)
def imagenet_bench():
    """ImageNet stand-in for attack benches (32px for CPU budget)."""
    return synthetic_imagenet(samples_per_class=32, image_size=32, seed=1001)


@lru_cache(maxsize=None)
def cifar100_bench():
    """CIFAR100 stand-in for attack benches (full 100 classes)."""
    return synthetic_cifar100(samples_per_class=4, seed=2002)


@lru_cache(maxsize=None)
def imagenet_table1():
    """Small 10-class set for the Table I training bench (16px)."""
    return make_synthetic_dataset(
        num_classes=10, samples_per_class=16, image_size=16, seed=42,
        name="imagenet16",
    )


@lru_cache(maxsize=None)
def cifar_table1():
    """Reduced 20-class CIFAR-style set for the Table I training bench."""
    return make_synthetic_dataset(
        num_classes=20, samples_per_class=8, image_size=16, seed=43,
        name="cifar20",
    )
