"""Attack-eval bench: vectorized expansion + matching vs the scalar paths.

Three measurements back the vectorized attack-vs-defense evaluation
engine's claims, each gated against the seed's scalar implementation:

1. **Batch expansion** — ``OasisDefense.expand_batch`` on a 64-image batch
   with the MR+SH suite (the paper's heaviest lineup, 6 transforms) must be
   ≥ 5x faster than the seed's ``np.stack([transform(image) for image in
   images])`` per-image loop, with outputs equal within 1e-9.
2. **Reconstruction matching** — the broadcasted pairwise-PSNR matcher
   (``match_reconstructions`` / ``per_image_best_psnr``) must be ≥ 5x
   faster than the seed's O(R x B) Python loop of scalar ``psnr`` calls,
   equal within 1e-9.
3. **Sweep throughput** — cells/sec of a small ``SweepRunner`` grid, so
   regressions in the end-to-end evaluation loop show up as a number.

Results are recorded as a report and emitted to ``BENCH_attack_eval.json``
next to this file.  A speedup test writes its numbers, with any missed gate
in the entry's ``"failed_gates"``, before it fails.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_attack_eval.py --benchmark-only
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import (
    below,
    bench_rng,
    best_of,
    imagenet_bench,
    record_report,
    write_bench_json,
)
from repro.defense import OasisDefense
from repro.experiments import SweepRunner
from repro.fl import FederationConfig
from repro.metrics import (
    average_attack_psnr,
    match_reconstructions,
    per_image_best_psnr,
    psnr,
)

JSON_PATH = Path(__file__).parent / "BENCH_attack_eval.json"

BATCH_SIZE = 64
SUITE = "MR+SH"
_RESULTS: dict = {}


def _finish(key: str, entry: dict, failed_gates: list[str]) -> None:
    """Record ``entry`` with its failed gates, write the JSON, then assert.

    Writing first means a failing run still leaves what it measured.
    """
    entry["failed_gates"] = failed_gates
    _RESULTS[key] = entry
    write_bench_json(JSON_PATH, _RESULTS)
    assert not failed_gates, "; ".join(failed_gates)



def _scalar_expand_batch(defense: OasisDefense, images, labels):
    """The seed's per-image expansion loop, kept as the benchmark baseline."""
    blocks = [images]
    label_blocks = [labels]
    for transform in defense.suite.transforms:
        transformed = np.stack([transform(image) for image in images])
        blocks.append(transformed.astype(images.dtype, copy=False))
        label_blocks.append(labels.copy())
    return np.concatenate(blocks, axis=0), np.concatenate(label_blocks, axis=0)


def _batch(dataset, size: int, seed: int = 0):
    rng = bench_rng(seed)
    return dataset.sample_batch(size, rng)


def test_batched_expansion_speedup(benchmark):
    dataset = imagenet_bench()
    images, labels = _batch(dataset, BATCH_SIZE)
    defense = OasisDefense(SUITE)

    vectorized = benchmark.pedantic(
        lambda: defense.expand_batch(images, labels), rounds=7, iterations=1
    )
    scalar = _scalar_expand_batch(defense, images, labels)
    np.testing.assert_allclose(vectorized[0], scalar[0], atol=1e-9)
    np.testing.assert_array_equal(vectorized[1], scalar[1])

    scalar_s = best_of(lambda: _scalar_expand_batch(defense, images, labels), 7)
    batched_s = best_of(lambda: defense.expand_batch(images, labels), 7)
    speedup = scalar_s / batched_s

    record_report(
        f"Attack eval — OASIS batch expansion ({SUITE}, B={BATCH_SIZE})",
        f"scalar per-image loop {1e3 * scalar_s:8.3f} ms\n"
        f"batched apply_batch   {1e3 * batched_s:8.3f} ms"
        f"   ({speedup:.1f}x, gate >= 5x)",
    )
    _finish(
        "expansion",
        {
            "batch_size": BATCH_SIZE,
            "suite": SUITE,
            "expanded_size": len(scalar[0]),
            "scalar_loop_s": scalar_s,
            "batched_s": batched_s,
            "speedup": speedup,
        },
        below("batched expansion speedup", speedup, 5.0),
    )


def _scalar_match(originals, reconstructions):
    """The seed's O(R x B) matching loop, kept as the benchmark baseline."""
    matches = []
    for recon in reconstructions:
        scores = [psnr(original, recon) for original in originals]
        best = int(np.argmax(scores))
        matches.append((best, scores[best]))
    per_image = np.empty(len(originals))
    for i, original in enumerate(originals):
        per_image[i] = max(psnr(original, recon) for recon in reconstructions)
    return matches, per_image


def test_vectorized_matching_speedup(benchmark):
    dataset = imagenet_bench()
    originals, _ = _batch(dataset, BATCH_SIZE)
    rng = bench_rng(7)
    # A realistic attack output: some near-perfect hits, some mixtures.
    reconstructions = np.concatenate(
        [
            originals[rng.permutation(BATCH_SIZE)[: BATCH_SIZE // 2]]
            + 1e-3 * rng.standard_normal((BATCH_SIZE // 2,) + originals.shape[1:]),
            rng.random((BATCH_SIZE // 2,) + originals.shape[1:]),
        ]
    )

    def vectorized():
        return (
            match_reconstructions(originals, reconstructions),
            per_image_best_psnr(originals, reconstructions),
        )

    matches, per_image = benchmark.pedantic(vectorized, rounds=7, iterations=1)
    scalar_matches, scalar_per_image = _scalar_match(originals, reconstructions)
    assert [index for index, _ in matches] == [i for i, _ in scalar_matches]
    np.testing.assert_allclose(
        [score for _, score in matches],
        [score for _, score in scalar_matches],
        atol=1e-9,
    )
    np.testing.assert_allclose(per_image, scalar_per_image, atol=1e-9)

    scalar_s = best_of(lambda: _scalar_match(originals, reconstructions), 7)
    vectorized_s = best_of(vectorized, 7)
    average_s = best_of(lambda: average_attack_psnr(originals, reconstructions), 7)
    speedup = scalar_s / vectorized_s

    record_report(
        f"Attack eval — reconstruction matching ({BATCH_SIZE}x{BATCH_SIZE})",
        f"scalar O(RxB) loop  {1e3 * scalar_s:8.3f} ms\n"
        f"pairwise matrix     {1e3 * vectorized_s:8.3f} ms"
        f"   ({speedup:.1f}x, gate >= 5x)",
    )
    _finish(
        "matching",
        {
            "num_originals": len(originals),
            "num_reconstructions": len(reconstructions),
            "scalar_loop_s": scalar_s,
            "vectorized_s": vectorized_s,
            "average_attack_psnr_s": average_s,
            "speedup": speedup,
        },
        below("vectorized matching speedup", speedup, 5.0),
    )


def test_sweep_cells_per_sec(benchmark):
    dataset = imagenet_bench()
    runner = SweepRunner(
        dataset,
        attacks=("rtf", "cah"),
        defenses=("WO", "MR", "MR+SH"),
        scenarios=(
            FederationConfig("full", num_clients=2),
            FederationConfig("sampled", num_clients=4, clients_per_round=2),
        ),
        batch_size=8,
        num_neurons=64,
        public_size=128,
        seed=0,
    )
    start = time.perf_counter()
    outcome = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    num_cells = len(outcome.results)
    assert num_cells == 12
    cells_per_sec = num_cells / elapsed

    _RESULTS["sweep"] = {
        "num_cells": num_cells,
        "elapsed_s": elapsed,
        "cells_per_sec": cells_per_sec,
        "mean_psnr": {
            key: result["mean_psnr"] for key, result in outcome.results.items()
        },
    }
    record_report(
        "Attack eval — sweep throughput (2 attacks x 3 suites x 2 scenarios)",
        f"{num_cells} cells in {elapsed:.2f} s  ({cells_per_sec:.1f} cells/s)",
    )
    write_bench_json(JSON_PATH, _RESULTS)
