"""Attack zoo bench: every registered attack through the full protocol.

One dishonest-server round per (attack, defense) pair on the CIFAR100
stand-in, undefended vs OASIS MR+SH, recording reconstruction counts,
mean/max PSNR, and per-cell wall-clock.  Two claims are gated:

1. **Attack power** — undefended, every imprint-family attack (and the
   linear inversion) recovers at least one image above 18 dB; the
   imprint attacks recover at least one verbatim (>100 dB).
2. **Defense value** — under MR+SH every attack's count of >18 dB matches
   drops below its undefended count (the paper's Fig. 5/6 trend extended
   to the QBI and LOKI workloads).

Results land in ``BENCH_attack_zoo.json`` next to this file, with a
``"failed_gates"`` list, before the bench asserts that the list is empty.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_attack_zoo.py --benchmark-only
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import bench_rng, cifar100_bench, record_report, write_bench_json
from repro.attacks import ATTACKS, ImprintedModel, LinearClassifier, make_attack
from repro.defense import OasisDefense
from repro.experiments import format_table
from repro.fl import compute_batch_gradients
from repro.metrics import per_image_best_psnr
from repro.nn import CrossEntropyLoss

JSON_PATH = Path(__file__).parent / "BENCH_attack_zoo.json"

BATCH_SIZE = 8
NUM_NEURONS = 128
MATCH_DB = 18.0


def _one_round(attack_name: str, defense):
    dataset = cifar100_bench()
    attack = make_attack(
        attack_name, NUM_NEURONS, dataset.images[:128], seed=7
    )
    if attack.model_family == "linear":
        model = LinearClassifier(
            dataset.image_shape, dataset.num_classes,
            rng=bench_rng(11),
        )
    else:
        model = ImprintedModel(
            dataset.image_shape, NUM_NEURONS, dataset.num_classes,
            rng=bench_rng(11),
        )
    attack.craft(model)
    rng = bench_rng(12345)
    images, labels = dataset.sample_batch(BATCH_SIZE, rng)
    if defense is not None:
        train_images, train_labels = defense.expand_batch(images, labels)
    else:
        train_images, train_labels = images, labels
    start = time.perf_counter()
    grads, _ = compute_batch_gradients(
        model, CrossEntropyLoss(), train_images, train_labels
    )
    result = attack.reconstruct(grads)
    elapsed = time.perf_counter() - start
    best = (
        per_image_best_psnr(images, result.images)
        if len(result)
        else np.zeros(BATCH_SIZE)
    )
    return {
        "num_reconstructions": int(len(result)),
        "matches_over_18db": int((best > MATCH_DB).sum()),
        "best_psnr": float(best.max()) if len(best) else 0.0,
        "seconds": elapsed,
        "reason": result.reason,
    }


def test_attack_zoo_grid(benchmark):
    cells = benchmark.pedantic(
        lambda: {
            name: {
                "WO": _one_round(name, None),
                "MR+SH": _one_round(name, OasisDefense("MR+SH")),
            }
            for name in ATTACKS.names()
        },
        rounds=1,
        iterations=1,
    )

    rows = []
    failed_gates = []
    for name, arms in cells.items():
        rows.append([
            name,
            f"{arms['WO']['matches_over_18db']}/{BATCH_SIZE}",
            f"{arms['WO']['best_psnr']:.1f}",
            f"{arms['MR+SH']['matches_over_18db']}/{BATCH_SIZE}",
            f"{arms['WO']['seconds'] * 1e3:.0f}ms",
        ])
        # Gate 1: the attack works when nothing defends.
        if arms["WO"]["matches_over_18db"] < 1:
            failed_gates.append(f"{name}: no undefended match above {MATCH_DB} dB")
        if (
            ATTACKS.get(name).model_family == "imprint"
            and arms["WO"]["best_psnr"] <= 100.0
        ):
            failed_gates.append(f"{name}: no verbatim undefended reconstruction")
        # Gate 2: MR+SH drops the match rate.
        if (
            arms["MR+SH"]["matches_over_18db"]
            >= arms["WO"]["matches_over_18db"]
        ):
            failed_gates.append(f"{name}: MR+SH did not drop the match rate")

    table = format_table(
        ["attack", "WO >18dB", "WO best", "MR+SH >18dB", "round"], rows
    )
    record_report("Attack zoo: undefended vs OASIS MR+SH", table)
    write_bench_json(
        JSON_PATH,
        {
            "batch_size": BATCH_SIZE,
            "num_neurons": NUM_NEURONS,
            "match_threshold_db": MATCH_DB,
            "cells": cells,
            "failed_gates": failed_gates,
        },
    )
    assert not failed_gates, "; ".join(failed_gates)
