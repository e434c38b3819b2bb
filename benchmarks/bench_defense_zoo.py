"""Defense zoo bench: registry arms and composed stacks, full protocol.

One dishonest-server round per (imprint attack, defense arm) on the
CIFAR100 stand-in, with the defense applied through the real client-side
pipeline (``compute_defended_update`` — batch hooks, per-sample clipping
when the arm requests it, finalize noise).  Arms cover the registry's
families — no defense, OASIS suites, DP-SGD, pruning — plus two composed
stacks: the paper's Sec. V OASIS+DP composition (``MR>dpsgd``) and a
both-components-leak stack (``HFlip>prune(prune_fraction=0.5)``) chosen so
every component still reconstructs something on every imprint attack,
making the strict composition comparison meaningful.

Gates, per imprint attack:

1. **Attack power** — undefended mean match PSNR above 18 dB.
2. **Components weaken** — the MR and dpsgd arms each score a strictly
   lower mean match PSNR than the undefended run.
3. **Composition beats the weakest component (strict)** — the
   ``HFlip>prune(prune_fraction=0.5)`` cell scores strictly below its
   weakest (highest-PSNR) component arm alone.
4. **OASIS+DP never costs protection** — ``MR>dpsgd`` scores at or below
   its weakest component, strictly below whenever that component still
   leaks (DP-SGD noise already drives the trap attacks to zero
   reconstructions, where "strictly lower than zero" has no meaning).
5. **FedAvg parity** — every arm reports the pre-expansion batch size.

Results land in ``BENCH_defense_zoo.json`` next to this file, with a
``"failed_gates"`` list, before the bench asserts that the list is empty.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_defense_zoo.py --benchmark-only
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import bench_rng, cifar100_bench, record_report, write_bench_json
from repro.attacks import ImprintedModel, make_attack
from repro.defense import make_defense
from repro.experiments import format_table
from repro.fl import compute_defended_update
from repro.metrics import match_reconstructions
from repro.nn import CrossEntropyLoss

JSON_PATH = Path(__file__).parent / "BENCH_defense_zoo.json"

BATCH_SIZE = 8
NUM_NEURONS = 128
IMPRINT_ATTACKS = ("rtf", "cah", "qbi")

STRICT_COMPOSED = "HFlip>prune(prune_fraction=0.5)"
STRICT_COMPONENTS = ("HFlip", "prune(prune_fraction=0.5)")
OASIS_DP_COMPOSED = "MR>dpsgd"
OASIS_DP_COMPONENTS = ("MR", "dpsgd")

DEFENSE_ARMS = (
    "WO",
    "MR",
    "dpsgd",
    "HFlip",
    "prune(prune_fraction=0.5)",
    OASIS_DP_COMPOSED,
    STRICT_COMPOSED,
)


def _one_round(attack_name: str, defense_spec: str) -> dict:
    dataset = cifar100_bench()
    attack = make_attack(
        attack_name, NUM_NEURONS, dataset.images[:128], seed=7
    )
    model = ImprintedModel(
        dataset.image_shape, NUM_NEURONS, dataset.num_classes,
        rng=bench_rng(11),
    )
    attack.craft(model)
    defense = make_defense(defense_spec, seed=7)
    rng = bench_rng(12345)
    images, labels = dataset.sample_batch(BATCH_SIZE, rng)
    start = time.perf_counter()
    grads, _, num_examples, _ = compute_defended_update(
        model, CrossEntropyLoss(), images, labels, defense, rng
    )
    result = attack.reconstruct(grads)
    elapsed = time.perf_counter() - start
    scores = [
        score for _, score in match_reconstructions(images, result.images)
    ]
    return {
        "num_reconstructions": int(len(result)),
        "mean_match_psnr": float(np.mean(scores)) if scores else 0.0,
        "max_match_psnr": float(np.max(scores)) if scores else 0.0,
        "reported_examples": int(num_examples),
        "seconds": elapsed,
        "reason": result.reason,
    }


def test_defense_zoo_grid(benchmark):
    cells = benchmark.pedantic(
        lambda: {
            attack: {arm: _one_round(attack, arm) for arm in DEFENSE_ARMS}
            for attack in IMPRINT_ATTACKS
        },
        rounds=1,
        iterations=1,
    )

    rows = []
    failed_gates = []
    for attack, arms in cells.items():
        psnr = {arm: arms[arm]["mean_match_psnr"] for arm in DEFENSE_ARMS}
        rows.append([attack] + [f"{psnr[arm]:.1f}" for arm in DEFENSE_ARMS])
        # Gate 5: every arm reports the pre-expansion FedAvg weight.
        for arm in DEFENSE_ARMS:
            if arms[arm]["reported_examples"] != BATCH_SIZE:
                failed_gates.append(f"{attack}/{arm}: FedAvg weight is not B")
        # Gate 1: the attack works when undefended.
        if psnr["WO"] <= 18.0:
            failed_gates.append(f"{attack}: undefended PSNR not above 18 dB")
        # Gate 2: each paper-lineup component alone weakens the attack.
        for component in OASIS_DP_COMPONENTS:
            if psnr[component] >= psnr["WO"]:
                failed_gates.append(f"{attack}/{component}: did not weaken")
        # Gate 3 (the acceptance gate): the both-components-leak stack
        # scores strictly below its weakest component alone.
        strict_weakest = max(psnr[c] for c in STRICT_COMPONENTS)
        for component in STRICT_COMPONENTS:
            if psnr[component] <= 0.0:
                failed_gates.append(f"{attack}/{component}: leaks nothing")
        if psnr[STRICT_COMPOSED] >= strict_weakest:
            failed_gates.append(f"{attack}: {STRICT_COMPOSED} not below its weakest")
        # Gate 4: OASIS+DP composition never costs protection.
        oasis_dp_weakest = max(psnr[c] for c in OASIS_DP_COMPONENTS)
        if oasis_dp_weakest > 0.0:
            if psnr[OASIS_DP_COMPOSED] >= oasis_dp_weakest:
                failed_gates.append(
                    f"{attack}: {OASIS_DP_COMPOSED} not below its weakest"
                )
        elif psnr[OASIS_DP_COMPOSED] != 0.0:
            failed_gates.append(f"{attack}: {OASIS_DP_COMPOSED} leaks")

    table = format_table(["attack"] + list(DEFENSE_ARMS), rows)
    record_report(
        "Defense zoo: mean match PSNR per arm (composed stacks last)", table
    )
    write_bench_json(
        JSON_PATH,
        {
            "batch_size": BATCH_SIZE,
            "num_neurons": NUM_NEURONS,
            "defense_arms": list(DEFENSE_ARMS),
            "strict_composed": {
                "arm": STRICT_COMPOSED,
                "components": list(STRICT_COMPONENTS),
            },
            "oasis_dp_composed": {
                "arm": OASIS_DP_COMPOSED,
                "components": list(OASIS_DP_COMPONENTS),
            },
            "cells": cells,
            "failed_gates": failed_gates,
        },
    )
    assert not failed_gates, "; ".join(failed_gates)
