"""Core experiment runner: one attack/defense evaluation trial.

Every figure in the paper's evaluation reduces to repetitions of the same
protocol: craft a malicious model, let an honest client compute gradients
on a (possibly OASIS-expanded) batch, invert the gradients, and score the
reconstructions by best-match PSNR.  This module implements that protocol
once so the per-figure harnesses stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.attacks.base import ReconstructionResult
from repro.attacks.imprint import ImprintedModel
from repro.attacks.linear import LinearClassifier, LinearModelInversion
from repro.attacks.registry import ATTACKS, make_attack
from repro.data.loaders import class_balanced_batch
from repro.data.synthetic import SyntheticImageDataset
from repro.defense.base import ClientDefense, NoDefense
from repro.defense.registry import make_defense
from repro.experiments.sweep import worker_shared
from repro.fl.gradients import compute_defended_update
from repro.metrics.psnr import match_reconstructions, per_image_best_psnr
from repro.nn.losses import CrossEntropyLoss


@dataclass
class AttackTrialResult:
    """Scores of one attack trial against one batch."""

    attack: str
    defense: str
    batch_size: int
    num_neurons: int
    psnrs: list[float] = field(default_factory=list)
    per_image_best: np.ndarray = field(default_factory=lambda: np.zeros(0))
    num_reconstructions: int = 0

    @property
    def average_psnr(self) -> float:
        if not self.psnrs:
            return 0.0
        return float(np.mean(self.psnrs))


def average_psnr_task(payload: dict) -> float:
    """Picklable grid task of the Fig. 3/4 sweeps: one (n, B) cell.

    The payload holds :func:`average_over_trials` keyword arguments; the
    dataset is the run's shared object (see
    :func:`~repro.experiments.sweep.worker_shared`).  Returns the overall
    mean average-PSNR.
    """
    overall, _ = average_over_trials(worker_shared(), **payload)
    return float(overall)


def psnr_distribution_task(payload: dict) -> list[float]:
    """Picklable grid task of the Fig. 5/6 lineups: one defense arm.

    Returns the PSNRs of every reconstruction across ``num_trials``
    trials; the dataset is the run's shared object.
    """
    scores: list[float] = []
    for trial in range(payload["num_trials"]):
        trial_seed = payload["seed"] + 31 * trial
        result = run_attack_trial(
            worker_shared(),
            payload["attack"],
            payload["batch_size"],
            payload["num_neurons"],
            # A fresh, trial-seeded defense per trial: stochastic arms (DP
            # noise, transform-replace) must not thread one stream across
            # trials, or the distribution would depend on how many trials
            # ran before this one.
            defense=make_defense(payload["defense"], seed=trial_seed),
            seed=trial_seed,
        )
        scores.extend(result.psnrs)
    return [float(score) for score in scores]


def run_attack_trial(
    dataset: SyntheticImageDataset,
    attack_name: str,
    batch_size: int,
    num_neurons: int,
    defense: Optional[ClientDefense] = None,
    seed: int = 0,
) -> AttackTrialResult:
    """One full dishonest-server round against one client batch.

    The attacker calibrates on the first 200 dataset images (the
    standard public-prior assumption of RTF/CAH); the client batch is drawn
    with the trial seed, so trials are reproducible and independent.  An
    attack whose ``model_family`` is ``"linear"`` runs the Sec. IV-D
    protocol instead (:func:`run_linear_trial`; ``num_neurons`` unused).
    """
    if ATTACKS.get(attack_name).model_family == "linear":
        return run_linear_trial(dataset, batch_size, defense=defense, seed=seed)
    defense = defense if defense is not None else NoDefense()
    rng = np.random.default_rng((seed, batch_size, num_neurons))
    images, labels = dataset.sample_batch(min(batch_size, len(dataset)), rng)

    model = ImprintedModel(
        dataset.image_shape,
        num_neurons,
        dataset.num_classes,
        rng=np.random.default_rng(seed + 1),
    )
    attack = make_attack(
        attack_name, num_neurons, dataset.images[:200], seed=seed
    )
    attack.craft(model)

    gradients, _, _ = compute_defended_update(
        model, CrossEntropyLoss(), images, labels, defense, rng
    )
    result = attack.reconstruct(gradients)
    return _score(result, images, attack_name, defense.name, batch_size, num_neurons)


def run_linear_trial(
    dataset: SyntheticImageDataset,
    batch_size: int,
    defense: Optional[ClientDefense] = None,
    seed: int = 0,
) -> AttackTrialResult:
    """Sec. IV-D: gradient inversion on a single-layer logistic model.

    Batches are drawn with unique labels, per the experiment's assumption.
    """
    defense = defense if defense is not None else NoDefense()
    rng = np.random.default_rng((seed, batch_size))
    images, labels = class_balanced_batch(
        dataset, min(batch_size, dataset.num_classes), rng, unique_labels=True
    )
    model = LinearClassifier(
        dataset.image_shape, dataset.num_classes, rng=np.random.default_rng(seed + 1)
    )
    inversion = LinearModelInversion()
    inversion.craft(model)
    gradients, _, _ = compute_defended_update(
        model, CrossEntropyLoss(), images, labels, defense, rng
    )
    result = inversion.reconstruct(gradients)
    return _score(result, images, "linear", defense.name, batch_size, 0)


def _score(
    result: ReconstructionResult,
    originals: np.ndarray,
    attack: str,
    defense: str,
    batch_size: int,
    num_neurons: int,
) -> AttackTrialResult:
    psnrs = [score for _, score in match_reconstructions(originals, result.images)]
    return AttackTrialResult(
        attack=attack,
        defense=defense,
        batch_size=batch_size,
        num_neurons=num_neurons,
        psnrs=psnrs,
        per_image_best=per_image_best_psnr(originals, result.images),
        num_reconstructions=len(result),
    )


def average_over_trials(
    dataset: SyntheticImageDataset,
    attack_name: str,
    batch_size: int,
    num_neurons: int,
    defense: Optional[ClientDefense] = None,
    num_trials: int = 3,
    seed: int = 0,
) -> tuple[float, list[AttackTrialResult]]:
    """Mean average-PSNR over independent trials (fresh batch each trial)."""
    trials = [
        run_attack_trial(
            dataset,
            attack_name,
            batch_size,
            num_neurons,
            defense=defense,
            seed=seed + 31 * t,
        )
        for t in range(num_trials)
    ]
    averages = [t.average_psnr for t in trials if t.num_reconstructions > 0]
    overall = float(np.mean(averages)) if averages else 0.0
    return overall, trials
