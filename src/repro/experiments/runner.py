"""Core experiment runner: the one attack trial every figure is a view of.

Every figure in the paper's evaluation reduces to repetitions of the same
protocol: craft a malicious model, let an honest client compute gradients
on a (possibly OASIS-expanded) batch, invert the gradients, and score the
reconstructions.  :func:`run_trial` implements that protocol once and
returns its raw material — the client's batch, the defended batch the
gradients came from, and the reconstruction.  Everything else reads it:
:func:`run_attack_trial` scores it by best-match PSNR (Figs. 2-6, 13 and
the ablations), :func:`~repro.experiments.visual.reconstruction_gallery`
pairs it into galleries (Figs. 7-12), and
:func:`~repro.experiments.ats_comparison.run_ats_comparison` holds two
defenses on one seed (Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.attacks.base import ReconstructionResult
from repro.attacks.registry import ATTACKS, make_attack, model_for
from repro.data.loaders import class_balanced_batch
from repro.data.synthetic import SyntheticImageDataset
from repro.defense.base import ClientDefense, NoDefense
from repro.defense.registry import make_defense
from repro.experiments.sweep import worker_shared
from repro.fl.gradients import compute_defended_update
from repro.metrics.psnr import match_reconstructions, per_image_best_psnr
from repro.nn.losses import CrossEntropyLoss


@dataclass(frozen=True)
class Trial:
    """One dishonest-server round against one client batch, unscored."""

    images: np.ndarray  # the client's batch, as sampled
    defended_images: np.ndarray  # the batch hook's output: what was trained on
    result: ReconstructionResult


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


def run_trial(
    dataset: SyntheticImageDataset,
    attack_name: str,
    batch_size: int,
    num_neurons: int,
    defense: ClientDefense,
    seed: int,
) -> Trial:
    """Sample a batch, craft, defend, compute the update, and invert it.

    The attacker calibrates on the first 200 dataset images (the standard
    public-prior assumption of RTF/CAH) and attacks the model
    :func:`~repro.attacks.registry.model_for` builds at ``seed``.  The
    client batch draws from ``default_rng((seed, batch_size,
    num_neurons))``, whose stream the defense then continues.  A
    linear-family attack runs Sec. IV-D instead: its batch carries unique
    labels and draws from ``default_rng((seed, batch_size))``.
    """
    if ATTACKS.get(attack_name).model_family == "linear":
        rng = np.random.default_rng((seed, batch_size))
        images, labels = class_balanced_batch(
            dataset, min(batch_size, dataset.num_classes), rng
        )
    else:
        rng = np.random.default_rng((seed, batch_size, num_neurons))
        images, labels = dataset.sample_batch(min(batch_size, len(dataset)), rng)
    model = model_for(attack_name, dataset, num_neurons, seed)
    attack = make_attack(attack_name, num_neurons, dataset.images[:200], seed=seed)
    attack.craft(model)
    gradients, _, _, defended_images = compute_defended_update(
        model, CrossEntropyLoss(), images, labels, defense, rng
    )
    return Trial(images, defended_images, attack.reconstruct(gradients))


def run_attack_trial(
    dataset: SyntheticImageDataset,
    attack_name: str,
    batch_size: int,
    num_neurons: int,
    defense: Optional[ClientDefense] = None,
    seed: int = 0,
) -> AttackTrialResult:
    """One :func:`run_trial`, each reconstruction scored by best-match PSNR."""
    defense = defense if defense is not None else NoDefense()
    trial = run_trial(dataset, attack_name, batch_size, num_neurons, defense, seed)
    reconstructions = trial.result.images
    return AttackTrialResult(
        attack=attack_name,
        defense=defense.name,
        batch_size=batch_size,
        num_neurons=num_neurons,
        psnrs=[
            score for _, score in match_reconstructions(trial.images, reconstructions)
        ],
        per_image_best=per_image_best_psnr(trial.images, reconstructions),
        num_reconstructions=len(trial.result),
    )


def _repeated_trials(payload: dict) -> list[AttackTrialResult]:
    """``num_trials`` independent trials of one grid task, seeded ``seed + 31 t``.

    Each trial gets a fresh defense seeded by its trial seed: stochastic
    arms (DP noise, transform-replace) must not thread one stream across
    trials, or a result would depend on how many trials ran before it.
    The dataset is the run's shared object (see
    :func:`~repro.experiments.sweep.worker_shared`).
    """
    seeds = range(payload["seed"], payload["seed"] + 31 * payload["num_trials"], 31)
    return [
        run_attack_trial(
            worker_shared(),
            payload["attack"],
            payload["batch_size"],
            payload["num_neurons"],
            defense=make_defense(payload["defense"], seed=trial_seed),
            seed=trial_seed,
        )
        for trial_seed in seeds
    ]


def average_psnr_task(payload: dict) -> float:
    """Picklable grid task of the Fig. 3/4 sweeps: one (n, B) cell.

    Returns the mean, over the trials that reconstructed anything, of each
    trial's average PSNR (0.0 when none did).
    """
    averages = [
        trial.average_psnr
        for trial in _repeated_trials(payload)
        if trial.num_reconstructions > 0
    ]
    return float(np.mean(averages)) if averages else 0.0


def psnr_distribution_task(payload: dict) -> list[float]:
    """Picklable grid task of the Fig. 5/6/13 lineups: one defense arm.

    Returns the PSNRs of every reconstruction across ``num_trials`` trials.
    """
    return [
        float(score) for trial in _repeated_trials(payload) for score in trial.psnrs
    ]
