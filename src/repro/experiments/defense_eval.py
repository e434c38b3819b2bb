"""Figures 5, 6, 13: per-transformation defensive performance.

Each experiment fixes the attack at its strongest (B, n) configuration from
the Fig. 3/4 sweeps and compares the PSNR distribution of reconstructions
under each OASIS transformation suite against the no-defense baseline (WO).
Fig. 13 is the same lineup with the ``"linear"`` attack, whose trials run
the Sec. IV-D single-layer protocol (``num_neurons`` is unused; pass 0).

Lineup arms are defense-registry spec strings
(:mod:`repro.defense.registry`), so beyond the paper's suite lineups any
registered baseline (``"dpsgd"``, ``"prune"``, ``"ats"``) or composed
stack (``"MR>dpsgd"``) slots straight into a lineup tuple; stochastic arms
are re-seeded per trial from the trial seed, keeping cached distributions
order-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import SyntheticImageDataset
from repro.experiments.reporting import format_table
from repro.experiments.runner import psnr_distribution_task
from repro.experiments.sweep import (
    SweepStore,
    dataset_fingerprint,
    is_failure,
    make_executor,
    run_tasks,
)

# The paper's strongest-attack settings (read off Figs. 3-4, Sec. IV-A).
PAPER_SETTINGS = {
    ("rtf", "imagenet"): {8: 900, 64: 800},
    ("rtf", "cifar100"): {8: 500, 64: 600},
    ("cah", "imagenet"): {8: 100, 64: 700},
    ("cah", "cifar100"): {8: 300, 64: 600},
}

FIG5_LINEUP = ("WO", "MR", "mR", "SH", "HFlip", "VFlip")
FIG6_LINEUP = ("WO", "SH", "MR", "MR+SH")
FIG13_LINEUP = ("WO", "MR", "mR", "SH", "HFlip", "VFlip")


@dataclass
class DefenseLineupResult:
    """PSNR distributions per defense arm for one (attack, B, n) setting."""

    attack: str
    dataset: str
    batch_size: int
    num_neurons: int
    distributions: dict[str, np.ndarray]
    # defense name -> structured error for arms that failed; their
    # distributions are empty.  Failures are never cached, so the next
    # run retries them.
    errors: dict[str, dict] = field(default_factory=dict)

    def averages(self) -> dict[str, float]:
        return {
            name: (float(np.mean(values)) if len(values) else 0.0)
            for name, values in self.distributions.items()
        }

    def to_table(self) -> str:
        rows = []
        for name, values in self.distributions.items():
            if len(values) == 0:
                rows.append([name, 0, "-", "-", "-", "-"])
                continue
            rows.append(
                [
                    name,
                    len(values),
                    f"{np.mean(values):.1f}",
                    f"{np.median(values):.1f}",
                    f"{np.min(values):.1f}",
                    f"{np.max(values):.1f}",
                ]
            )
        return format_table(
            ["defense", "#recon", "mean", "median", "min", "max"], rows
        )


def run_defense_lineup(
    dataset: SyntheticImageDataset,
    attack_name: str,
    batch_size: int,
    num_neurons: int,
    lineup: tuple[str, ...],
    num_trials: int = 2,
    seed: int = 0,
    store: "SweepStore | None" = None,
    workers: int = 1,
) -> DefenseLineupResult:
    """One panel of Fig. 5 (RTF), 6 (CAH) or 13 (linear): PSNRs per arm.

    With a :class:`~repro.experiments.SweepStore`, each defense arm's PSNR
    distribution is cached so interrupted lineups resume where they left
    off.  ``workers > 1`` evaluates the pending arms concurrently over
    worker processes, persisting each arm as it arrives, with identical
    results to the serial path.  A failed arm lands in
    :attr:`DefenseLineupResult.errors` with an empty distribution instead
    of killing the lineup.
    """
    data_key = f"{dataset.name}:{dataset_fingerprint(dataset)}"
    tasks = [
        (
            f"fig56|{attack_name}|{data_key}|B{batch_size}"
            f"|n{num_neurons}|{defense_name}|t{num_trials}|s{seed}",
            psnr_distribution_task,
            {
                "attack": attack_name,
                "batch_size": batch_size,
                "num_neurons": num_neurons,
                "defense": defense_name,
                "num_trials": num_trials,
                "seed": seed,
            },
        )
        for defense_name in lineup
    ]
    store = store if store is not None else SweepStore()
    executions = run_tasks(tasks, store, make_executor(workers), shared=dataset)
    distributions: dict[str, np.ndarray] = {}
    errors: dict[str, dict] = {}
    for defense_name, execution in zip(lineup, executions):
        if is_failure(execution.result):
            distributions[defense_name] = np.array([])
            errors[defense_name] = execution.result["error"]
        else:
            distributions[defense_name] = np.array(execution.result)
    return DefenseLineupResult(
        attack=attack_name,
        dataset=dataset.name,
        batch_size=batch_size,
        num_neurons=num_neurons,
        distributions=distributions,
        errors=errors,
    )
