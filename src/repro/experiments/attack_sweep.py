"""Figures 3 & 4: attack-strength sweep over batch size and attacked neurons.

The paper tunes each attack to its strongest configuration by sweeping the
batch size B in {8..256} and the number of attacked neurons n in
{100..1000}, reporting the average PSNR of reconstructions without any
defense.  The expected shape: PSNR falls as B grows (more gradient mixing)
and generally rises with n (more bins/traps), with the per-B optimum read
off the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import SyntheticImageDataset
from repro.experiments.reporting import format_table
from repro.experiments.runner import average_psnr_task
from repro.experiments.sweep import (
    SweepStore,
    dataset_fingerprint,
    is_failure,
    make_executor,
    run_tasks,
)

PAPER_BATCH_SIZES = (8, 16, 32, 64, 96, 128, 160, 192, 224, 256)
PAPER_NEURON_COUNTS = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)


@dataclass
class SweepResult:
    """Average-PSNR grid indexed by (neuron count, batch size)."""

    attack: str
    dataset: str
    batch_sizes: tuple[int, ...]
    neuron_counts: tuple[int, ...]
    grid: np.ndarray  # shape (len(neuron_counts), len(batch_sizes))
    optima: dict[int, tuple[int, float]] = field(default_factory=dict)
    # (neuron_count, batch_size) -> structured error for cells that failed;
    # their grid entries are NaN.  Failures are never cached, so the next
    # run retries them.
    errors: dict[tuple[int, int], dict] = field(default_factory=dict)

    def compute_optima(self) -> None:
        """Per batch size, the neuron count with the highest average PSNR.

        NaN cells (batch larger than the dataset, or a failed evaluation)
        never win: columns use ``nanargmax``, and a column with no finite
        entry gets no optimum at all.
        """
        for j, batch_size in enumerate(self.batch_sizes):
            column = self.grid[:, j]
            if np.all(np.isnan(column)):
                continue
            best_i = int(np.nanargmax(column))
            self.optima[batch_size] = (
                self.neuron_counts[best_i],
                float(self.grid[best_i, j]),
            )

    def to_table(self) -> str:
        headers = ["n \\ B"] + [str(b) for b in self.batch_sizes]
        rows = []
        for i, n in enumerate(self.neuron_counts):
            rows.append([str(n)] + [f"{v:.1f}" for v in self.grid[i]])
        return format_table(headers, rows)


def run_sweep(
    dataset: SyntheticImageDataset,
    attack_name: str,
    batch_sizes: tuple[int, ...] = PAPER_BATCH_SIZES,
    neuron_counts: tuple[int, ...] = PAPER_NEURON_COUNTS,
    num_trials: int = 2,
    seed: int = 0,
    store: "SweepStore | None" = None,
    workers: int = 1,
) -> SweepResult:
    """Reproduce one panel of Fig. 3 (RTF) or Fig. 4 (CAH).

    Pass a :class:`~repro.experiments.SweepStore` to make the (n, B) grid
    resumable: each finished cell is persisted under a key derived from the
    full configuration, so re-running after an interruption only computes
    the missing cells.  ``workers > 1`` fans the pending cells out over
    worker processes, and this process persists each cell as it arrives;
    each cell's trials are seeded by its configuration, so serial and
    parallel grids are identical.  A failed cell lands in :attr:`SweepResult.errors` with
    a NaN grid entry instead of killing the sweep.
    """
    data_key = f"{dataset.name}:{dataset_fingerprint(dataset)}"
    # A batch larger than the dataset has no cell; its entries stay NaN.
    cells = [
        (i, j)
        for i in range(len(neuron_counts))
        for j in range(len(batch_sizes))
        if batch_sizes[j] <= len(dataset)
    ]
    tasks = [
        (
            f"fig34|{attack_name}|{data_key}|n{neuron_counts[i]}"
            f"|B{batch_sizes[j]}|t{num_trials}|s{seed}",
            average_psnr_task,
            {
                "attack": attack_name,
                "batch_size": batch_sizes[j],
                "num_neurons": neuron_counts[i],
                "defense": "WO",
                "num_trials": num_trials,
                "seed": seed,
            },
        )
        for i, j in cells
    ]
    store = store if store is not None else SweepStore()
    executions = run_tasks(tasks, store, make_executor(workers), shared=dataset)
    grid = np.full((len(neuron_counts), len(batch_sizes)), np.nan)
    errors: dict[tuple[int, int], dict] = {}
    for (i, j), execution in zip(cells, executions):
        if is_failure(execution.result):
            errors[(neuron_counts[i], batch_sizes[j])] = execution.result["error"]
        else:
            grid[i, j] = execution.result
    result = SweepResult(
        attack=attack_name,
        dataset=dataset.name,
        batch_sizes=tuple(batch_sizes),
        neuron_counts=tuple(neuron_counts),
        grid=grid,
        errors=errors,
    )
    result.compute_optima()
    return result


def monotone_in_batch_size(result: SweepResult) -> float:
    """Fraction of neuron rows whose PSNR trend decreases from B_min to B_max.

    The paper's stated shape: "reconstruction attacks perform worse with
    larger batch sizes".  1.0 means every row agrees end-to-end.
    """
    first = result.grid[:, 0]
    last = result.grid[:, -1]
    valid = ~(np.isnan(first) | np.isnan(last))
    if not valid.any():
        return 0.0
    return float(np.mean(first[valid] > last[valid]))
