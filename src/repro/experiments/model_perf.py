"""Table I: model accuracy when training with and without OASIS.

The paper trains ResNet-18 with Adam (lr 1e-3; weight decay 1e-5 on the
ImageNet subset, 1e-2 on CIFAR100) and reports final test accuracy per
transformation.  Expected shape: OASIS costs at most a point or two of
accuracy (and sometimes helps), because augmentation was designed to aid
generalization.

The harness keeps the *batch stream identical* across arms (same loader
seed), so the only difference between "WO" and a transformation arm is the
OASIS expansion — a controlled comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.data.loaders import DataLoader
from repro.data.synthetic import SyntheticImageDataset
from repro.defense.base import ClientDefense, NoDefense
from repro.defense.registry import make_defense
from repro.experiments.reporting import format_table
from repro.metrics.accuracy import model_accuracy
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.tensor import Tensor

TABLE1_LINEUP = ("MR", "mR", "SH", "HFlip", "VFlip", "MR+SH", "WO")


@dataclass
class TrainingOutcome:
    defense: str
    test_accuracy: float
    train_losses: list[float]


def train_with_defense(
    train_set: SyntheticImageDataset,
    test_set: SyntheticImageDataset,
    model_factory: Callable[[], Module],
    defense: Optional[ClientDefense] = None,
    epochs: int = 8,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    weight_decay: float = 1e-5,
    loader_seed: int = 0,
) -> TrainingOutcome:
    """Train one arm of Table I and return its final test accuracy."""
    defense = defense if defense is not None else NoDefense()
    model = model_factory()
    optimizer = Adam(model.parameters(), lr=learning_rate, weight_decay=weight_decay)
    loss_fn = CrossEntropyLoss()
    loader = DataLoader(train_set, batch_size=batch_size, shuffle=True, seed=loader_seed)
    rng = np.random.default_rng(loader_seed)
    losses = []
    for _ in range(epochs):
        epoch_loss = 0.0
        for images, labels in loader:
            images, labels = defense.process_batch(images, labels, rng)
            optimizer.zero_grad()
            loss = loss_fn(model(Tensor(images)), labels)
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
        losses.append(epoch_loss / max(len(loader), 1))
    return TrainingOutcome(
        defense=defense.name,
        test_accuracy=model_accuracy(model, test_set, batch_size=128),
        train_losses=losses,
    )


def run_table1(
    train_set: SyntheticImageDataset,
    test_set: SyntheticImageDataset,
    model_factory: Callable[[], Module],
    lineup: tuple[str, ...] = TABLE1_LINEUP,
    epochs: int = 8,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    weight_decay: float = 1e-5,
    seed: int = 0,
) -> dict[str, TrainingOutcome]:
    """All arms of one Table I column (one dataset)."""
    outcomes = {}
    for name in lineup:
        defense = make_defense(name)
        outcomes[name] = train_with_defense(
            train_set,
            test_set,
            model_factory,
            defense=defense,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            weight_decay=weight_decay,
            loader_seed=seed,
        )
    return outcomes


def table1_report(outcomes: dict[str, TrainingOutcome]) -> str:
    """Render Table I: per-arm accuracy with deltas against the WO baseline."""
    baseline = outcomes.get("WO")
    rows = []
    for name, outcome in outcomes.items():
        delta = (
            outcome.test_accuracy - baseline.test_accuracy if baseline else float("nan")
        )
        rows.append(
            [
                name,
                f"{100 * outcome.test_accuracy:.1f}",
                f"{100 * delta:+.1f}" if baseline else "-",
                f"{outcome.train_losses[-1]:.3f}" if outcome.train_losses else "-",
            ]
        )
    return format_table(
        ["transformation", "test acc (%)", "delta vs WO", "final loss"], rows
    )
