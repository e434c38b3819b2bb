"""Gradient computation: what an honest FL client uploads each round.

``compute_batch_gradients`` is the single chokepoint through which every
experiment obtains the summed/averaged batch gradients that the dishonest
server later inverts.  Keeping it tiny and shared guarantees the attacks see
exactly the same gradient algebra as honest training.
"""

from __future__ import annotations

import numpy as np

import repro.tensor.backend as backend
from repro.nn.module import Module
from repro.tensor import Tensor


def compute_batch_gradients(
    model: Module,
    loss_fn: Module,
    images: np.ndarray,
    labels: np.ndarray,
) -> tuple[dict[str, np.ndarray], float]:
    """Forward/backward on one batch; return (named gradients, loss value).

    The loss reduction (mean vs sum) is whatever ``loss_fn`` was built with;
    the reconstruction attacks are invariant to it because Eq. 6 divides two
    gradients carrying the same scale factor.
    """
    model.zero_grad()
    logits = model(Tensor(images))
    loss = loss_fn(logits, labels)
    loss.backward()
    # Fused kernels own their gradient buffers, so the dict can take the
    # arrays instead of copying them; the values are identical (the
    # reference mode keeps the pre-acceleration copy-out).
    return model.grad_dict(transfer=backend.FUSED), loss.item()


def clip_gradient_dict(
    gradients: dict[str, np.ndarray], clip_norm: float
) -> dict[str, np.ndarray]:
    """Scale a gradient dict so its global L2 norm is at most ``clip_norm``."""
    total = np.sqrt(sum(float(np.sum(g ** 2)) for g in gradients.values()))
    scale = min(1.0, clip_norm / max(total, 1e-12))
    return {name: g * scale for name, g in gradients.items()}


def compute_defended_update(
    model,
    loss_fn,
    images: np.ndarray,
    labels: np.ndarray,
    defense,
    rng: np.random.Generator,
) -> tuple[dict[str, np.ndarray], float, int, np.ndarray]:
    """The full client-side update pipeline with a defense attached.

    Applies every stage of the defense hook surface, in order: the batch
    hook (OASIS expansion / ATS replacement), gradient computation
    (per-sample clipped when the defense sets ``per_sample_clip``, plain
    batch otherwise), the gradient hook (pruning / update-level noising),
    and the finalize hook (batch-size-calibrated DP-SGD noise).  Returns
    (gradients, loss, original batch size, defended images): the last is
    the batch hook's output, the images the gradients were computed on.

    The reported example count is deliberately the *pre-expansion* batch
    size: OASIS expansion is a local privacy mechanism, not extra client
    data, so under example-weighted FedAvg a defended client must carry
    the same weight as an undefended one (reporting the expanded count
    would hand it 4-7x the influence).  The finalize hook still receives
    the expanded count, because noise calibration (DP-SGD's sigma*C/B)
    tracks the batch the gradients were actually averaged over.
    """
    num_examples = len(images)
    images, labels = defense.process_batch(images, labels, rng)
    if defense.per_sample_clip is not None:
        clipped = []
        losses = []
        for i in range(len(images)):
            grads, loss = compute_batch_gradients(
                model, loss_fn, images[i : i + 1], labels[i : i + 1]
            )
            clipped.append(clip_gradient_dict(grads, defense.per_sample_clip))
            losses.append(loss)
        gradients = average_gradients(clipped)
        loss_value = float(np.mean(losses))
    else:
        gradients, loss_value = compute_batch_gradients(
            model, loss_fn, images, labels
        )
    gradients = defense.process_gradients(gradients, rng)
    gradients = defense.finalize_update(gradients, len(images), rng)
    return gradients, loss_value, num_examples, images


def average_gradients(
    updates: list[dict[str, np.ndarray]],
    weights: list[float] | None = None,
) -> dict[str, np.ndarray]:
    """FedAvg aggregation of named gradient dicts (paper Eq. 1)."""
    if not updates:
        raise ValueError("no updates to aggregate")
    if weights is None:
        weights = [1.0] * len(updates)
    if len(weights) != len(updates):
        raise ValueError("weights/updates length mismatch")
    total = float(sum(weights))
    if total == 0.0:
        raise ValueError(
            "aggregation weights sum to zero; no update can carry the round"
        )
    aggregated = {
        name: np.zeros_like(value) for name, value in updates[0].items()
    }
    for update, weight in zip(updates, weights):
        if set(update) != set(aggregated):
            raise KeyError("updates carry mismatched parameter names")
        for name, value in update.items():
            aggregated[name] += (weight / total) * value
    return aggregated
