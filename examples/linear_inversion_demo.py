"""Sec. IV-D demo: gradient inversion on a single-layer logistic model.

In the most restrictive setting — a one-layer model trained with logistic
loss, one image per class in the batch — the server inverts each class row
of the uploaded gradients directly (no malicious layer needed).  OASIS
still applies: transformed copies share their original's label, so every
class row mixes the image with its transforms by construction.

Run:  python examples/linear_inversion_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.attacks import LinearClassifier, LinearModelInversion
from repro.data import class_balanced_batch, synthetic_cifar100
from repro.defense import OasisDefense
from repro.experiments import format_table, render_ascii_image, side_by_side
from repro.fl import compute_batch_gradients
from repro.metrics import best_match_psnr
from repro.nn import CrossEntropyLoss

BATCH_SIZE = 8
SEED = 19


def invert(model, inversion, images, labels, defense=None):
    if defense is not None:
        images, labels = defense.expand_batch(images, labels)
    gradients, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
    return inversion.reconstruct(gradients)


def main() -> None:
    print(__doc__)
    dataset = synthetic_cifar100(samples_per_class=4)
    rng = np.random.default_rng(SEED)
    images, labels = class_balanced_batch(dataset, BATCH_SIZE, rng)
    model = LinearClassifier(
        dataset.image_shape, dataset.num_classes, rng=np.random.default_rng(SEED)
    )
    inversion = LinearModelInversion()
    inversion.craft(model)

    rows = []
    galleries = {}
    for label, defense in (
        ("WO", None),
        ("MR", OasisDefense("MR")),
        ("SH", OasisDefense("SH")),
        ("HFlip", OasisDefense("HFlip")),
    ):
        result = invert(model, inversion, images, labels, defense)
        scores = [best_match_psnr(images, recon)[0] for recon in result.images]
        rows.append([label, len(result), f"{np.mean(scores):.1f}",
                     f"{np.max(scores):.1f}"])
        galleries[label] = result

    print(format_table(
        ["defense", "#recon", "mean PSNR (dB)", "max PSNR (dB)"], rows
    ))

    print("\nClass-row reconstruction, original (left) vs WO (middle) vs MR (right):")
    original = images[0]
    wo_best = max(
        galleries["WO"].images, key=lambda r: best_match_psnr(images[:1], r)[0]
    )
    mr_best = max(
        galleries["MR"].images, key=lambda r: best_match_psnr(images[:1], r)[0]
    )
    print(
        side_by_side(
            side_by_side(
                render_ascii_image(original, width=24),
                render_ascii_image(wo_best, width=24),
            ),
            render_ascii_image(mr_best, width=24),
        )
    )


if __name__ == "__main__":
    main()
