"""Figure 14: RTF defeats the ATSPrivacy-style transform-replace defense.

Gao et al. (CVPR 2021) defend optimization-based attacks by *replacing*
each training image with a transformed version.  The OASIS paper shows that
active attacks still win: a replaced image can be the sole activator of an
attacked neuron, so it is reconstructed verbatim — the attacker sees the
(transformed) training image and its content is revealed.

The quantitative signature reproduced here: under transform-replace, the
attack's reconstructions match the *client's actual training inputs* (the
transformed images) at perfect-reconstruction PSNR, whereas under OASIS
they match nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.imprint import ImprintedModel
from repro.attacks.registry import make_attack
from repro.data.synthetic import SyntheticImageDataset
from repro.defense.baselines import TransformReplaceDefense
from repro.defense.oasis import OasisDefense
from repro.fl.gradients import compute_batch_gradients
from repro.metrics.psnr import average_attack_psnr
from repro.nn.losses import CrossEntropyLoss


@dataclass
class ATSComparisonResult:
    """PSNR of RTF reconstructions vs the client's actual training inputs."""

    ats_vs_training_inputs: float
    ats_vs_originals: float
    oasis_vs_training_inputs: float
    oasis_vs_originals: float
    num_ats_reconstructions: int
    num_oasis_reconstructions: int


def run_ats_comparison(
    dataset: SyntheticImageDataset,
    batch_size: int = 8,
    num_neurons: int = 500,
    suite_name: str = "MR",
    seed: int = 0,
) -> ATSComparisonResult:
    """RTF against transform-replace (ATS) and against OASIS, same batch."""
    rng = np.random.default_rng((seed, batch_size))
    images, labels = dataset.sample_batch(min(batch_size, len(dataset)), rng)
    model = ImprintedModel(
        dataset.image_shape,
        num_neurons,
        dataset.num_classes,
        rng=np.random.default_rng(seed + 1),
    )
    attack = make_attack("rtf", num_neurons, dataset.images[:200], seed=seed)
    attack.craft(model)
    loss_fn = CrossEntropyLoss()

    # --- ATSPrivacy-style: replace every image with a transformed version.
    ats = TransformReplaceDefense(suite_name)
    ats.reseed(seed)
    ats_rng = np.random.default_rng(seed)
    ats_images, ats_labels = ats.process_batch(images, labels, ats_rng)
    gradients, _ = compute_batch_gradients(model, loss_fn, ats_images, ats_labels)
    ats_result = attack.reconstruct(gradients)

    # --- OASIS: union the transforms in (Eq. 7).
    oasis = OasisDefense(suite_name)
    oasis_images, oasis_labels = oasis.expand_batch(images, labels)
    gradients, _ = compute_batch_gradients(model, loss_fn, oasis_images, oasis_labels)
    oasis_result = attack.reconstruct(gradients)

    return ATSComparisonResult(
        ats_vs_training_inputs=average_attack_psnr(ats_images, ats_result.images),
        ats_vs_originals=average_attack_psnr(images, ats_result.images),
        oasis_vs_training_inputs=average_attack_psnr(oasis_images, oasis_result.images),
        oasis_vs_originals=average_attack_psnr(images, oasis_result.images),
        num_ats_reconstructions=len(ats_result),
        num_oasis_reconstructions=len(oasis_result),
    )
