"""Figure 14: RTF defeats the ATSPrivacy-style transform-replace defense.

Gao et al. (CVPR 2021) defend optimization-based attacks by *replacing*
each training image with a transformed version.  The OASIS paper shows that
active attacks still win: a replaced image can be the sole activator of an
attacked neuron, so it is reconstructed verbatim — the attacker sees the
(transformed) training image and its content is revealed.

The quantitative signature reproduced here: under transform-replace, the
attack's reconstructions match the *client's actual training inputs* (the
transformed images) at perfect-reconstruction PSNR, whereas under OASIS
they match nothing.  The comparison is paired: two
:func:`~repro.experiments.runner.run_trial` calls at one seed, which share
the batch, the model and the crafted attack and differ only in the defense.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.synthetic import SyntheticImageDataset
from repro.defense.baselines import TransformReplaceDefense
from repro.defense.oasis import OasisDefense
from repro.experiments.runner import run_trial
from repro.metrics.psnr import average_attack_psnr


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
    ats = TransformReplaceDefense(suite_name)
    ats.reseed(seed)
    replaced = run_trial(dataset, "rtf", batch_size, num_neurons, ats, seed)
    expanded = run_trial(
        dataset, "rtf", batch_size, num_neurons, OasisDefense(suite_name), seed
    )
    return ATSComparisonResult(
        ats_vs_training_inputs=average_attack_psnr(
            replaced.defended_images, replaced.result.images
        ),
        ats_vs_originals=average_attack_psnr(
            replaced.images, replaced.result.images
        ),
        oasis_vs_training_inputs=average_attack_psnr(
            expanded.defended_images, expanded.result.images
        ),
        oasis_vs_originals=average_attack_psnr(
            expanded.images, expanded.result.images
        ),
        num_ats_reconstructions=len(replaced.result),
        num_oasis_reconstructions=len(expanded.result),
    )
