"""Active reconstruction attacks: the pluggable attack zoo.

Built-in entries: RTF, CAH, linear-model inversion, QBI, and LOKI — all
registered in :data:`ATTACKS` (:mod:`repro.attacks.registry`) and
resolvable by name through :func:`make_attack`; :func:`model_for` builds
the global model each attack targets.
"""

from repro.attacks.base import (
    ActiveReconstructionAttack,
    ReconstructionResult,
    clip_to_image,
)
from repro.attacks.cah import CAHAttack
from repro.attacks.imprint import (
    IMPRINT_BIAS,
    IMPRINT_WEIGHT,
    ImprintedModel,
    activation_matrix,
    extract_imprint_gradients,
)
from repro.attacks.linear import LinearClassifier, LinearModelInversion
from repro.attacks.loki import LOKIAttack
from repro.attacks.qbi import QBIAttack
from repro.attacks.registry import ATTACKS, make_attack, model_for
from repro.attacks.rtf import RTFAttack
from repro.attacks.traps import TrapImprintAttack

__all__ = [
    "ActiveReconstructionAttack",
    "ReconstructionResult",
    "clip_to_image",
    "ImprintedModel",
    "activation_matrix",
    "extract_imprint_gradients",
    "IMPRINT_WEIGHT",
    "IMPRINT_BIAS",
    "RTFAttack",
    "CAHAttack",
    "QBIAttack",
    "LOKIAttack",
    "TrapImprintAttack",
    "LinearClassifier",
    "LinearModelInversion",
    "ATTACKS",
    "make_attack",
    "model_for",
]
