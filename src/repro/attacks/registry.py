"""The attack zoo: a :class:`~repro.registry.Registry` of attack classes.

The sweep engine grids over attacks the same way it grids over
transformation suites and participation scenarios, so the attack axis must
be *data*, not a hard-coded if/elif chain.  Every consumer
(``SweepRunner``, the CLI's ``--attacks`` flag, the per-figure harnesses,
tests) resolves attacks through :func:`make_attack`.

An attack's knobs are its constructor's keyword parameters; ``num_neurons``
and ``seed`` are offered as context and passed only to constructors that
take them.  The global-model family an attack targets is its
``model_family`` class attribute (``"imprint"`` for the malicious-layer
attacks, ``"linear"`` for single-layer gradient inversion);
:func:`model_for` reads it to build that architecture, for every trial
and every sweep cell alike.

Adding an attack: implement
:class:`~repro.attacks.base.ActiveReconstructionAttack` (``craft`` +
``reconstruct``; optionally ``calibrate_from_public_data``, and the
large-scale hooks ``craft_for_client`` / ``reconstruct_per_client`` — see
:mod:`repro.attacks.loki`), then register it here::

    ATTACKS.register("myattack", MyAttack)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.base import ActiveReconstructionAttack
from repro.attacks.cah import CAHAttack
from repro.attacks.imprint import ImprintedModel
from repro.attacks.linear import LinearClassifier, LinearModelInversion
from repro.attacks.loki import LOKIAttack
from repro.attacks.qbi import QBIAttack
from repro.attacks.rtf import RTFAttack
from repro.data.synthetic import SyntheticImageDataset
from repro.nn.module import Module
from repro.registry import IDENTIFIER_PATTERN, Registry, parse_spec

ATTACKS = Registry("attack", pattern=IDENTIFIER_PATTERN)


def make_attack(
    name: str,
    num_neurons: int,
    public_images: Optional[np.ndarray] = None,
    seed: int = 0,
    **knobs,
) -> ActiveReconstructionAttack:
    """Build an attack from the zoo, calibrated on ``public_images``.

    ``knobs`` must be keyword parameters of the attack's constructor — an
    undeclared knob is a configuration typo, and silently dropping it
    would run a different experiment than the one asked for.
    """
    attack = ATTACKS.build(name, knobs, num_neurons=num_neurons, seed=seed)
    if public_images is not None and len(public_images):
        attack.calibrate_from_public_data(public_images)
    return attack


def model_for(
    attack_spec: str,
    dataset: SyntheticImageDataset,
    num_neurons: int,
    seed: int,
) -> Module:
    """The global model the attack's ``model_family`` targets, at ``seed``.

    Imprint-family attacks get the malicious-layer
    :class:`~repro.attacks.imprint.ImprintedModel` with ``num_neurons``
    attacked neurons; the linear inversion gets the paper's single-layer
    classifier (Sec. IV-D; ``num_neurons`` unused).  The weights draw
    from ``default_rng(seed + 1)``, so a trial and a sweep cell at one
    seed build the same model.
    """
    [(name, _)] = parse_spec(attack_spec)
    rng = np.random.default_rng(seed + 1)
    if ATTACKS.get(name).model_family == "linear":
        return LinearClassifier(dataset.image_shape, dataset.num_classes, rng)
    return ImprintedModel(
        dataset.image_shape, num_neurons, dataset.num_classes, rng
    )


ATTACKS.register("rtf", RTFAttack)
ATTACKS.register("cah", CAHAttack)
ATTACKS.register("linear", LinearModelInversion)
ATTACKS.register("qbi", QBIAttack)
ATTACKS.register("loki", LOKIAttack)
