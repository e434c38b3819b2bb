"""Linear-model gradient inversion (paper Sec. IV-D)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import LinearClassifier, LinearModelInversion
from repro.data import class_balanced_batch
from repro.defense import OasisDefense
from repro.fl import compute_batch_gradients
from repro.metrics import average_attack_psnr, per_image_best_psnr
from repro.nn import CrossEntropyLoss
from repro.tensor import Tensor


@pytest.fixture
def setup(cifar_like):
    # The attack needs many more classes than batch elements: the ratio
    # (p_tk - 1) to the contamination sum over other samples scales with
    # B / K.  The paper accordingly evaluates on CIFAR100/ImageNet.
    model = LinearClassifier(
        cifar_like.image_shape, cifar_like.num_classes,
        rng=np.random.default_rng(31),
    )
    inversion = LinearModelInversion()
    inversion.craft(model)
    return model, inversion


class TestModel:
    def test_forward_shape(self, setup, rng):
        model, _ = setup
        out = model(Tensor(rng.random((5, 3, 32, 32))))
        assert out.shape == (5, 100)

    def test_accepts_flat_input(self, setup, rng):
        model, _ = setup
        out = model(Tensor(rng.random((2, model.flat_dim))))
        assert out.shape == (2, 100)


class TestInversion:
    def test_unique_label_batch_reconstructed(self, setup, cifar_like, rng):
        model, inversion = setup
        images, labels = class_balanced_batch(cifar_like, 8, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        result = inversion.reconstruct(grads)
        assert len(result) == 8
        # Reconstructions are dominated by the class sample (PSNR well above
        # the ~15 dB mixture floor) even if contaminated by other samples.
        per_image = per_image_best_psnr(images, result.images)
        assert np.all(per_image > 22.0)

    def test_only_present_classes_inverted(self, setup, cifar_like, rng):
        model, inversion = setup
        images, labels = class_balanced_batch(cifar_like, 4, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        result = inversion.reconstruct(grads)
        assert sorted(result.neuron_indices) == sorted(labels.tolist())

    def test_few_classes_weakens_attack(self, tiny_dataset, rng):
        # Control experiment: at K=4 classes with B=4 the softmax
        # contamination dominates and reconstructions degrade — the reason
        # the paper's restrictive setting uses 100+-class datasets.
        model = LinearClassifier(
            tiny_dataset.image_shape, tiny_dataset.num_classes,
            rng=np.random.default_rng(31),
        )
        inversion = LinearModelInversion()
        inversion.craft(model)
        images, labels = class_balanced_batch(tiny_dataset, 4, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        result = inversion.reconstruct(grads)
        per_image = per_image_best_psnr(images, result.images)
        assert np.all(per_image < 60.0)

    def test_reconstruct_before_craft_raises(self):
        with pytest.raises(RuntimeError):
            LinearModelInversion().reconstruct(
                {"fc.weight": np.zeros((2, 4)), "fc.bias": np.zeros(2)}
            )

    def test_oasis_turns_reconstruction_into_mixture(self, setup, cifar_like, rng):
        model, inversion = setup
        images, labels = class_balanced_batch(cifar_like, 8, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        undefended = average_attack_psnr(images, inversion.reconstruct(grads).images)

        expanded, expanded_labels = OasisDefense("MR").expand_batch(images, labels)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), expanded, expanded_labels
        )
        defended = average_attack_psnr(images, inversion.reconstruct(grads).images)
        assert defended < undefended - 5.0

    def test_single_layer_guarantee(self, setup, cifar_like, rng):
        # Paper: "adding transformed images to the training batch guarantees
        # that x_t and X'_t activate the same neuron" — in a linear model
        # the class row *is* the neuron and label sharing is the guarantee.
        images, labels = class_balanced_batch(cifar_like, 3, rng)
        defense = OasisDefense("MR")
        expanded, expanded_labels = defense.expand_batch(images, labels)
        # Every companion shares its original's label (= class neuron).
        for t in range(3):
            for companion in defense.companions_of(t, 3):
                assert expanded_labels[companion] == labels[t]
