"""The pluggable attack zoo: registration, factories, round-trips, detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    ATTACKS,
    ImprintedModel,
    LinearClassifier,
    make_attack,
)
from repro.defense import inspect_state
from repro.fl import compute_batch_gradients
from repro.nn import CrossEntropyLoss
from repro.registry import (
    DuplicateNameError,
    RegistryError,
    SpecError,
    UnknownNameError,
)

BUILTIN_ATTACKS = ("rtf", "cah", "linear", "qbi", "loki")
NUM_NEURONS = 96


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTIN_ATTACKS) <= set(ATTACKS.names())

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(UnknownNameError) as excinfo:
            ATTACKS.get("definitely-not-an-attack")
        message = str(excinfo.value)
        for name in BUILTIN_ATTACKS:
            assert name in message

    def test_unknown_attack_error_is_a_value_error(self):
        # The per-figure harnesses historically caught ValueError.
        with pytest.raises(ValueError):
            make_attack("nope", 8, None)

    def test_duplicate_registration_refused(self):
        ATTACKS.register("dup_test", ATTACKS.get("rtf"))
        try:
            with pytest.raises(DuplicateNameError):
                ATTACKS.register("dup_test", ATTACKS.get("rtf"))
            # ... unless replacement is explicit.
            ATTACKS.register("dup_test", ATTACKS.get("rtf"), replace=True)
        finally:
            ATTACKS.unregister("dup_test")
        assert "dup_test" not in ATTACKS.names()

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownNameError):
            ATTACKS.unregister("never_registered")

    def test_invalid_name_refused(self):
        # Attack names are identifiers: they key store cells and CLI lists.
        for bad in ("", "bad name", "rtf-2", "MR+SH"):
            with pytest.raises(RegistryError):
                ATTACKS.register(bad, ATTACKS.get("rtf"))

    def test_unknown_knob_raises(self):
        with pytest.raises(SpecError, match="declared knobs"):
            make_attack("rtf", 8, None, not_a_knob=3)

    def test_declared_knobs_pass_through(self, cifar_like):
        attack = make_attack(
            "cah", 32, cifar_like.images[:64], activation_probability=0.07
        )
        assert attack.activation_probability == pytest.approx(0.07)

    def test_specs_declare_model_family(self):
        assert ATTACKS.get("linear").model_family == "linear"
        for name in ("rtf", "cah", "qbi", "loki"):
            assert ATTACKS.get(name).model_family == "imprint"


class TestRoundTrips:
    """Every registered attack survives craft -> client gradients -> reconstruct."""

    @pytest.fixture
    def batch(self, tiny_dataset, rng):
        return tiny_dataset.sample_batch(4, rng)

    @pytest.mark.parametrize(
        "name", [n for n in BUILTIN_ATTACKS if n != "linear"]
    )
    def test_imprint_attacks_round_trip(self, name, tiny_dataset, batch):
        images, labels = batch
        attack = make_attack(
            name, NUM_NEURONS, tiny_dataset.images[:96], seed=3
        )
        model = ImprintedModel(
            tiny_dataset.image_shape,
            NUM_NEURONS,
            tiny_dataset.num_classes,
            rng=np.random.default_rng(17),
        )
        attack.craft(model)
        gradients, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        result = attack.reconstruct(gradients)
        assert len(result) >= 1, f"{name} recovered nothing from 4 images"
        assert result.images.shape[1:] == tiny_dataset.image_shape
        assert np.all(np.isfinite(result.images))
        assert result.occupancy is not None
        assert len(result.occupancy) == len(result)

    def test_linear_attack_round_trips(self, tiny_dataset, rng):
        from repro.data.loaders import class_balanced_batch

        images, labels = class_balanced_batch(tiny_dataset, 4, rng)
        attack = make_attack("linear", NUM_NEURONS, None)
        model = LinearClassifier(
            tiny_dataset.image_shape,
            tiny_dataset.num_classes,
            rng=np.random.default_rng(17),
        )
        attack.craft(model)
        gradients, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        result = attack.reconstruct(gradients)
        assert len(result) >= 1
        assert np.all(np.isfinite(result.images))


class TestDetectionCoverage:
    """Client-side inspection flags every model-crafting attack in the zoo."""

    @pytest.mark.parametrize(
        "name",
        [n for n in BUILTIN_ATTACKS if ATTACKS.get(n).model_family == "imprint"],
    )
    def test_crafted_state_is_flagged(self, name, cifar_like):
        attack = make_attack(name, 100, cifar_like.images[:100], seed=1)
        model = ImprintedModel(
            cifar_like.image_shape, 100, cifar_like.num_classes,
            rng=np.random.default_rng(0),
        )
        if getattr(attack, "per_client_crafting", False):
            attack.assign_clients([0, 1, 2, 3])
            attack.craft_for_client(model, 1)
        else:
            attack.craft(model)
        report = inspect_state(
            model.state_dict(), probe_inputs=cifar_like.images[:64]
        )
        assert report.suspicious, f"{name} crafted state escaped detection"

    def test_clean_model_still_passes(self, cifar_like):
        model = ImprintedModel(
            cifar_like.image_shape, 100, cifar_like.num_classes,
            rng=np.random.default_rng(0),
        )
        report = inspect_state(
            model.state_dict(), probe_inputs=cifar_like.images[:64]
        )
        assert not report.suspicious, report.findings
