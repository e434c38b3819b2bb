"""Client-side detection of imprint-attack signatures in broadcast models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import CAHAttack, ImprintedModel, LOKIAttack, QBIAttack, RTFAttack
from repro.defense import inspect_state
from repro.defense.detection import _linear_pairs
from repro.nn import MLP


@pytest.fixture
def clean_state(cifar_like):
    model = ImprintedModel(cifar_like.image_shape, 100, cifar_like.num_classes,
                           rng=np.random.default_rng(0))
    return model.state_dict()


def crafted_state(cifar_like, attack_name):
    model = ImprintedModel(cifar_like.image_shape, 100, cifar_like.num_classes,
                           rng=np.random.default_rng(0))
    if attack_name == "rtf":
        attack = RTFAttack(100)
    else:
        attack = CAHAttack(100, seed=1)
    attack.calibrate_from_public_data(cifar_like.images[:100])
    attack.craft(model)
    return model.state_dict()


class TestDetection:
    def test_clean_model_not_flagged(self, clean_state, cifar_like):
        report = inspect_state(clean_state, probe_inputs=cifar_like.images[:32])
        assert not report.suspicious

    def test_honest_mlp_not_flagged(self, rng):
        model = MLP([64, 128, 32, 10], rng=np.random.default_rng(4))
        report = inspect_state(
            model.state_dict(), probe_inputs=rng.random((32, 64))
        )
        assert not report.suspicious

    def test_rtf_crafted_model_flagged(self, cifar_like):
        report = inspect_state(crafted_state(cifar_like, "rtf"))
        assert report.suspicious
        assert any("RTF" in finding for finding in report.findings)

    def test_cah_crafted_model_flagged(self, cifar_like):
        # CAH has no structural signature; the client must probe with its
        # own data to expose the sparse trap-activation profile.
        report = inspect_state(
            crafted_state(cifar_like, "cah"),
            probe_inputs=cifar_like.images[:64],
        )
        assert report.suspicious
        assert any("CAH" in finding for finding in report.findings)

    def test_cah_without_probes_not_detectable(self, cifar_like):
        report = inspect_state(crafted_state(cifar_like, "cah"))
        assert not report.suspicious

    def test_few_probes_skips_functional_check(self, cifar_like):
        report = inspect_state(
            crafted_state(cifar_like, "cah"), probe_inputs=cifar_like.images[:4]
        )
        assert not report.suspicious

    def test_small_layers_ignored(self):
        # Tiny layers (below 16 neurons) are skipped to avoid noise.
        state = {
            "fc.weight": np.tile(np.ones(4), (8, 1)),
            "fc.bias": -np.arange(8.0),
        }
        assert not inspect_state(state).suspicious

    def test_report_is_truthy_when_suspicious(self, cifar_like):
        report = inspect_state(crafted_state(cifar_like, "rtf"))
        assert bool(report)

    def test_conv_weights_ignored(self, rng):
        state = {
            "conv.weight": rng.standard_normal((8, 3, 3, 3)),
            "conv.bias": rng.standard_normal(8),
        }
        assert not inspect_state(state).suspicious

    def test_weight_without_bias_ignored(self, rng):
        state = {"fc.weight": np.tile(np.ones(10), (32, 1))}
        assert not inspect_state(state).suspicious

    def test_first_row_noising_does_not_evade(self, cifar_like, rng):
        # Regression: the colinearity check used to compare every row to
        # rows[0], so a server that noised just the first imprint row
        # dropped the detected fraction to ~0 while keeping the attack.
        state = crafted_state(cifar_like, "rtf")
        weight_name = next(
            name for name in state
            if name.endswith(".weight") and state[name].ndim == 2
            and "imprint" in name
        )
        noised = {name: value.copy() for name, value in state.items()}
        noised[weight_name][0] += rng.standard_normal(
            noised[weight_name].shape[1]
        )
        report = inspect_state(noised)
        assert report.suspicious
        assert any("RTF" in finding for finding in report.findings)

    def test_negated_rows_still_counted(self, cifar_like):
        # Eq. 6 is sign-invariant: a negated imprint row extracts inputs
        # just as well, so |cosine| must catch sign-flipped copies.
        state = crafted_state(cifar_like, "rtf")
        weight_name = next(
            name for name in state
            if name.endswith(".weight") and state[name].ndim == 2
            and "imprint" in name
        )
        flipped = {name: value.copy() for name, value in state.items()}
        flipped[weight_name][::2] *= -1.0
        report = inspect_state(flipped)
        assert report.suspicious


class TestKeyNormalization:
    """Regression: _linear_pairs only matched `*.weight`/`*.bias` 2-D pairs,
    so an imprint layer registered under a non-standard key (or with a
    transposed weight) escaped inspection entirely."""

    def test_imprinted_model_state_dict_pairs_found(self, cifar_like):
        # The actual attack surface: every FC layer of the real
        # ImprintedModel state dict must be discovered.
        model = ImprintedModel(cifar_like.image_shape, 32, 10,
                               rng=np.random.default_rng(0))
        names = {name for name, _, _ in _linear_pairs(model.state_dict())}
        assert {"imprint.weight", "decoder.weight", "head.weight"} <= names

    def test_underscore_separated_keys_inspected(self, cifar_like):
        state = crafted_state(cifar_like, "rtf")
        renamed = {
            name.replace("imprint.", "imprint_"): value
            for name, value in state.items()
        }
        report = inspect_state(renamed)
        assert report.suspicious
        assert any("RTF" in finding for finding in report.findings)

    def test_bare_weight_key_inspected(self, cifar_like):
        state = crafted_state(cifar_like, "rtf")
        bare = {"weight": state["imprint.weight"], "bias": state["imprint.bias"]}
        assert inspect_state(bare).suspicious

    def test_mixed_case_keys_inspected(self, cifar_like):
        # The server also chooses the capitalization; "Weight"/"Bias"
        # must not slip past a case-sensitive lookup.
        state = crafted_state(cifar_like, "rtf")
        cased = {
            "imprint.Weight": state["imprint.weight"],
            "imprint.Bias": state["imprint.bias"],
        }
        report = inspect_state(cased)
        assert report.suspicious
        assert any("RTF" in finding for finding in report.findings)

    def test_mixed_separator_pair_inspected(self, cifar_like):
        # Weight and bias registered under different separators.
        state = crafted_state(cifar_like, "rtf")
        mixed = {
            "imprint_weight": state["imprint.weight"],
            "imprint.bias": state["imprint.bias"],
        }
        assert inspect_state(mixed).suspicious

    def test_transposed_weight_inspected(self, cifar_like):
        state = crafted_state(cifar_like, "rtf")
        transposed = {
            name: value.copy() for name, value in state.items()
            if not name.startswith("imprint.")
        }
        transposed["imprint.weight"] = state["imprint.weight"].T.copy()
        transposed["imprint.bias"] = state["imprint.bias"].copy()
        report = inspect_state(transposed)
        assert report.suspicious
        assert any("RTF" in finding for finding in report.findings)


class TestZooSignatures:
    def qbi_state(self, cifar_like):
        model = ImprintedModel(cifar_like.image_shape, 100,
                               cifar_like.num_classes,
                               rng=np.random.default_rng(0))
        attack = QBIAttack(100, expected_batch_size=8, seed=1)
        attack.calibrate_from_public_data(cifar_like.images[:100])
        attack.craft(model)
        return model.state_dict()

    def test_qbi_flagged_with_probes(self, cifar_like):
        report = inspect_state(
            self.qbi_state(cifar_like), probe_inputs=cifar_like.images[:64]
        )
        assert report.suspicious
        assert any("QBI" in finding for finding in report.findings)

    @pytest.mark.parametrize("batch_size", [3, 4, 8, 16])
    def test_qbi_flagged_across_batch_sizes(self, cifar_like, batch_size):
        # The rate band must cover every legal tuning with p* < 0.5, not
        # just the default B=8.
        model = ImprintedModel(cifar_like.image_shape, 100,
                               cifar_like.num_classes,
                               rng=np.random.default_rng(0))
        attack = QBIAttack(100, expected_batch_size=batch_size, seed=1)
        attack.calibrate_from_public_data(cifar_like.images[:100])
        attack.craft(model)
        report = inspect_state(
            model.state_dict(), probe_inputs=cifar_like.images[:64]
        )
        assert report.suspicious, f"QBI B={batch_size} escaped detection"
        # Large B pushes p* below the CAH sparsity threshold, where the
        # (accurate) CAH-style label fires first; either trap-weight
        # finding counts as detection.
        assert any(
            "QBI" in finding or "CAH" in finding
            for finding in report.findings
        )

    def test_qbi_without_probes_not_detectable(self, cifar_like):
        # Like CAH, QBI trap weights are structurally random: only a
        # probe with local data exposes the pinned activation rates.
        assert not inspect_state(self.qbi_state(cifar_like)).suspicious

    def test_loki_per_client_model_flagged_structurally(self, cifar_like):
        model = ImprintedModel(cifar_like.image_shape, 100,
                               cifar_like.num_classes,
                               rng=np.random.default_rng(0))
        attack = LOKIAttack(100, seed=1)
        attack.calibrate_from_public_data(cifar_like.images[:100])
        attack.assign_clients([0, 1, 2, 3])
        attack.craft_for_client(model, 1)
        # No probes needed: zero rows with disabling biases are structural.
        report = inspect_state(model.state_dict())
        assert report.suspicious
        assert any("LOKI" in finding for finding in report.findings)

    def test_loki_union_model_flagged_via_probes(self, cifar_like):
        model = ImprintedModel(cifar_like.image_shape, 100,
                               cifar_like.num_classes,
                               rng=np.random.default_rng(0))
        attack = LOKIAttack(100, seed=1)
        attack.calibrate_from_public_data(cifar_like.images[:100])
        attack.craft(model)
        report = inspect_state(
            model.state_dict(), probe_inputs=cifar_like.images[:64]
        )
        assert report.suspicious
