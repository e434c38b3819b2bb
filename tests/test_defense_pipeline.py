"""DefensePipeline: stage chaining, expansion composition, FedAvg parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import ImprintedModel
from repro.defense import (
    ClientDefense,
    DefensePipeline,
    DPSGDDefense,
    GradientPruningDefense,
    NoDefense,
    OasisDefense,
    make_defense,
)
from repro.fl import compute_defended_update
from repro.nn import CrossEntropyLoss


class RecordingDefense(ClientDefense):
    """Logs every hook invocation (shared log, per-stage tag)."""

    def __init__(self, tag: str, log: list) -> None:
        self.name = tag
        self.log = log

    def process_batch(self, images, labels, rng):
        self.log.append(("batch", self.name, len(images)))
        return images, labels

    def process_gradients(self, gradients, rng):
        self.log.append(("grads", self.name))
        return gradients

    def finalize_update(self, gradients, num_examples, rng):
        self.log.append(("finalize", self.name, num_examples))
        return gradients


@pytest.fixture
def batch(rng):
    images = rng.random((3, 3, 8, 8))
    labels = rng.integers(0, 4, size=3)
    return images, labels


class TestChaining:
    def test_hooks_apply_in_stage_order(self, batch, rng):
        log: list = []
        pipeline = DefensePipeline(
            [RecordingDefense("a", log), RecordingDefense("b", log)]
        )
        images, labels = batch
        pipeline.process_batch(images, labels, rng)
        pipeline.process_gradients({"w": np.zeros(3)}, rng)
        pipeline.finalize_update({"w": np.zeros(3)}, 3, rng)
        assert [entry[:2] for entry in log] == [
            ("batch", "a"), ("batch", "b"),
            ("grads", "a"), ("grads", "b"),
            ("finalize", "a"), ("finalize", "b"),
        ]

    def test_batch_hook_sees_upstream_expansion(self, batch, rng):
        # The stage after OASIS receives the expanded batch, not the
        # original: expansion happens inside the chain, in order.
        log: list = []
        pipeline = DefensePipeline(
            [OasisDefense("MR"), RecordingDefense("after", log)]
        )
        images, labels = batch
        expanded, expanded_labels = pipeline.process_batch(images, labels, rng)
        assert log == [("batch", "after", 12)]
        assert len(expanded) == 12 and len(expanded_labels) == 12

    def test_name_joins_stages_with_separator(self):
        pipeline = DefensePipeline([OasisDefense("MR"), DPSGDDefense()])
        assert pipeline.name == "MR>DPSGD(z=0.1)"

    def test_nested_pipelines_flatten(self):
        inner = DefensePipeline([OasisDefense("MR"), GradientPruningDefense()])
        outer = DefensePipeline([inner, DPSGDDefense()])
        assert len(outer.stages) == 3
        assert not any(
            isinstance(stage, DefensePipeline) for stage in outer.stages
        )

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            DefensePipeline([])

    def test_single_stage_pipeline_behaves_like_stage(self, batch, rng):
        images, labels = batch
        alone = OasisDefense("MR").process_batch(images, labels, rng)
        piped = DefensePipeline([OasisDefense("MR")]).process_batch(
            images, labels, rng
        )
        np.testing.assert_array_equal(alone[0], piped[0])
        np.testing.assert_array_equal(alone[1], piped[1])


class TestExpansionAndClipping:
    def test_expansion_factors_multiply(self):
        pipeline = DefensePipeline([OasisDefense("MR"), OasisDefense("MR+SH")])
        assert pipeline.expansion_factor() == 4 * 7

    def test_non_expanding_stages_contribute_factor_one(self):
        pipeline = DefensePipeline(
            [OasisDefense("HFlip"), DPSGDDefense(), GradientPruningDefense()]
        )
        assert pipeline.expansion_factor() == 2

    def test_per_sample_clip_propagates(self):
        pipeline = DefensePipeline([OasisDefense("MR"), DPSGDDefense(0.7)])
        assert pipeline.per_sample_clip == pytest.approx(0.7)
        assert DefensePipeline([NoDefense()]).per_sample_clip is None

    def test_two_clipping_stages_refused(self):
        with pytest.raises(ValueError, match="per_sample_clip"):
            DefensePipeline([DPSGDDefense(1.0), DPSGDDefense(0.5)])


class TestComputeDefendedUpdate:
    """The full client-side path with a composed pipeline attached."""

    def _model(self, rng_seed=11):
        return ImprintedModel((3, 8, 8), 16, 4, rng=np.random.default_rng(rng_seed))

    def test_reported_examples_stay_pre_expansion(self, batch, rng):
        # The PR-2 FedAvg weight-parity fix must survive composition: a
        # 4x-expanding pipeline still reports the original batch size, so
        # a defended client carries the same aggregation weight as an
        # undefended one.
        images, labels = batch
        pipeline = make_defense("MR>dpsgd(noise_multiplier=0.0)")
        _, _, num_examples, _ = compute_defended_update(
            self._model(), CrossEntropyLoss(), images, labels, pipeline, rng
        )
        assert num_examples == 3

    def test_finalize_receives_post_expansion_count(self, batch, rng):
        # DP-SGD's sigma = z*C/B calibration tracks the batch the
        # gradients were averaged over — the *expanded* one.
        log: list = []
        pipeline = DefensePipeline(
            [OasisDefense("MR"), RecordingDefense("spy", log)]
        )
        images, labels = batch
        compute_defended_update(
            self._model(), CrossEntropyLoss(), images, labels, pipeline, rng
        )
        assert ("finalize", "spy", 12) in log

    def test_zero_noise_composition_equals_clipped_mean_over_expansion(
        self, batch, rng
    ):
        # MR>dpsgd with z=0 must equal: expand with MR, per-sample clip,
        # average — stage semantics compose without interference.
        from repro.fl import average_gradients, clip_gradient_dict
        from repro.fl.gradients import compute_batch_gradients

        images, labels = batch
        pipeline = make_defense("MR>dpsgd(noise_multiplier=0.0,clip_norm=0.5)")
        model = self._model()
        gradients, _, _, _ = compute_defended_update(
            model, CrossEntropyLoss(), images, labels, pipeline, rng
        )
        expanded, expanded_labels = OasisDefense("MR").expand_batch(
            images, labels
        )
        reference = average_gradients([
            clip_gradient_dict(
                compute_batch_gradients(
                    model, CrossEntropyLoss(),
                    expanded[i : i + 1], expanded_labels[i : i + 1],
                )[0],
                0.5,
            )
            for i in range(len(expanded))
        ])
        for name, value in reference.items():
            np.testing.assert_allclose(gradients[name], value)

    def test_defense_overriding_both_gradient_hooks_gets_both(self, batch, rng):
        # The documented four-stage surface executes process_gradients AND
        # finalize_update, once each — a defense overriding both must not
        # silently lose either on the real client path.
        class BothHooks(ClientDefense):
            name = "both"

            def process_gradients(self, gradients, rng):
                return {k: g + 1.0 for k, g in gradients.items()}

            def finalize_update(self, gradients, num_examples, rng):
                return {k: g * 10.0 for k, g in gradients.items()}

        images, labels = batch
        model = self._model()
        from repro.fl.gradients import compute_batch_gradients

        raw, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        defended, _, _, _ = compute_defended_update(
            model, CrossEntropyLoss(), images, labels, BothHooks(), rng
        )
        for name, value in raw.items():
            np.testing.assert_allclose(defended[name], (value + 1.0) * 10.0)

    def test_gradient_stage_composes_after_expansion(self, batch, rng):
        # MR>prune: pruned gradients of the expanded batch — the pruning
        # mask applies to what OASIS produced, and the pipeline output is
        # exactly prune(process(MR batch)).
        from repro.fl.gradients import compute_batch_gradients

        images, labels = batch
        pipeline = make_defense("MR>prune(prune_fraction=0.5)")
        model = self._model()
        gradients, _, _, _ = compute_defended_update(
            model, CrossEntropyLoss(), images, labels, pipeline, rng
        )
        expanded, expanded_labels = OasisDefense("MR").expand_batch(images, labels)
        raw, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), expanded, expanded_labels
        )
        reference = GradientPruningDefense(0.5).process_gradients(raw, rng)
        for name, value in reference.items():
            np.testing.assert_allclose(gradients[name], value)


class TestReseed:
    def test_reseed_is_deterministic_per_stage(self):
        grads = {"w": np.zeros(128)}
        a = DefensePipeline([DPSGDDefense(), GradientPruningDefense()])
        b = DefensePipeline([DPSGDDefense(), GradientPruningDefense()])
        a.reseed(21)
        b.reseed(21)
        noise_a = a.finalize_update(grads, 4, np.random.default_rng())["w"]
        noise_b = b.finalize_update(grads, 4, np.random.default_rng())["w"]
        np.testing.assert_array_equal(noise_a, noise_b)
        assert not np.allclose(noise_a, 0.0)

    def test_reseed_differs_across_base_seeds(self):
        grads = {"w": np.zeros(128)}
        a = DefensePipeline([DPSGDDefense()])
        b = DefensePipeline([DPSGDDefense()])
        a.reseed(21)
        b.reseed(22)
        assert not np.allclose(
            a.finalize_update(grads, 4, np.random.default_rng())["w"],
            b.finalize_update(grads, 4, np.random.default_rng())["w"],
        )
