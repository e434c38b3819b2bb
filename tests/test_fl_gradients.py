"""Gradient computation and FedAvg aggregation (paper Eq. 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.defense import OasisDefense
from repro.fl import (
    average_gradients,
    compute_batch_gradients,
    compute_defended_update,
)
from repro.nn import CrossEntropyLoss, MLP


@pytest.fixture
def model():
    return MLP([8, 6, 3], rng=np.random.default_rng(0))


class TestComputeBatchGradients:
    def test_returns_all_parameters(self, model, rng):
        grads, loss = compute_batch_gradients(
            model, CrossEntropyLoss(), rng.random((4, 8)), rng.integers(0, 3, 4)
        )
        assert set(grads) == {name for name, _ in model.named_parameters()}
        assert np.isfinite(loss)

    def test_zeroes_stale_gradients_first(self, model, rng):
        x, y = rng.random((4, 8)), rng.integers(0, 3, 4)
        first, _ = compute_batch_gradients(model, CrossEntropyLoss(), x, y)
        second, _ = compute_batch_gradients(model, CrossEntropyLoss(), x, y)
        for name in first:
            np.testing.assert_allclose(first[name], second[name])

    def test_mean_reduction_scales_with_batch(self, model, rng):
        x, y = rng.random((4, 8)), rng.integers(0, 3, 4)
        per_sample = [
            compute_batch_gradients(model, CrossEntropyLoss(), x[i : i + 1], y[i : i + 1])[0]
            for i in range(4)
        ]
        sum_grads = {name: sum(g[name] for g in per_sample) for name in per_sample[0]}
        mean_grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), x, y)
        for name in sum_grads:
            np.testing.assert_allclose(sum_grads[name], 4.0 * mean_grads[name],
                                       atol=1e-10)


class TestAverageGradients:
    def test_uniform_average(self):
        updates = [{"w": np.array([1.0])}, {"w": np.array([3.0])}]
        out = average_gradients(updates)
        np.testing.assert_allclose(out["w"], [2.0])

    def test_weighted_average(self):
        updates = [{"w": np.array([0.0])}, {"w": np.array([4.0])}]
        out = average_gradients(updates, weights=[3.0, 1.0])
        np.testing.assert_allclose(out["w"], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_gradients([])

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            average_gradients([{"w": np.zeros(1)}], weights=[1.0, 2.0])

    def test_mismatched_keys_rejected(self):
        with pytest.raises(KeyError):
            average_gradients([{"w": np.zeros(1)}, {"v": np.zeros(1)}])

    def test_aggregation_is_linear(self, rng):
        # FedAvg of K identical updates equals the update (Eq. 1 sanity).
        update = {"w": rng.standard_normal(5)}
        out = average_gradients([update] * 7)
        np.testing.assert_allclose(out["w"], update["w"])

    def test_does_not_mutate_inputs(self):
        updates = [{"w": np.array([1.0])}, {"w": np.array([3.0])}]
        average_gradients(updates)
        np.testing.assert_array_equal(updates[0]["w"], [1.0])

    def test_all_zero_weights_rejected(self):
        # Regression: an all-zero weight total used to divide by zero and
        # silently fill the aggregate with nan/inf.
        updates = [{"w": np.array([1.0])}, {"w": np.array([3.0])}]
        with pytest.raises(ValueError):
            average_gradients(updates, weights=[0.0, 0.0])


class TestDefendedUpdateWeighting:
    """Regression: OASIS expansion must not inflate the FedAvg weight."""

    def _compute(self, defense, seed=0):
        rng = np.random.default_rng(seed)
        model = MLP([48, 6, 3], rng=np.random.default_rng(1))
        images = rng.random((4, 3, 4, 4))
        labels = rng.integers(0, 3, 4)
        return compute_defended_update(
            model, CrossEntropyLoss(), images, labels, defense,
            np.random.default_rng(2),
        )

    def test_defended_reports_original_batch_size(self):
        from repro.defense import NoDefense

        _, _, defended_count, _ = self._compute(OasisDefense("MR"))
        _, _, undefended_count, _ = self._compute(NoDefense())
        assert defended_count == undefended_count == 4

    def test_fedavg_weight_parity(self):
        # A defended and an undefended client reporting the same batch size
        # must carry identical weight in an example-weighted FedAvg round.
        defended_grads, _, defended_count, _ = self._compute(OasisDefense("MR+SH"))
        from repro.defense import NoDefense

        plain_grads, _, plain_count, _ = self._compute(NoDefense(), seed=3)
        aggregated = average_gradients(
            [defended_grads, plain_grads], weights=[defended_count, plain_count]
        )
        expected = average_gradients([defended_grads, plain_grads])
        for name in aggregated:
            np.testing.assert_allclose(aggregated[name], expected[name])
