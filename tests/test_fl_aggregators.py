"""Aggregators: exactness on hand-computed updates, robustness, masking."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.fl import (
    AGGREGATORS,
    Aggregator,
    CoordinateMedianAggregator,
    FedAvgAggregator,
    FixedPointCodec,
    MaskedSumAggregator,
    OneShotRecoveryAggregator,
    RoundBuffer,
    SecAggAggregator,
    SecAggError,
    TrimmedMeanAggregator,
    average_gradients,
    make_aggregator,
    unflatten_vector,
)
from repro.fl.secagg import default_threshold

ALL_NAMES = [
    "fedavg", "median", "trimmed_mean", "masked_sum", "secagg", "secagg_oneshot",
]


def pack(updates):
    return RoundBuffer.for_updates(updates)


def hand_updates():
    return [
        {"w": np.array([1.0, 3.0]), "b": np.array([[2.0]])},
        {"w": np.array([3.0, 5.0]), "b": np.array([[4.0]])},
        {"w": np.array([5.0, 7.0]), "b": np.array([[6.0]])},
    ]


class TestFlattening:
    def test_round_trip(self):
        updates = hand_updates()
        buffer = RoundBuffer.for_updates(updates)
        matrix, spec = buffer.matrix, buffer.spec
        assert matrix.shape == (3, 3)
        restored = unflatten_vector(matrix[1], spec)
        for name in updates[1]:
            np.testing.assert_array_equal(restored[name], updates[1][name])

    def test_rows_are_clients(self):
        matrix = pack(hand_updates()).matrix
        np.testing.assert_array_equal(matrix[0], [1.0, 3.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RoundBuffer.for_updates([])

    def test_mismatched_keys_rejected(self):
        with pytest.raises(KeyError):
            RoundBuffer.for_updates([{"w": np.ones(2)}, {"v": np.ones(2)}])


class TestFedAvg:
    def test_exact_uniform_mean(self):
        out = FedAvgAggregator().aggregate(pack(hand_updates()))
        np.testing.assert_allclose(out["w"], [3.0, 5.0])
        np.testing.assert_allclose(out["b"], [[4.0]])

    def test_exact_weighted_mean(self):
        out = FedAvgAggregator().aggregate(pack(hand_updates()), weights=[1, 1, 2])
        # (1*1 + 1*3 + 2*5) / 4 = 3.5 ; (1*3 + 1*5 + 2*7) / 4 = 5.5
        np.testing.assert_allclose(out["w"], [3.5, 5.5])
        np.testing.assert_allclose(out["b"], [[4.5]])

    def test_matches_reference_average_gradients(self):
        rng = np.random.default_rng(7)
        updates = [
            {"w": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
            for _ in range(9)
        ]
        fast = FedAvgAggregator().aggregate(pack(updates))
        reference = average_gradients(updates)
        for name in reference:
            np.testing.assert_allclose(fast[name], reference[name], atol=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FedAvgAggregator().aggregate(pack(hand_updates()), weights=[1.0])
        with pytest.raises(ValueError):
            FedAvgAggregator().aggregate(pack(hand_updates()), weights=[0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            FedAvgAggregator().aggregate(pack(hand_updates()), weights=[1.0, -1.0, 1.0])


class TestCoordinateMedian:
    def test_exact_on_hand_updates(self):
        out = CoordinateMedianAggregator().aggregate(pack(hand_updates()))
        np.testing.assert_array_equal(out["w"], [3.0, 5.0])
        np.testing.assert_array_equal(out["b"], [[4.0]])

    def test_tolerates_crafted_outlier(self):
        updates = hand_updates()
        updates[2] = {"w": np.array([1e9, -1e9]), "b": np.array([[1e9]])}
        out = CoordinateMedianAggregator().aggregate(pack(updates))
        # The median lands on an honest client's coordinate, unmoved by the
        # attacker's arbitrarily large values.
        np.testing.assert_array_equal(out["w"], [3.0, 3.0])
        np.testing.assert_array_equal(out["b"], [[4.0]])


class TestTrimmedMean:
    def test_exact_keeps_middle(self):
        updates = [
            {"w": np.array([0.0])},
            {"w": np.array([2.0])},
            {"w": np.array([4.0])},
            {"w": np.array([100.0])},
        ]
        out = TrimmedMeanAggregator(trim_ratio=0.25).aggregate(pack(updates))
        np.testing.assert_array_equal(out["w"], [3.0])  # mean of {2, 4}

    def test_tolerates_crafted_outlier(self):
        honest = [{"w": np.full(3, float(v))} for v in (1.0, 2.0, 3.0)]
        crafted = {"w": np.full(3, 1e12)}
        out = TrimmedMeanAggregator(trim_ratio=0.25).aggregate(pack(honest + [crafted]))
        np.testing.assert_array_equal(out["w"], np.full(3, 2.5))  # mean of {2, 3}

    def test_zero_trim_is_mean(self):
        out = TrimmedMeanAggregator(trim_ratio=0.0).aggregate(pack(hand_updates()))
        np.testing.assert_allclose(out["w"], [3.0, 5.0])

    def test_trim_never_empties(self):
        # Ratio large enough to trim everything is clamped to leave the median.
        out = TrimmedMeanAggregator(trim_ratio=0.49).aggregate(pack(hand_updates()))
        np.testing.assert_allclose(out["w"], [3.0, 5.0])

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            TrimmedMeanAggregator(trim_ratio=0.5)


class TestMaskedSum:
    def grid_updates(self, count=4, dim=6, seed=0):
        """Updates on the 2^-16 fixed-point grid: quantization is lossless."""
        rng = np.random.default_rng(seed)
        return [
            {"w": rng.integers(-4000, 4000, dim) / 1024.0} for _ in range(count)
        ]

    def test_recovers_plain_sum_bit_for_bit(self):
        # Grid-aligned values make the fixed-point sum equal the exact float
        # sum, so the aggregate is that sum over K to the last bit.
        updates = self.grid_updates(count=3)
        matrix = pack(updates).matrix
        out = MaskedSumAggregator(fractional_bits=16).aggregate(pack(updates))
        np.testing.assert_array_equal(out["w"], matrix.sum(axis=0) / 3)

    def test_aggregate_equals_plain_mean_bit_for_bit(self):
        updates = self.grid_updates(count=4)  # power of two: exact division
        out = MaskedSumAggregator(fractional_bits=16).aggregate(pack(updates))
        matrix = pack(updates).matrix
        np.testing.assert_array_equal(out["w"], matrix.sum(axis=0) / 4.0)

    def test_survivor_subset_still_cancels(self):
        # Clients that drop before uploading are left out of the round, so
        # the aggregate over any survivor subset is that subset's exact sum.
        updates = self.grid_updates(count=6)
        survivors = [updates[i] for i in (0, 2, 5)]
        matrix = pack(survivors).matrix
        out = MaskedSumAggregator().aggregate(pack(survivors))
        np.testing.assert_array_equal(out["w"], matrix.sum(axis=0) / 3)

    def test_single_client_passthrough(self):
        updates = self.grid_updates(count=1)
        out = MaskedSumAggregator().aggregate(pack(updates))
        np.testing.assert_array_equal(out["w"], updates[0]["w"])

    def test_overflowing_update_rejected(self):
        # A byzantine client whose values would wrap the fixed-point ring
        # must raise, not silently corrupt the aggregate.
        updates = self.grid_updates(count=2)
        updates[1]["w"] = np.full_like(updates[1]["w"], 1e15)
        with pytest.raises(ValueError, match="fixed-point range"):
            MaskedSumAggregator(fractional_bits=16).aggregate(pack(updates))

    def test_close_to_float_mean_off_grid(self):
        rng = np.random.default_rng(3)
        updates = [{"w": rng.standard_normal(8)} for _ in range(5)]
        out = MaskedSumAggregator(fractional_bits=16).aggregate(pack(updates))
        plain = np.mean([u["w"] for u in updates], axis=0)
        np.testing.assert_allclose(out["w"], plain, atol=2e-5)


class TestRegistry:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_resolves_names(self, name):
        assert make_aggregator(name).name in (name, "fedavg", "median")

    def test_accepts_knobbed_spec_and_instance(self):
        trimmed = make_aggregator("trimmed_mean(trim_ratio=0.2)")
        assert isinstance(trimmed, TrimmedMeanAggregator)
        assert trimmed.trim_ratio == 0.2
        instance = FedAvgAggregator()
        assert make_aggregator(instance) is instance

    def test_instance_with_kwargs_rejected(self):
        with pytest.raises(ValueError):
            make_aggregator(FedAvgAggregator(), trim_ratio=0.2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_aggregator("krum")

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Aggregator().aggregate(pack(hand_updates()))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_rule_preserves_shapes(self, name):
        rng = np.random.default_rng(4)
        updates = [
            {"w": rng.standard_normal((2, 3)), "b": rng.standard_normal(5)}
            for _ in range(6)
        ]
        out = make_aggregator(name).aggregate(pack(updates))
        assert out["w"].shape == (2, 3)
        assert out["b"].shape == (5,)
        assert all(np.isfinite(v).all() for v in out.values())


class TestFixedPointCodec:
    """Boundary behaviour of the shared quantization codec.

    The masked-sum docstring promises exactness while the quantized sum
    stays within int64 (``K * max|q| < 2**63``); the codec guard must
    admit everything strictly inside that bound and reject anything at
    or beyond it (where modular wraparound would silently corrupt the
    recovered aggregate).
    """

    def test_admits_values_up_to_the_promised_bound(self):
        # K * max|q| = 2 * 2**61 = 2**62 < 2**63: inside the promise.
        # (The old 2**62 guard wrongly rejected this — regression.)
        codec = FixedPointCodec(fractional_bits=0)
        matrix = np.array([[2.0 ** 61], [-(2.0 ** 61)]])
        total = codec.exact_sum(matrix)
        np.testing.assert_array_equal(total, [0.0])

    def test_rejects_sum_at_the_limit(self):
        # K * max|q| = 2 * 2**62 = 2**63: wraparound possible, must raise.
        codec = FixedPointCodec(fractional_bits=0)
        matrix = np.array([[2.0 ** 62], [2.0 ** 62]])
        with pytest.raises(ValueError, match="fixed-point range"):
            codec.quantize(matrix)

    def test_rejects_single_value_over_the_limit(self):
        codec = FixedPointCodec(fractional_bits=0)
        with pytest.raises(ValueError, match="fixed-point range"):
            codec.quantize(np.array([[2.0 ** 63]]))

    def test_guard_checks_rounded_magnitudes(self):
        # The guard must bound what is actually summed: the *rounded*
        # fixed-point values, not the raw floats.  2**46 - 0.25 rounds up
        # to 2**46, so at count 2**17 the worst-case sum is exactly 2**63
        # (reject) even though the raw magnitude sum is 2**15 short of it.
        codec = FixedPointCodec(fractional_bits=0)
        value = np.array([[2.0 ** 46 - 0.25]])
        with pytest.raises(ValueError, match="fixed-point range"):
            codec.quantize(value, count=2 ** 17)
        # One fewer summand puts the worst case strictly inside int64.
        codec.quantize(value, count=2 ** 17 - 1)

    def test_wraparound_regression(self):
        # Just inside the bound the ring sum must equal the true integer
        # sum even though intermediate totals (3 * 2**61) far exceed what
        # a narrower guard would allow; an unsigned-view bug would show
        # up as a sign flip on the negative column.
        codec = FixedPointCodec(fractional_bits=0)
        big = 2.0 ** 61
        matrix = np.array([[big, -big], [big, -big], [big, big]])
        total = codec.exact_sum(matrix)
        np.testing.assert_array_equal(total, [3 * big, -big])
        # The guard is per-summand-count: the same values sum fine over 3
        # rows but a 4th worst-case summand could reach 2**63.
        with pytest.raises(ValueError, match="fixed-point range"):
            codec.quantize(matrix, count=4)

    @pytest.mark.parametrize("name", ["masked_sum", "secagg", "secagg_oneshot"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_update_named_not_called_out_of_range(self, name, bad):
        # NaN/inf is not a magnitude problem: clipping or fewer fractional
        # bits cannot help, so the error must say what is wrong and where.
        updates = [{"w": np.array([0.5, 1.0, 1.5])} for _ in range(4)]
        updates[2]["w"] = np.array([0.5, bad, 1.5])
        with pytest.raises(ValueError, match="row 2 holds non-finite") as caught:
            make_aggregator(name).aggregate(pack(updates))
        assert "fixed-point range" not in str(caught.value)

    def test_masked_sum_exposes_codec(self):
        agg = MaskedSumAggregator(fractional_bits=8)
        assert isinstance(agg.codec, FixedPointCodec)
        assert agg.codec.scale == 2.0 ** 8
        with pytest.raises(ValueError):
            FixedPointCodec(fractional_bits=-1)


class TestWeightHandling:
    """Unweighted rules must announce, once, that weights are discarded."""

    @pytest.mark.parametrize("name", ["masked_sum", "median", "trimmed_mean"])
    def test_unweighted_rule_warns_once(self, name):
        agg = make_aggregator(name)
        updates = hand_updates()
        with pytest.warns(RuntimeWarning, match="cannot honour"):
            agg.aggregate(pack(updates), weights=[1, 1, 2])
        # Second call on the same instance stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agg.aggregate(pack(updates), weights=[1, 1, 2])

    def test_fedavg_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FedAvgAggregator().aggregate(pack(hand_updates()), weights=[1, 1, 2])

    def test_no_weights_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CoordinateMedianAggregator().aggregate(pack(hand_updates()))

    def test_effective_weighting_labels(self):
        assert FedAvgAggregator().effective_weighting([1, 2]) == "weighted"
        assert FedAvgAggregator().effective_weighting(None) == "uniform"
        assert CoordinateMedianAggregator().effective_weighting([1, 2]) == "uniform"


class TestProtocolRegistryEntries:
    def test_lazy_names_resolve(self):
        assert isinstance(make_aggregator("secagg"), SecAggAggregator)
        assert isinstance(make_aggregator("secagg_oneshot"), OneShotRecoveryAggregator)

    def test_lazy_names_accept_kwargs(self):
        agg = make_aggregator("secagg", fractional_bits=8, threshold=3)
        assert agg.fractional_bits == 8
        matrix = np.zeros((10, 4))
        agg.reduce(matrix, None)
        assert agg.last_metadata["threshold"] == 3
        default = make_aggregator("secagg")
        default.reduce(matrix, None)
        assert default.last_metadata["threshold"] == default_threshold(10) == 6

    def test_protocol_rules_require_commitment(self):
        assert make_aggregator("secagg").requires_commitment
        assert make_aggregator("secagg_oneshot").requires_commitment
        assert not make_aggregator("masked_sum").requires_commitment


class TestOneAggregationPath:
    """Every rule is reached through ``aggregate(buffer, ...)``, which is
    exactly the rule's ``reduce`` over the packed matrix."""

    COMMITTED = list(range(10))
    SURVIVORS = [0, 2, 3, 5, 7, 8]
    WEIGHTS = [3.0, 1.0, 2.0, 5.0, 1.0, 4.0]

    def buffer(self):
        rng = np.random.default_rng(12)
        return pack([
            {"w": rng.integers(-4000, 4000, (2, 3)) / 1024.0,
             "b": rng.integers(-4000, 4000, 4) / 1024.0}
            for _ in self.SURVIVORS
        ])

    @pytest.mark.parametrize("name", AGGREGATORS.names())
    def test_server_call_shape_is_reduce(self, name):
        buffer = self.buffer()
        weights = np.asarray(self.WEIGHTS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = make_aggregator(name).aggregate(
                buffer, self.WEIGHTS, 4,
                ids=self.SURVIVORS, committed_ids=self.COMMITTED,
            )
        reduced = make_aggregator(name).reduce(
            buffer.matrix, weights / weights.sum(), 4,
            self.SURVIVORS, self.COMMITTED,
        )
        expected = unflatten_vector(reduced, buffer.spec)
        assert out.keys() == expected.keys()
        for key in expected:
            assert out[key].tobytes() == expected[key].tobytes()

    def test_aggregate_forwards_every_argument_to_reduce(self):
        seen = []

        class Recording(Aggregator):
            def reduce(self, matrix, weights, round_index=0, ids=None,
                       committed_ids=None):
                seen.append((matrix, weights, round_index, ids, committed_ids))
                return weights @ matrix

        buffer = self.buffer()
        Recording().aggregate(
            buffer, self.WEIGHTS, 7,
            ids=self.SURVIVORS, committed_ids=self.COMMITTED,
        )
        [(matrix, weights, round_index, ids, committed)] = seen
        assert np.shares_memory(matrix, buffer.matrix)
        np.testing.assert_allclose(weights.sum(), 1.0)
        assert (round_index, ids, committed) == (7, self.SURVIVORS, self.COMMITTED)

    @pytest.mark.parametrize(
        "name",
        [n for n in AGGREGATORS.names()
         if not make_aggregator(n).requires_commitment],
    )
    def test_plain_rules_ignore_ids(self, name):
        buffer = self.buffer()
        plain = make_aggregator(name).aggregate(buffer, None, 4)
        with_ids = make_aggregator(name).aggregate(
            buffer, None, 4, ids=self.SURVIVORS, committed_ids=self.COMMITTED
        )
        for key in plain:
            assert plain[key].tobytes() == with_ids[key].tobytes()

    @pytest.mark.parametrize("name", ["secagg", "secagg_oneshot"])
    def test_survivor_outside_committed_set_rejected(self, name):
        with pytest.raises(SecAggError, match="not in the committed set"):
            make_aggregator(name).aggregate(
                self.buffer(), ids=[0, 2, 3, 5, 7, 99],
                committed_ids=self.COMMITTED,
            )

    @pytest.mark.parametrize("name", ["secagg", "secagg_oneshot"])
    def test_protocol_ids_default_to_every_row(self, name):
        buffer = self.buffer()
        rows = list(range(len(buffer)))
        default = make_aggregator(name).aggregate(buffer, None, 4)
        explicit = make_aggregator(name).aggregate(
            buffer, None, 4, ids=rows, committed_ids=rows
        )
        for key in default:
            assert default[key].tobytes() == explicit[key].tobytes()

    def test_empty_buffer_rejected(self):
        buffer = RoundBuffer(2, [("w", (2,), 2)])
        with pytest.raises(ValueError, match="no updates"):
            FedAvgAggregator().aggregate(buffer)
