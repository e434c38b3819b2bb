"""Property-based tests (hypothesis) for core invariants.

Invariant families, each load-bearing for the reproduction:

1. Autograd: gradients match finite differences on random inputs/shapes.
2. Augmentation: the geometric identities the defense analysis relies on
   (mean preservation, involutions, rotation group structure).
3. PSNR: metric axioms (symmetry in error magnitude, monotonicity, range).
4. Aggregation: FedAvg linearity/convexity (Eq. 1).
5. Partitioning: Dirichlet label skew covers every sample exactly once,
   and the vectorised split equals the per-class loop it replaced.
6. Aggregators: every rule is invariant to the order clients report in.
7. SecAgg: any supra-threshold survivor set recovers the exact sum, a
   round's batched upload equals its per-client uploads, the blocked
   mask sweep equals its one-mask-at-a-time reference, both endpoints
   of a key agreement derive the same seed, and the field matrix
   product and fixed-base key exponentiation are exact.
8. Event engine: round timelines, cutoff splits and arrival plans are
   pure functions of the plan/cohort *set*, never of listing or
   registration order; keyed draws for a subset are rows of the full draw.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.augment import horizontal_flip, rotate, shear, vertical_flip
from repro.fl import (
    CountCutoff,
    RoundBuffer,
    TieredArrivals,
    TimeCutoff,
    UniformArrivals,
    average_gradients,
    dirichlet_partition_indices,
    make_aggregator,
)
from repro.fl.engine import RoundPlan
from repro.fl.secagg import OneShotRecoveryProtocol, SecAggProtocol, default_threshold
from repro.fl.secagg import field
from repro.fl.secagg.field import (
    MATMUL_CHUNK,
    PRIME_INT,
    f_inv,
    f_matmul,
    f_mul,
    f_pow,
)
from repro.fl.secagg import masking
from repro.fl.secagg.masking import _BLOCK_WORDS, dh_public_key, dh_shared_seed
from repro.metrics import PSNR_CEILING, psnr
from repro.tensor import Tensor, buffers
from repro.utils import keyed_words
from gradcheck import numerical_gradient

finite_floats = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


def small_arrays(min_dims=1, max_dims=2, max_side=5):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=min_dims, max_dims=max_dims, max_side=max_side),
        elements=finite_floats,
    )


def images(side=8):
    return arrays(
        dtype=np.float64,
        shape=(3, side, side),
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )


class TestAutogradProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_arrays())
    def test_sum_gradient_is_ones(self, x):
        t = Tensor(x, requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    @settings(max_examples=20, deadline=None)
    @given(small_arrays())
    def test_square_gradient(self, x):
        t = Tensor(x, requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, 2.0 * x, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(small_arrays(max_dims=1, max_side=6))
    def test_elementwise_chain_matches_numeric(self, x):
        x = x + 0.1 * np.sign(x) + 0.05  # avoid the ReLU kink

        def loss(t):
            return ((t.relu() + 1.0) * t).sum()

        t = Tensor(x.copy(), requires_grad=True)
        loss(t).backward()
        numeric = numerical_gradient(lambda p: loss(Tensor(p)).item(), x.copy())
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)

    @settings(max_examples=15, deadline=None)
    @given(
        arrays(np.float64, (3, 4), elements=finite_floats),
        arrays(np.float64, (4, 2), elements=finite_floats),
    )
    def test_matmul_grad_shapes(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        assert ta.grad.shape == a.shape
        assert tb.grad.shape == b.shape

    @settings(max_examples=15, deadline=None)
    @given(small_arrays())
    def test_linearity_of_backward(self, x):
        # d(3L)/dx == 3 dL/dx
        t1 = Tensor(x.copy(), requires_grad=True)
        (t1 * t1).sum().backward()
        t3 = Tensor(x.copy(), requires_grad=True)
        ((t3 * t3).sum() * 3.0).backward()
        np.testing.assert_allclose(t3.grad, 3.0 * t1.grad, atol=1e-10)


class TestAugmentationProperties:
    @settings(max_examples=20, deadline=None)
    @given(images())
    def test_rot90_four_times_identity(self, image):
        out = image
        for _ in range(4):
            out = rotate(out, 90)
        np.testing.assert_array_equal(out, image)

    @settings(max_examples=20, deadline=None)
    @given(images())
    def test_rot90_composition(self, image):
        np.testing.assert_array_equal(
            rotate(rotate(image, 90), 90), rotate(image, 180)
        )

    @settings(max_examples=20, deadline=None)
    @given(images())
    def test_flip_involutions(self, image):
        np.testing.assert_array_equal(horizontal_flip(horizontal_flip(image)), image)
        np.testing.assert_array_equal(vertical_flip(vertical_flip(image)), image)

    @settings(max_examples=20, deadline=None)
    @given(images(), st.sampled_from([30.0, 45.0, 60.0, 15.0, 75.0]))
    def test_minor_rotation_preserves_mean(self, image, angle):
        assert np.isclose(rotate(image, angle).mean(), image.mean(), atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(images(), st.floats(min_value=0.1, max_value=1.5))
    def test_shear_preserves_mean(self, image, factor):
        assert np.isclose(shear(image, factor).mean(), image.mean(), atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(images())
    def test_major_rotation_preserves_multiset(self, image):
        np.testing.assert_allclose(
            np.sort(rotate(image, 270).ravel()), np.sort(image.ravel())
        )

    @settings(max_examples=10, deadline=None)
    @given(images())
    def test_transforms_preserve_shape(self, image):
        for out in (
            rotate(image, 37.0),
            shear(image, 0.8),
            horizontal_flip(image),
            vertical_flip(image),
        ):
            assert out.shape == image.shape


class TestPSNRProperties:
    @settings(max_examples=20, deadline=None)
    @given(images(side=6))
    def test_self_psnr_is_ceiling(self, image):
        assert psnr(image, image) == PSNR_CEILING

    @settings(max_examples=20, deadline=None)
    @given(images(side=6), st.floats(min_value=0.01, max_value=0.3))
    def test_symmetric(self, image, eps):
        other = np.clip(image + eps, 0, 1)
        assert np.isclose(psnr(image, other), psnr(other, image))

    @settings(max_examples=20, deadline=None)
    @given(images(side=6), st.floats(min_value=0.01, max_value=0.2))
    def test_monotone_in_perturbation(self, image, eps):
        closer = image + eps / 2
        farther = image + eps
        assert psnr(image, closer) >= psnr(image, farther)

    @settings(max_examples=20, deadline=None)
    @given(images(side=6), images(side=6))
    def test_bounded_above_by_ceiling(self, a, b):
        assert psnr(a, b) <= PSNR_CEILING


class TestAggregationProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(arrays(np.float64, (4,), elements=finite_floats),
                    min_size=1, max_size=6))
    def test_average_within_convex_hull(self, grads):
        updates = [{"w": g} for g in grads]
        out = average_gradients(updates)["w"]
        stacked = np.stack(grads)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(arrays(np.float64, (4,), elements=finite_floats),
           st.integers(min_value=1, max_value=8))
    def test_average_of_identical_is_identity(self, grad, count):
        out = average_gradients([{"w": grad.copy()} for _ in range(count)])["w"]
        np.testing.assert_allclose(out, grad, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(arrays(np.float64, (3,), elements=finite_floats),
           arrays(np.float64, (3,), elements=finite_floats))
    def test_permutation_invariance(self, a, b):
        ab = average_gradients([{"w": a}, {"w": b}])["w"]
        ba = average_gradients([{"w": b}, {"w": a}])["w"]
        np.testing.assert_allclose(ab, ba, atol=1e-12)


def per_class_dirichlet_partition(labels, num_clients, alpha, rng):
    """Reference Dirichlet split: one class at a time, shards merged by sort.

    For each class in label order: shuffle its indices, draw its client
    shares, split at the floored cumulative-share bounds.
    """
    labels = np.asarray(labels)
    assignments = [[] for _ in range(num_clients)]
    for cls in np.unique(labels):
        indices = np.flatnonzero(labels == cls)
        rng.shuffle(indices)
        shares = rng.dirichlet(np.full(num_clients, alpha))
        bounds = np.floor(np.cumsum(shares) * len(indices)).astype(int)
        bounds = np.maximum.accumulate(np.clip(bounds, 0, len(indices)))
        bounds[-1] = len(indices)
        for client, piece in enumerate(np.split(indices, bounds[:-1])):
            assignments[client].extend(piece.tolist())
    return [np.asarray(sorted(a), dtype=np.int64) for a in assignments]


dirichlet_cases = given(
    labels=arrays(
        np.int64,
        array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=60),
        elements=st.integers(min_value=0, max_value=5),
    ),
    num_clients=st.integers(min_value=1, max_value=7),
    alpha=st.floats(min_value=1e-3, max_value=100.0,
                    allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestDirichletPartitionProperties:
    @settings(max_examples=40, deadline=None)
    @dirichlet_cases
    def test_covers_all_samples_exactly_once(self, labels, num_clients, alpha, seed):
        rng = np.random.default_rng(seed)
        parts = dirichlet_partition_indices(labels, num_clients, alpha, rng)
        assert len(parts) == num_clients
        merged = np.sort(np.concatenate([p for p in parts] + [np.array([], int)]))
        np.testing.assert_array_equal(merged, np.arange(len(labels)))

    @settings(max_examples=60, deadline=None)
    @dirichlet_cases
    def test_equals_the_per_class_loop(self, labels, num_clients, alpha, seed):
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        parts = dirichlet_partition_indices(labels, num_clients, alpha, rng)
        expected = per_class_dirichlet_partition(
            labels, num_clients, alpha, reference_rng
        )
        assert len(parts) == len(expected) == num_clients
        for part, want in zip(parts, expected):
            assert part.dtype == np.int64
            np.testing.assert_array_equal(part, want)
        # Same draws in the same order: the caller's stream continues alike.
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestAggregatorOrderInvariance:
    @pytest.mark.parametrize(
        "name", ["fedavg", "median", "trimmed_mean", "masked_sum"]
    )
    @settings(max_examples=15, deadline=None)
    @given(
        grads=st.lists(arrays(np.float64, (5,), elements=finite_floats),
                       min_size=2, max_size=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_aggregate_is_permutation_invariant(self, name, grads, seed):
        updates = [{"w": g} for g in grads]
        base = make_aggregator(name).aggregate(
            RoundBuffer.for_updates(updates)
        )["w"]
        order = np.random.default_rng(seed).permutation(len(updates))
        shuffled = make_aggregator(name).aggregate(
            RoundBuffer.for_updates([updates[i] for i in order])
        )["w"]
        np.testing.assert_allclose(shuffled, base, atol=1e-9)


class TestMaskedSumProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        matrix=arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 30)),
            elements=finite_floats,
        ),
        fractional_bits=st.integers(0, 40),
    )
    def test_aggregate_is_the_exact_fixed_point_mean(self, matrix, fractional_bits):
        # Off the fixed-point grid, so quantization rounds: the aggregate
        # is still the codec's exact ring sum over K, to the last bit.
        aggregator = make_aggregator(
            "masked_sum", fractional_bits=fractional_bits
        )
        out = aggregator.aggregate(
            RoundBuffer.for_updates([{"w": row} for row in matrix])
        )["w"]
        expected = aggregator.codec.exact_sum(matrix) / len(matrix)
        np.testing.assert_array_equal(out, expected)


class TestSecAggRecoveryProperties:
    """Protocol invariant: ANY survivor set of at least the threshold
    recovers the survivors' exact quantized sum bit-for-bit, and any
    smaller set must raise — for both protocol families."""

    def _grid_matrix(self, data, n, dim=4):
        cells = data.draw(
            st.lists(
                st.lists(st.integers(-4000, 4000), min_size=dim, max_size=dim),
                min_size=n,
                max_size=n,
            )
        )
        return np.asarray(cells, dtype=np.float64) / 1024.0

    @pytest.mark.parametrize("protocol_name", ["secagg", "secagg_oneshot"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_any_supra_threshold_survivor_set_recovers_exact_sum(
        self, protocol_name, data
    ):
        n = data.draw(st.integers(min_value=3, max_value=8), label="n")
        matrix = self._grid_matrix(data, n)
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        aggregator = make_aggregator(protocol_name, seed=seed)
        threshold = default_threshold(n)
        k = data.draw(st.integers(min_value=threshold, max_value=n), label="k")
        survivors = sorted(
            data.draw(st.permutations(list(range(n))), label="order")[:k]
        )
        committed = list(range(n))
        recovered = aggregator.reduce(
            matrix[survivors], None, 2, ids=survivors, committed_ids=committed
        )
        exact = aggregator.codec.quantize(matrix[survivors], count=n).sum(
            axis=0, dtype=np.uint64
        )
        expected = aggregator.codec.dequantize_sum(exact) / len(survivors)
        np.testing.assert_array_equal(recovered, expected)

    @pytest.mark.parametrize("protocol_name", ["secagg", "secagg_oneshot"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_any_sub_threshold_survivor_set_raises(self, protocol_name, data):
        from repro.fl import BelowThresholdError

        n = data.draw(st.integers(min_value=3, max_value=8), label="n")
        matrix = self._grid_matrix(data, n)
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        aggregator = make_aggregator(protocol_name, seed=seed)
        threshold = default_threshold(n)
        k = data.draw(st.integers(min_value=1, max_value=threshold - 1), label="k")
        survivors = sorted(
            data.draw(st.permutations(list(range(n))), label="order")[:k]
        )
        with pytest.raises(BelowThresholdError):
            aggregator.reduce(
                matrix[survivors], None, 2, ids=survivors, committed_ids=range(n)
            )

    @pytest.mark.parametrize("protocol_name", ["secagg", "secagg_oneshot"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_pooled_rounds_match_rounds_from_an_empty_pool(self, protocol_name, data):
        """Rounds borrow their large arrays from the buffer pool and hand
        them back when the sum is recovered.  A sequence of rounds of
        varying committed sets, dims and dropout, through one aggregator,
        must give every round the aggregate it gets from an emptied pool:
        a buffer handed back while a view of it lives, or read before it
        is written, would show as a difference here."""
        aggregator = make_aggregator(protocol_name, seed=data.draw(st.integers(0, 99)))
        for round_index in range(data.draw(st.integers(2, 4), label="rounds")):
            committed = data.draw(
                st.lists(st.integers(0, 10**6), min_size=3, max_size=12, unique=True),
                label="committed",
            )
            n = len(committed)
            dim = data.draw(
                st.one_of(st.integers(1, 40), st.integers(1000, 1100)), label="dim"
            )
            k = data.draw(st.integers(default_threshold(n), n), label="survivors")
            survivors = data.draw(st.permutations(committed), label="order")[:k]
            rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
            matrix = rng.integers(-4000, 4000, (k, dim)) / 1024.0
            pooled = aggregator.reduce(
                matrix, None, round_index, ids=survivors, committed_ids=committed
            )
            buffers.clear()
            fresh = aggregator.reduce(
                matrix, None, round_index, ids=survivors, committed_ids=committed
            )
            assert pooled.tobytes() == fresh.tobytes()
            exact = aggregator.codec.quantize(matrix, count=n).sum(
                axis=0, dtype=np.uint64
            )
            expected = aggregator.codec.dequantize_sum(exact) / k
            np.testing.assert_array_equal(pooled, expected)


def reference_mask_sum(seeds, dim):
    """``Σ PRG(s)`` unblocked: every ring mask at once, summed mod 2**64."""
    return keyed_words(0, "secagg-ring-mask", seeds, k=dim).sum(
        axis=0, dtype=np.uint64
    )


class TestBatchedUploadProperties:
    """One ``masked_upload`` call masks a whole round, expanding each
    pairwise mask once for both endpoints.  Every client's row must equal
    its one-client call, and under Bonawitz also the unblocked formula
    ``q_i + PRG(b_i) + Σ_{j>i} PRG(s_ij) − Σ_{j<i} PRG(s_ij)``, for any
    committed set, any uploading subset in any order, and dims on both
    sides of an expansion block."""

    dims = st.one_of(
        st.integers(1, 40),
        st.integers(_BLOCK_WORDS // 8 - 2, _BLOCK_WORDS // 8 + 2),
        st.integers(_BLOCK_WORDS - 2, _BLOCK_WORDS + 3),
    )

    @pytest.mark.parametrize("protocol_name", ["secagg", "secagg_oneshot"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_batched_rows_equal_one_client_calls(self, protocol_name, data):
        committed = sorted(
            data.draw(
                st.sets(st.integers(0, 10**6), min_size=1, max_size=9),
                label="committed",
            )
        )
        # A survivor subset in any listing order.
        uploaders = data.draw(
            st.permutations(committed), label="order"
        )[: data.draw(st.integers(1, len(committed)), label="survivors")]
        dim = data.draw(self.dims, label="dim")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        round_index = data.draw(st.integers(0, 2**20), label="round")
        quantized = np.random.default_rng(seed).integers(
            0, 2**64, (len(uploaders), dim), dtype=np.uint64
        )
        if protocol_name == "secagg":
            session = SecAggProtocol(seed=seed).begin(committed, round_index)
        else:
            session = OneShotRecoveryProtocol(seed=seed).begin(
                committed, round_index, dim=dim
            )
        uploads = session.masked_upload(uploaders, quantized)
        assert [u.client_id for u in uploads] == uploaders
        count = len(committed)
        if protocol_name == "secagg":
            # Both endpoints of a pair derive one seed, so the table keeps
            # pair (i, j) at (min, max) only.
            rectangle = dh_shared_seed(
                session._secret_keys,
                session._public_keys,
                np.ix_(np.arange(count), np.arange(count)),
                round_index,
            )
            np.testing.assert_array_equal(rectangle, rectangle.T)
        for row, (cid, upload) in enumerate(zip(uploaders, uploads)):
            alone = session.masked_upload([cid], quantized[row][None])[0]
            np.testing.assert_array_equal(upload.payload, alone.payload)
            if protocol_name != "secagg":
                continue
            i = committed.index(cid)
            seeds = session._seeds
            expected = (
                quantized[row]
                + reference_mask_sum([seeds[i, count]], dim)
                + reference_mask_sum(seeds[i, i + 1 : count], dim)
                - reference_mask_sum(seeds[:i, i], dim)
            )
            np.testing.assert_array_equal(upload.payload, expected)


# Field elements with the extremes 0 and p - 1 drawn often.
field_elements = st.one_of(
    st.sampled_from([0, PRIME_INT - 1]), st.integers(0, PRIME_INT - 1)
)


def reference_matmul(a, b):
    """``(Σ a·b) mod p`` with Python ints: no limb or fold to get wrong."""
    return np.array(
        [
            [sum(int(x) * int(y) for x, y in zip(row, col)) % PRIME_INT for col in b.T]
            for row in a
        ],
        dtype=np.uint64,
    ).reshape(len(a), b.shape[1])


class TestFieldMatmulProperties:
    """``f_matmul`` is the one accumulation point of both protocols: it
    must equal the exact integer product reduced mod p, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_python_int_reference(self, data):
        m = data.draw(st.integers(1, 8), label="m")
        # k straddles one and two inner chunks of the limb-split GEMM.
        k = data.draw(st.integers(0, 2 * MATMUL_CHUNK + 2), label="k")
        n = data.draw(st.integers(1, 8), label="n")
        a = data.draw(arrays(np.uint64, (m, k), elements=field_elements), label="a")
        b = data.draw(arrays(np.uint64, (k, n), elements=field_elements), label="b")
        np.testing.assert_array_equal(f_matmul(a, b), reference_matmul(a, b))

    def test_long_inner_dimension_of_maximal_elements(self):
        # k = 2049 terms of (p-1)^2 each: three full MATMUL_CHUNK-term
        # chunks of the limb-split GEMM and a short fourth one, with the
        # limb diagonals of every full chunk summed up to about 2**52.
        k = 2049
        a = np.full((2, k), PRIME_INT - 1, dtype=np.uint64)
        b = np.full((k, 3), PRIME_INT - 1, dtype=np.uint64)
        expected = (k * (PRIME_INT - 1) ** 2) % PRIME_INT
        np.testing.assert_array_equal(f_matmul(a, b), np.full((2, 3), expected))

    @pytest.mark.parametrize(
        "k",
        [MATMUL_CHUNK - 1, MATMUL_CHUNK, MATMUL_CHUNK + 1, 2 * MATMUL_CHUNK + 1],
    )
    def test_maximal_elements_at_the_chunk_boundary(self, k):
        a = np.full((3, k), PRIME_INT - 1, dtype=np.uint64)
        b = np.full((k, 2), PRIME_INT - 1, dtype=np.uint64)
        expected = (k * (PRIME_INT - 1) ** 2) % PRIME_INT
        np.testing.assert_array_equal(f_matmul(a, b), np.full((3, 2), expected))

    def test_three_dimensional_non_contiguous_right_operand(self):
        # The (survivors, segments, width) held-segment view that
        # LightSecAgg's recovery_segments transposes before summing.
        rng = np.random.default_rng(3)
        held = rng.integers(0, PRIME_INT, size=(5, 7, 4), dtype=np.uint64)
        b = held.transpose(1, 0, 2)
        assert not b.flags.c_contiguous
        a = rng.integers(0, PRIME_INT, size=(2, 7), dtype=np.uint64)
        expected = reference_matmul(a, b.reshape(7, -1)).reshape(2, 5, 4)
        np.testing.assert_array_equal(f_matmul(a, b), expected)

    def test_row_vector_left_operand(self):
        # The upload sum: a row of ones times every survivor's payload.
        rng = np.random.default_rng(4)
        a = np.ones((1, 9), dtype=np.uint64)
        b = rng.integers(0, PRIME_INT, size=(9, 33), dtype=np.uint64)
        b[0] = PRIME_INT - 1
        np.testing.assert_array_equal(f_matmul(a, b), reference_matmul(a, b))

    # (m, k, n) at the real tile size: m·n just past _TILE splits the
    # output into tiles, just below it leaves one, and k = 0 leaves every
    # tile zero.
    @pytest.mark.parametrize(
        "m, k, n", [(256, 1, 257), (255, 2, 257), (1, 3, 65537), (300, 0, 300)]
    )
    def test_tile_boundaries(self, m, k, n):
        rng = np.random.default_rng(m + k + n)
        a = rng.integers(0, PRIME_INT, size=(m, k), dtype=np.uint64)
        b = rng.integers(0, PRIME_INT, size=(k, n), dtype=np.uint64)
        np.testing.assert_array_equal(f_matmul(a, b), reference_matmul(a, b))

    # k around MATMUL_CHUNK with several row or column tiles, so every
    # tile folds after each chunk: a small tile budget keeps the Python
    # int reference affordable.
    @pytest.mark.parametrize(
        "m, k, n",
        [
            (2, MATMUL_CHUNK - 1, 1370),
            (2, MATMUL_CHUNK + 1, 1370),
            (2740, MATMUL_CHUNK + 1, 2),
            (40, 5, 37),
        ],
    )
    def test_chunks_across_several_tiles(self, monkeypatch, m, k, n):
        monkeypatch.setattr(field, "_TILE", 64)
        monkeypatch.setattr(field, "_MIN_TILE_COLUMNS", 4)
        height, width = field._tile_shape(m, n, k)
        assert height < m or width < n
        rng = np.random.default_rng(k)
        a = rng.integers(0, PRIME_INT, size=(m, k), dtype=np.uint64)
        b = rng.integers(0, PRIME_INT, size=(k, n), dtype=np.uint64)
        a[0], b[:, -1] = PRIME_INT - 1, PRIME_INT - 1
        np.testing.assert_array_equal(f_matmul(a, b), reference_matmul(a, b))


def reference_mask_rows(seeds, plus, minus, rows, dim):
    """``ring_mask_rows`` one mask at a time, unblocked: each mask added
    to its ``plus`` row and subtracted from its ``minus`` row, a negative
    row skipping that side."""
    out = np.zeros((rows, dim), dtype=np.uint64)
    masks = keyed_words(0, "secagg-ring-mask", seeds, k=dim)
    for mask, add, subtract in zip(masks, plus, minus):
        if add >= 0:
            out[add] += mask
        if subtract >= 0:
            out[subtract] -= mask
    return out


class TestRingMaskRowsProperties:
    """``ring_mask_rows`` folds a run of masks into one pass per side: a
    two-sided run's minus rows are one slab, a one-sided run's masks sum
    into one row.  Whatever the runs, and wherever an expansion block
    cuts them, every row must equal the one-mask-at-a-time reference."""

    ROWS = 6
    # Few seeds per expansion block (a block holds _BLOCK_WORDS words),
    # so runs straddle blocks; and masks longer than one block.
    dims = st.one_of(
        st.integers(1, 12),
        st.integers(_BLOCK_WORDS // 3 - 1, _BLOCK_WORDS // 3 + 1),
        st.integers(_BLOCK_WORDS - 1, _BLOCK_WORDS + 2),
    )
    runs = st.lists(
        st.tuples(
            st.sampled_from(["slab", "plus", "minus", "skipped"]),
            st.integers(0, ROWS - 1),
            st.integers(0, ROWS - 1),
            st.integers(1, 5),
        ),
        max_size=6,
    )

    @settings(max_examples=40, deadline=None)
    @given(runs=runs, dim=dims, seed=st.integers(0, 2**16))
    def test_runs_equal_the_per_mask_reference(self, runs, dim, seed):
        plus, minus = [], []
        for kind, add, subtract, length in runs:
            if kind == "slab":
                length = min(length, self.ROWS - subtract)
                plus += [add] * length
                minus += list(range(subtract, subtract + length))
            else:
                plus += [add if kind == "plus" else -1] * length
                minus += [subtract if kind == "minus" else -1] * length
        self._check(plus, minus, dim, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(-2, ROWS - 1), st.integers(-2, ROWS - 1)),
            max_size=24,
        ),
        dim=dims,
        seed=st.integers(0, 2**16),
    )
    def test_any_rows_equal_the_per_mask_reference(self, rows, dim, seed):
        # Unordered rows: runs break wherever the pattern does.
        self._check([p for p, _ in rows], [m for _, m in rows], dim, seed)

    def _check(self, plus, minus, dim, seed):
        count = len(plus)
        seeds = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64)
        start = np.random.default_rng(seed + 1).integers(
            0, 2**64, (self.ROWS, dim), dtype=np.uint64
        )
        out = masking.ring_mask_rows(seeds, plus, minus, start.copy())
        expected = start + reference_mask_rows(seeds, plus, minus, self.ROWS, dim)
        np.testing.assert_array_equal(out, expected)


class TestFieldMatmulExactness:
    """The three weight classes fold four times the top limb's products
    into the lower diagonals: at a full inner chunk of entries ``p - 1``
    every class sum sits at its largest, and must stay exact."""

    @pytest.mark.parametrize("k", [MATMUL_CHUNK, MATMUL_CHUNK + 1])
    def test_maximal_entries_equal_python_int_products(self, k):
        a = np.full((2, k), PRIME_INT - 1, dtype=np.uint64)
        b = np.full((k, 3), PRIME_INT - 1, dtype=np.uint64)
        np.testing.assert_array_equal(f_matmul(a, b), reference_matmul(a, b))


class TestFieldPowProperties:
    """The windowed ``f_pow`` builds powers at the base's own shape and
    gathers them at the broadcast shape: every pair must still equal
    Python's ``pow``, whichever argument carries which axes."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_python_pow_under_broadcasting(self, data):
        rows = data.draw(st.integers(1, 5), label="rows")
        cols = data.draw(st.integers(1, 5), label="cols")
        shapes = st.sampled_from([(rows, 1), (1, cols), (rows, cols), ()])
        base = data.draw(
            arrays(np.uint64, data.draw(shapes), elements=field_elements),
            label="base",
        )
        exponent = data.draw(
            arrays(np.uint64, data.draw(shapes), elements=st.integers(0, 2**64 - 1)),
            label="exponent",
        )
        result = f_pow(base, exponent)
        b, e = np.broadcast_arrays(base, exponent)
        expected = np.array(
            [pow(int(x), int(y), PRIME_INT) for x, y in zip(b.ravel(), e.ravel())],
            dtype=np.uint64,
        ).reshape(b.shape)
        np.testing.assert_array_equal(np.asarray(result), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        keys=arrays(
            np.uint64,
            st.integers(0, 40),
            elements=st.one_of(
                st.sampled_from([0, 1, PRIME_INT - 2, 2**64 - 1]),
                st.integers(0, 2**64 - 1),
            ),
        )
    )
    def test_fixed_base_public_keys_equal_f_pow(self, keys):
        np.testing.assert_array_equal(dh_public_key(keys), f_pow(7, keys))

    def test_fixed_base_public_keys_at_the_edges(self):
        keys = np.array([0, 1, PRIME_INT - 2, 2**64 - 1], dtype=np.uint64)
        expected = [pow(7, int(key), PRIME_INT) for key in keys]
        np.testing.assert_array_equal(dh_public_key(keys), expected)
        np.testing.assert_array_equal(dh_public_key(keys), f_pow(7, keys))

    @settings(max_examples=40, deadline=None)
    @given(a=arrays(np.uint64, st.integers(0, 40), elements=field_elements))
    def test_batch_inverse_is_elementwise(self, a):
        inverses = f_inv(a)
        nonzero = a != 0
        np.testing.assert_array_equal(inverses[~nonzero], 0)
        np.testing.assert_array_equal(f_mul(a, inverses)[nonzero], 1)


# Diffie-Hellman secret keys over the protocol's range [1, p - 2], with
# both ends drawn often.
secret_keys = st.one_of(
    st.sampled_from([1, PRIME_INT - 2]), st.integers(1, PRIME_INT - 2)
)


class TestKeyAgreementProperties:
    """Both endpoints of a pair derive the same seed.  The commit phase
    agrees each unordered pair once and mirrors it, so a batched upload
    no longer shows the symmetry that makes pairwise masks cancel; these
    properties check it on the key agreement itself."""

    @settings(max_examples=60, deadline=None)
    @given(a=secret_keys, b=secret_keys, round_index=st.integers(0, 2**20))
    def test_both_endpoints_derive_the_same_seed(self, a, b, round_index):
        keys = np.array([a, b], dtype=np.uint64)
        public = dh_public_key(keys)
        pair = ([0], [0])
        ab = dh_shared_seed(keys[:1], public[1:], pair, round_index)
        ba = dh_shared_seed(keys[1:], public[:1], pair, round_index)
        shared = pow(pow(7, b, PRIME_INT), a, PRIME_INT)
        expected = keyed_words(0, "secagg-pairwise", [shared], round_index)[:, 0]
        np.testing.assert_array_equal(ab, expected)
        np.testing.assert_array_equal(ba, expected)

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(secret_keys, min_size=1, max_size=12),
        round_index=st.integers(0, 2**20),
    )
    def test_pairs_agreed_once_equal_the_rectangle(self, keys, round_index):
        keys = np.array(keys, dtype=np.uint64)
        public = dh_public_key(keys)
        count = len(keys)
        rectangle = dh_shared_seed(
            keys, public, np.ix_(np.arange(count), np.arange(count)), round_index
        )
        np.testing.assert_array_equal(rectangle, rectangle.T)
        first, second = np.triu_indices(count, 1)
        once = dh_shared_seed(keys, public, (first, second), round_index)
        np.testing.assert_array_equal(once, rectangle[first, second])

    @settings(max_examples=20, deadline=None)
    @given(
        committed=st.sets(st.integers(0, 10**6), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
        round_index=st.integers(0, 2**20),
    )
    def test_commit_matrix_is_the_rectangle_off_the_diagonal(
        self, committed, seed, round_index
    ):
        session = SecAggProtocol(seed=seed).begin(sorted(committed), round_index)
        count = len(committed)
        rectangle = dh_shared_seed(
            session._secret_keys,
            session._public_keys,
            np.ix_(np.arange(count), np.arange(count)),
            round_index,
        )
        # Symmetric, so the table's (min, max) entry is both endpoints' seed.
        np.testing.assert_array_equal(rectangle, rectangle.T)
        first, second = np.triu_indices(count, 1)
        np.testing.assert_array_equal(
            session._seeds[first, second], rectangle[first, second]
        )
        np.testing.assert_array_equal(
            session._seeds[:, count], session._self_mask_seeds
        )


def reference_close(times, opened_at, cutoff):
    """The event-heap loop the sorted timeline replaced, as a reference.

    Completions and the round's close event pop in ``(tick, kind)``
    order, completions first at equal ticks; returns the on-time count
    and the close tick exactly as that loop produced them.
    """
    if isinstance(cutoff, CountCutoff):
        target, deadline, min_arrivals = len(times), None, 0
    else:
        target, deadline = None, opened_at + cutoff.duration
        min_arrivals = cutoff.min_arrivals
    events = [(tick, 0) for tick in times]
    if deadline is not None:
        events.append((deadline, 1))
    heapq.heapify(events)
    fresh, closed, closed_at = 0, target == 0, None
    if closed:
        closed_at = opened_at
    deadline_passed, last_on_time = False, opened_at
    while events:
        tick, kind = heapq.heappop(events)
        if kind == 1:
            deadline_passed = True
            if fresh >= min_arrivals or not events:
                closed, closed_at = True, tick
            continue
        if not closed:
            fresh, last_on_time = fresh + 1, tick
            if (target is not None and fresh >= target) or (
                deadline_passed and fresh >= min_arrivals
            ):
                closed, closed_at = True, tick
    return fresh, max(last_on_time if closed_at is None else closed_at, opened_at)


class TestRoundTimelineProperties:
    """Engine invariant: a round's timeline is a pure function of its plan.

    Completions sort on ``(tick, client_id)`` — never on the order the
    arrival process listed them — and arrival draws are keyed per
    ``(client, round)``, so the order clients were registered, selected
    or dispatched can never leak into the round.  This is what makes
    time-cutoff arms byte-identical across serial and parallel sweeps.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=1, max_value=10_000),
            ),
            min_size=1,
            max_size=24,
            unique_by=lambda pair: pair[0],
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_timeline_invariant_to_dispatch_order(self, pairs, seed):
        order = np.random.default_rng(seed).permutation(len(pairs))
        ids, times = RoundPlan(
            client_ids=[pairs[i][0] for i in order],
            times=[pairs[i][1] for i in order],
        ).timeline()
        expected = sorted(pairs, key=lambda pair: (pair[1], pair[0]))
        assert list(zip(ids.tolist(), times.tolist())) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        # Narrow tick ranges make ties, and ticks exactly at the deadline,
        # common — the cases the kind ordering of the event loop decided.
        offsets=st.lists(st.integers(min_value=1, max_value=12), max_size=20),
        opened_at=st.integers(min_value=0, max_value=1000),
        timed=st.booleans(),
        knob=st.integers(min_value=0, max_value=8),
        duration=st.integers(min_value=1, max_value=14),
    )
    def test_cutoff_split_matches_event_loop(
        self, offsets, opened_at, timed, knob, duration
    ):
        times = np.sort(np.asarray(offsets, dtype=np.int64) + opened_at)
        cutoff = TimeCutoff(duration, min_arrivals=knob) if timed else CountCutoff()
        on_time, closed_at = cutoff.close(times, opened_at)
        reference = reference_close(times.tolist(), opened_at, cutoff)
        assert (on_time, max(closed_at, opened_at)) == reference

    @settings(max_examples=25, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1,
            max_size=16,
            unique=True,
        ),
        round_index=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
        arrivals_seed=st.integers(min_value=0, max_value=2**8),
    )
    def test_arrival_plans_invariant_to_registration_order(
        self, ids, round_index, seed, arrivals_seed
    ):
        # Trace draws are keyed per (client, round), so the plan's
        # completion tick for a client cannot depend on cohort order.
        order = np.random.default_rng(seed).permutation(len(ids))
        for process in (
            UniformArrivals(seed=arrivals_seed),
            TieredArrivals(seed=arrivals_seed),
        ):
            plans = [
                process.plan_round(cohort, round_index, 7, np.random.default_rng(0))
                for cohort in (ids, [ids[i] for i in order])
            ]
            base, shuffled = (
                dict(zip(plan.client_ids.tolist(), plan.times.tolist()))
                for plan in plans
            )
            assert shuffled == base
            assert sorted(plans[1].unavailable) == sorted(plans[0].unavailable)

    @settings(max_examples=40, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=2**40),
            min_size=1,
            max_size=32,
            unique=True,
        ),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**63),
        round_index=st.integers(min_value=0, max_value=2**20),
        k=st.integers(min_value=1, max_value=5),
    )
    def test_keyed_draws_for_a_subset_are_rows_of_the_full_draw(
        self, ids, data, seed, round_index, k
    ):
        rows = data.draw(
            st.lists(st.sampled_from(range(len(ids))), unique=True), label="rows"
        )
        full = keyed_words(seed, "cohort", ids, round_index, k)
        subset = keyed_words(seed, "cohort", [ids[i] for i in rows], round_index, k)
        np.testing.assert_array_equal(subset, full[rows].reshape(-1, k))
