"""Secure-aggregation protocol rounds: field math, Shamir recovery,
Bonawitz and one-shot choreography, and the server's commit-then-drop
window.

The load-bearing claim throughout: a client dropping *after* mask
commitment — the failure mode plain ``masked_sum`` cannot even express —
leaves the server able to recover the survivors' exact quantized sum
bit-for-bit, and below the Shamir threshold recovery must fail loudly.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.fl import (
    DishonestServer,
    FixedPointCodec,
    Fleet,
    GradientUpdate,
    Server,
    make_aggregator,
)
from repro.fl.secagg import (
    BelowThresholdError,
    OneShotRecoveryProtocol,
    SecAggError,
    SecAggProtocol,
    default_threshold,
)
from repro.fl.secagg import field as F
from repro.fl.secagg import masking
from repro.fl.secagg.shamir import reconstruct_secrets, share_polynomials
from repro.fl.engine import TimeCutoff, ticks
from repro.nn.module import Module
from repro.utils import keyed_words

DIM = 5
PROTOCOL_NAMES = ["secagg", "secagg_oneshot"]
# Late arrivals through the real timeline: latencies uniform on 0.1-1.0 s
# against a 0.8 s deadline leave about one client in five late, so a
# round's survivors still clear the strict-majority threshold.
LATE_ARRIVALS = dict(
    arrivals="uniform(low_s=0.1, high_s=1.0)", cutoff=TimeCutoff(ticks(0.8))
)


def field_elements(rng, size):
    """Uniform canonical field elements."""
    return rng.integers(0, F.PRIME_INT, size=size, dtype=np.uint64)


def grid_matrix(count, dim=DIM, seed=0):
    """Updates on the 2^-16 fixed-point grid: quantization is lossless."""
    rng = np.random.default_rng(seed)
    return rng.integers(-4000, 4000, (count, dim)) / 1024.0


class StubClient:
    """Deterministic fake client: every gradient entry equals its id."""

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id

    def local_update(self, broadcast) -> GradientUpdate:
        return GradientUpdate(
            client_id=self.client_id,
            round_index=broadcast.round_index,
            num_examples=1,
            gradients={"w": np.full(DIM, float(self.client_id))},
            loss=float(self.client_id),
        )


def make_stub_server(num_clients, **kwargs):
    return Server(Module(), Fleet(num_clients, StubClient), **kwargs)


class TestField:
    def test_mul_matches_python_bigints(self):
        rng = np.random.default_rng(0)
        a = field_elements(rng, 256)
        b = field_elements(rng, 256)
        reference = np.array(
            [(int(x) * int(y)) % F.PRIME_INT for x, y in zip(a, b)],
            dtype=np.uint64,
        )
        np.testing.assert_array_equal(F.f_mul(a, b), reference)

    def test_elementwise_pow_matches_python_pow(self):
        # The vectorized Diffie–Hellman key agreement rests on this.
        rng = np.random.default_rng(2)
        bases = field_elements(rng, 64)
        exponents = field_elements(rng, (3, 1))
        reference = np.array(
            [[pow(int(x), int(e), F.PRIME_INT) for x in bases] for e in exponents[:, 0]],
            dtype=np.uint64,
        )
        np.testing.assert_array_equal(F.f_pow(bases[None, :], exponents), reference)
        assert int(F.f_pow(7, 0)) == 1

    def test_add_sub_inverse(self):
        rng = np.random.default_rng(1)
        a = field_elements(rng, 64)
        b = field_elements(rng, 64)
        np.testing.assert_array_equal(F.f_sub(F.f_add(a, b), b), a)
        np.testing.assert_array_equal(F.f_add(a, F.f_sub(0, a)), np.zeros(64, np.uint64))

    def test_in_place_sums_match_python_ints(self):
        # f_add_into and f_sum run the LightSecAgg upload and recovery
        # totals in place; check them against Python bigints, with terms
        # at the top of the field so every 32-bit half carries.
        rng = np.random.default_rng(4)
        terms = field_elements(rng, (40, 33))
        terms[:5] = F.PRIME_INT - 1
        reference = np.array(
            [sum(int(x) for x in column) % F.PRIME_INT for column in terms.T],
            dtype=np.uint64,
        )
        np.testing.assert_array_equal(F.f_sum(terms, (33,)), reference)
        np.testing.assert_array_equal(F.f_sum([], (2, 3)), np.zeros((2, 3), np.uint64))
        a, b = terms[0].copy(), terms[1].copy()
        np.testing.assert_array_equal(F.f_add_into(a, b), F.f_add(terms[0], terms[1]))

    def test_multiplicative_inverse(self):
        rng = np.random.default_rng(2)
        a = field_elements(rng, 64)
        a[a == 0] = 1
        np.testing.assert_array_equal(
            F.f_mul(a, F.f_inv(a)), np.ones(64, np.uint64)
        )

    def test_signed_embedding_round_trip(self):
        values = np.array([0, 1, -1, 2**40, -(2**40), 2**59, -(2**59)], dtype=np.int64)
        np.testing.assert_array_equal(
            F.from_field_centered(F.to_field(values)), values
        )

    def test_interpolate_identity_and_shift(self):
        rng = np.random.default_rng(3)
        xs = np.arange(1, 7, dtype=np.uint64)
        ys = field_elements(rng, (6, 9))
        np.testing.assert_array_equal(F.interpolate(xs, ys, xs), ys)
        # Evaluating a degree-1 polynomial y = 3x + 5 anywhere is exact.
        line_xs = np.array([1, 2], dtype=np.uint64)
        line_ys = np.array([[8], [11]], dtype=np.uint64)
        at_ten = F.interpolate(line_xs, line_ys, np.array([10], dtype=np.uint64))
        np.testing.assert_array_equal(at_ten, [[35]])


# Exponents at the edges of the windowed f_pow: empty, single-bit, the
# Fermat inverse, p - 1 and the full 64-bit word (sixteen 4-bit windows).
EDGE_EXPONENTS = [0, 1, F.PRIME_INT - 2, F.PRIME_INT - 1, 2**64 - 1]


def reference_pow(bases, exponents):
    """Python ``pow`` over every (base, exponent) pair, as a matrix."""
    return np.array(
        [[pow(int(b), int(e), F.PRIME_INT) for e in exponents] for b in bases],
        dtype=np.uint64,
    )


def reference_basis(xs, targets):
    """Lagrange basis ``l_j(t)`` with Python ints: one product per entry."""
    p = F.PRIME_INT
    rows = []
    for t in map(int, targets):
        row = []
        for j, xj in enumerate(map(int, xs)):
            numerator = denominator = 1
            for i, xi in enumerate(map(int, xs)):
                if i != j:
                    numerator = numerator * (t - xi) % p
                    denominator = denominator * (xj - xi) % p
            row.append(numerator * pow(denominator, p - 2, p) % p)
        rows.append(row)
    return np.array(rows, dtype=np.uint64)


class TestFieldPowAndInverse:
    def test_pow_with_base_broadcast_along_either_axis(self):
        rng = np.random.default_rng(11)
        bases = np.concatenate(
            [[0, 1, 7, F.PRIME_INT - 1], field_elements(rng, 4)]
        ).astype(np.uint64)
        exponents = np.concatenate(
            [
                np.array(EDGE_EXPONENTS, dtype=np.uint64),
                rng.integers(0, 2**63, 4, dtype=np.uint64),
            ]
        )
        reference = reference_pow(bases, exponents)
        # Bases down the rows (the Shamir Vandermonde), then across the
        # columns (the Diffie-Hellman peer keys).
        np.testing.assert_array_equal(
            F.f_pow(bases[:, None], exponents[None, :]), reference
        )
        np.testing.assert_array_equal(
            F.f_pow(bases[None, :], exponents[:, None]), reference.T
        )

    @pytest.mark.parametrize("block", [1, 3, 7, 64])
    def test_pow_gather_across_blocks(self, monkeypatch, block):
        # f_pow_gather raises its result a block of rows at a time; a
        # tiny block makes every block boundary show, for one index per
        # element (the commit's pairs) and for broadcast rows (recovery).
        monkeypatch.setattr(F, "_POW_BLOCK", block)
        rng = np.random.default_rng(block)
        bases = np.concatenate([[0, F.PRIME_INT - 1], field_elements(rng, 4)])
        bases = bases.astype(np.uint64)
        exponents = np.concatenate(
            [
                np.array(EDGE_EXPONENTS, dtype=np.uint64),
                rng.integers(0, 2**63, 4, dtype=np.uint64),
            ]
        )
        reference = reference_pow(bases, exponents)
        which, column = np.indices(reference.shape).reshape(2, -1)
        # One table of the bases serves both gathers.
        powers = F.window_powers(bases, 16)
        np.testing.assert_array_equal(
            F.f_pow_gather(powers, which, exponents[column]), reference[which, column]
        )
        np.testing.assert_array_equal(
            F.f_pow_gather(powers, np.arange(len(bases))[None, :], exponents[:, None]),
            reference.T,
        )
        np.testing.assert_array_equal(
            F.f_pow(bases[:, None], exponents[None, :]), reference
        )

    def test_pow_with_full_shape_base_and_scalar_exponent(self):
        rng = np.random.default_rng(12)
        bases = field_elements(rng, (3, 5))
        for exponent in EDGE_EXPONENTS:
            expected = reference_pow(bases.reshape(-1), [exponent]).reshape(3, 5)
            np.testing.assert_array_equal(F.f_pow(bases, exponent), expected)

    def test_pow_of_scalars_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert int(F.f_pow(3, 5)) == 243
            assert int(F.f_pow(7, 0)) == 1
            for exponent in EDGE_EXPONENTS:
                assert int(F.f_pow(7, exponent)) == pow(7, exponent, F.PRIME_INT)
            keys = np.array([1, 2, F.PRIME_INT - 2], dtype=np.uint64)
            np.testing.assert_array_equal(
                masking.dh_public_key(keys), reference_pow([7], keys)[0]
            )

    def test_pow_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            F.f_pow(3, np.array([1, -1]))

    def test_inverse_maps_zero_to_zero(self):
        rng = np.random.default_rng(13)
        a = field_elements(rng, (4, 6))
        a[0, 0] = a[2, 3] = a[3, 5] = 0
        inverses = F.f_inv(a)
        assert inverses.shape == a.shape
        zero = a == 0
        np.testing.assert_array_equal(inverses[zero], 0)
        np.testing.assert_array_equal(F.f_mul(a, inverses)[~zero], 1)
        np.testing.assert_array_equal(F.f_inv(np.zeros(3, np.uint64)), 0)

    def test_inverse_of_a_scalar_and_of_an_empty_array(self):
        assert int(F.f_mul(F.f_inv(5), 5)) == 1
        empty = F.f_inv(np.array([], dtype=np.uint64))
        assert empty.shape == (0,) and empty.dtype == np.uint64


class TestLagrangeBasis:
    @pytest.mark.parametrize("k", [1, 2, 3, 51, 64, 65])
    def test_equals_python_int_reference(self, k):
        rng = np.random.default_rng(k)
        xs = rng.choice(10**6, size=k, replace=False).astype(np.uint64) + 1
        # Random targets, zero (Shamir reconstruction) and one target
        # equal to an interpolation point.
        targets = np.concatenate([field_elements(rng, 4), [0, xs[k // 2]]]).astype(
            np.uint64
        )
        basis = F.lagrange_basis(xs, targets)
        np.testing.assert_array_equal(basis, reference_basis(xs, targets))
        np.testing.assert_array_equal(basis[-1], np.eye(k, dtype=np.uint64)[k // 2])

    def test_points_map_to_the_identity(self):
        xs = np.arange(1, 40, dtype=np.uint64) * 3
        np.testing.assert_array_equal(
            F.lagrange_basis(xs, xs), np.eye(len(xs), dtype=np.uint64)
        )


def reference_mask_sum(seeds, dim):
    """The unblocked expansion: every mask at once, summed mod 2**64."""
    return keyed_words(0, "secagg-ring-mask", seeds, k=dim).sum(
        axis=0, dtype=np.uint64
    )


def one_row_mask_sum(seeds, dim):
    """``Σ PRG(s)`` as the recovery sweep takes it: every mask added into
    one row, no minus side."""
    count = np.size(seeds)
    return masking.ring_mask_rows(
        seeds, np.zeros(count), np.full(count, -1), np.zeros((1, dim), np.uint64)
    )[0]


class TestRingMaskExpansion:
    DIM = 1000
    ROWS = masking._BLOCK_WORDS // DIM  # seeds per expansion block

    @pytest.mark.parametrize("count", [ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 2])
    def test_equals_unblocked_reference_around_the_block_size(self, count):
        seeds = np.random.default_rng(count).integers(0, 2**64, count, dtype=np.uint64)
        np.testing.assert_array_equal(
            one_row_mask_sum(seeds, self.DIM), reference_mask_sum(seeds, self.DIM)
        )

    def test_no_seeds_sum_to_zero(self):
        np.testing.assert_array_equal(
            one_row_mask_sum(np.array([], dtype=np.uint64), 7),
            np.zeros(7, dtype=np.uint64),
        )

    def test_masks_longer_than_one_block(self):
        dim = masking._BLOCK_WORDS + 5
        seeds = np.array([3, 1, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(
            one_row_mask_sum(seeds, dim), reference_mask_sum(seeds, dim)
        )

    def test_scalar_seed_is_one_mask(self):
        seed = np.uint64(12345)
        np.testing.assert_array_equal(
            one_row_mask_sum(seed, 33), reference_mask_sum([seed], 33)
        )


class TestKeyedWordStreams:
    """Literal words: any change to the stream derivation shows here."""

    def test_pinned_ring_mask_words(self):
        words = keyed_words(0, "secagg-ring-mask", [0, 2**64 - 1], k=3)
        np.testing.assert_array_equal(
            words,
            np.array(
                [
                    [0x669A07DF2BF6688D, 0xF8EE599A8D93969E, 0x752846A4D83F8E0A],
                    [0x480FB03526718AD9, 0x3E305595695E6B16, 0xA7D85DD1666ED796],
                ],
                dtype=np.uint64,
            ),
        )

    def test_pinned_words_with_wide_seed_and_round(self):
        np.testing.assert_array_equal(
            keyed_words(7, "secagg-pairwise", [12345], 2**63 + 5, k=2),
            np.array([[0x60B11CB324C033D5, 0xB19B5686B6D7281A]], dtype=np.uint64),
        )
        np.testing.assert_array_equal(
            keyed_words(2**64 - 1, "", [1]),
            np.array([[0x3CEF64A9E193F12F]], dtype=np.uint64),
        )


def share_secrets(secrets, coefficients, num_shares):
    """Shares of ``secrets`` under ``coefficients`` (``(t - 1,) + S``),
    ``num_shares`` rows of them."""
    secrets = np.asarray(secrets, dtype=np.uint64)
    polynomials = np.concatenate([secrets[None], coefficients])
    return share_polynomials(
        polynomials, np.empty((num_shares,) + secrets.shape, dtype=np.uint64)
    )


class TestShamir:
    def test_any_threshold_subset_recovers(self):
        rng = np.random.default_rng(4)
        secrets = field_elements(rng, 6)
        shares = share_secrets(secrets, field_elements(rng, (3, 6)), num_shares=9)
        for subset in ([0, 1, 2, 3], [5, 6, 7, 8], [0, 3, 4, 8]):
            xs = np.asarray(subset, dtype=np.uint64) + 1
            np.testing.assert_array_equal(
                reconstruct_secrets(xs, shares[subset]), secrets
            )

    def test_shares_evaluate_the_sharing_polynomial(self):
        # Share j of secret s with coefficients c is s + c_1 x + c_2 x^2
        # at x = j + 1, and secrets of any shape share elementwise.
        rng = np.random.default_rng(8)
        secrets = field_elements(rng, (4, 2))
        coefficients = field_elements(rng, (2, 4, 2))
        shares = share_secrets(secrets, coefficients, num_shares=5)
        assert shares.shape == (5, 4, 2)
        for j in range(5):
            x = j + 1
            expected = [
                (int(s) + int(c1) * x + int(c2) * x * x) % F.PRIME_INT
                for s, c1, c2 in zip(
                    secrets.ravel(), coefficients[0].ravel(), coefficients[1].ravel()
                )
            ]
            np.testing.assert_array_equal(shares[j].ravel(), expected)

    def test_below_threshold_subset_is_uninformative(self):
        # With t-1 shares the interpolation is underdetermined; the value
        # it happens to produce must not equal the secret (overwhelmingly).
        rng = np.random.default_rng(5)
        secrets = field_elements(rng, 8)
        shares = share_secrets(secrets, field_elements(rng, (3, 8)), num_shares=9)
        xs = np.array([1, 2, 3], dtype=np.uint64)
        assert not np.array_equal(reconstruct_secrets(xs, shares[:3]), secrets)

    def test_duplicate_coordinates_rejected(self):
        rng = np.random.default_rng(6)
        shares = share_secrets(field_elements(rng, 2), field_elements(rng, (2, 2)), 5)
        with pytest.raises(ValueError):
            reconstruct_secrets(np.array([1, 1, 2], np.uint64), shares[[0, 0, 1]])

    def test_invalid_threshold_rejected(self):
        # Three coefficients imply threshold 4, above the 3 shares.
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            share_secrets(field_elements(rng, 1), field_elements(rng, (3, 1)), 3)


class TestBonawitzChoreography:
    def test_commitment_messages(self):
        session = SecAggProtocol(seed=1).begin(list(range(6)), round_index=2)
        assert [a.client_id for a in session.advertisements] == list(range(6))
        assert all(a.round_index == 2 for a in session.advertisements)
        # n^2 shares of each secret: every client shares with everyone,
        # mailboxes indexed [recipient, sender].
        assert session._seed_shares.shape == (6, 6)
        assert session._self_mask_shares.shape == (6, 6)
        _, responses = session.unmask_messages(list(range(6)))
        assert {r.share_x for r in responses} == set(range(1, 7))

    def test_unmask_responses_never_reveal_both_shares(self):
        # A survivor hands over self-mask shares for survivors and key
        # shares for dropped clients — never both for the same sender,
        # or the server could unmask a live upload.  The shares are
        # arrays in the request's sender order, so the request names the
        # senders and the values are the responder's mailbox entries.
        committed = [3, 8, 21, 40, 55, 77]
        session = SecAggProtocol(seed=1).begin(committed, round_index=0)
        request, responses = session.unmask_messages([77, 3, 40, 21])
        assert request.survivor_ids == [3, 21, 40, 77]
        assert request.dropped_ids == [8, 55]
        assert not set(request.survivor_ids) & set(request.dropped_ids)
        assert [r.client_id for r in responses] == request.survivor_ids
        survivors = [committed.index(cid) for cid in request.survivor_ids]
        dropped = [committed.index(cid) for cid in request.dropped_ids]
        for response in responses:
            recipient = committed.index(response.client_id)
            assert response.share_x == recipient + 1
            assert response.self_mask_shares.dtype == np.uint64
            assert response.seed_shares.dtype == np.uint64
            np.testing.assert_array_equal(
                response.self_mask_shares,
                session._self_mask_shares[recipient, survivors],
            )
            np.testing.assert_array_equal(
                response.seed_shares, session._seed_shares[recipient, dropped]
            )

    @pytest.mark.parametrize("cells", [1, 17])
    def test_upload_sweeps_of_any_size_mask_alike(self, monkeypatch, cells):
        # A large round masks its uploaders a few rows per sweep; one row
        # per sweep, or a few, must give the one-sweep payloads.
        from repro.fl.secagg import protocol

        survivors = [5, 0, 3, 6, 2]
        quantized = FixedPointCodec(16).quantize(grid_matrix(5, seed=2), count=8)

        def payloads():
            session = SecAggProtocol(seed=4).begin(range(8), 1)
            uploads = session.masked_upload(survivors, quantized)
            return [np.array(upload.payload) for upload in uploads]

        whole = payloads()
        monkeypatch.setattr(protocol, "_SWEEP_CELLS", cells)
        for row, alone in zip(whole, payloads()):
            np.testing.assert_array_equal(row, alone)

    def test_default_threshold_is_strict_majority(self):
        assert default_threshold(10) == 6
        assert default_threshold(11) == 6
        assert default_threshold(1) == 1
        session = SecAggProtocol(seed=0).begin(list(range(10)), 0)
        assert session.threshold == 6

    def test_uncommitted_clients_rejected(self):
        session = SecAggProtocol(seed=0).begin([1, 2, 3], 0)
        with pytest.raises(SecAggError):
            session.masked_upload([7], np.zeros((1, DIM), np.uint64))


@pytest.mark.parametrize("protocol_cls", [SecAggProtocol, OneShotRecoveryProtocol])
class TestProtocolRecovery:
    def _begin(self, protocol_cls, client_ids, round_index, dim, seed=3):
        protocol = protocol_cls(seed=seed)
        if protocol_cls is OneShotRecoveryProtocol:
            return protocol.begin(client_ids, round_index, dim=dim)
        return protocol.begin(client_ids, round_index)

    def test_exact_sum_with_mid_round_dropout(self, protocol_cls):
        matrix = grid_matrix(12)
        codec = FixedPointCodec(16)
        session = self._begin(protocol_cls, list(range(12)), 4, DIM)
        quantized = codec.quantize(matrix, count=12)
        survivors = [0, 1, 3, 4, 6, 8, 9, 11]  # 4 of 12 drop after commitment
        uploads = session.masked_upload(survivors, quantized[survivors])
        recovered = session.recover_sum(uploads)
        expected = codec.quantize(matrix[survivors], count=12).sum(
            axis=0, dtype=np.uint64
        )
        # Both protocols hand back uint64 ring words for the codec to decode.
        assert recovered.dtype == np.uint64
        np.testing.assert_array_equal(recovered, expected)

    def test_no_dropout_is_exact_too(self, protocol_cls):
        matrix = grid_matrix(7, seed=9)
        codec = FixedPointCodec(16)
        session = self._begin(protocol_cls, list(range(7)), 0, DIM)
        quantized = codec.quantize(matrix, count=7)
        uploads = session.masked_upload(range(7), quantized)
        recovered = session.recover_sum(uploads)
        np.testing.assert_array_equal(
            recovered, codec.quantize(matrix, count=7).sum(axis=0, dtype=np.uint64)
        )

    def test_exactly_threshold_survivors_recover(self, protocol_cls):
        matrix = grid_matrix(9, seed=2)
        codec = FixedPointCodec(16)
        session = self._begin(protocol_cls, list(range(9)), 1, DIM)
        threshold = session.threshold
        quantized = codec.quantize(matrix, count=9)
        survivors = list(range(threshold))
        uploads = session.masked_upload(survivors, quantized[survivors])
        recovered = session.recover_sum(uploads)
        expected = codec.quantize(matrix[survivors], count=9).sum(
            axis=0, dtype=np.uint64
        )
        np.testing.assert_array_equal(recovered, expected)

    def test_below_threshold_raises(self, protocol_cls):
        matrix = grid_matrix(9, seed=2)
        codec = FixedPointCodec(16)
        session = self._begin(protocol_cls, list(range(9)), 1, DIM)
        quantized = codec.quantize(matrix, count=9)
        below = list(range(session.threshold - 1))
        uploads = session.masked_upload(below, quantized[below])
        with pytest.raises(BelowThresholdError):
            session.recover_sum(uploads)

    def test_duplicate_uploads_rejected(self, protocol_cls):
        matrix = grid_matrix(6)
        codec = FixedPointCodec(16)
        session = self._begin(protocol_cls, list(range(6)), 0, DIM)
        quantized = codec.quantize(matrix, count=6)
        upload, *others = session.masked_upload(range(6), quantized)
        with pytest.raises(SecAggError):
            session.recover_sum([upload, upload] + others)

    def test_batched_upload_lists_each_client_once(self, protocol_cls):
        # Uploader rows are ranks in committed order: a repeated id would
        # give one client two rows of one mask set.
        session = self._begin(protocol_cls, list(range(6)), 0, DIM)
        with pytest.raises(SecAggError, match="twice"):
            session.masked_upload([1, 1], np.zeros((2, DIM), np.uint64))

    def test_upload_rows_must_align_with_the_ids(self, protocol_cls):
        # One row for two clients must not broadcast into two uploads.
        session = self._begin(protocol_cls, list(range(6)), 0, DIM)
        with pytest.raises(ValueError):
            session.masked_upload([0, 1], np.zeros((1, DIM), np.uint64))

    def test_uploads_hide_plaintext(self, protocol_cls):
        matrix = grid_matrix(6, seed=5)
        codec = FixedPointCodec(16)
        session = self._begin(protocol_cls, list(range(6)), 0, DIM)
        quantized = codec.quantize(matrix, count=6)
        for cid, upload in enumerate(session.masked_upload(range(6), quantized)):
            assert not np.array_equal(
                np.asarray(upload.payload, dtype=np.uint64),
                quantized[cid],
            )

    def test_rounds_are_replayable(self, protocol_cls):
        # Two sessions for the same (seed, round, clients) run the same
        # protocol execution: a resumed round recovers identical bits.
        matrix = grid_matrix(8, seed=6)
        codec = FixedPointCodec(16)
        survivors = [0, 2, 3, 5, 6]
        results = []
        for _ in range(2):
            session = self._begin(protocol_cls, list(range(8)), 3, DIM)
            quantized = codec.quantize(matrix, count=8)
            uploads = session.masked_upload(survivors, quantized[survivors])
            results.append(session.recover_sum(uploads))
        np.testing.assert_array_equal(results[0], results[1])


class TestOneShotSpecifics:
    def test_one_message_per_survivor_regardless_of_dropout(self):
        session = OneShotRecoveryProtocol(seed=1).begin(list(range(10)), 0, dim=24)
        few_dropped = session.recovery_segments([0, 1, 2, 3, 4, 5, 6, 7])
        many_dropped = session.recovery_segments([0, 1, 2, 3, 4, 5])
        assert all(m.segment.shape == (session.chunk_size,) for m in few_dropped)
        assert all(m.segment.shape == (session.chunk_size,) for m in many_dropped)

    def test_segments_shrink_with_data_chunks(self):
        # dim 24 split across k = threshold - privacy chunks: the whole
        # point of the encoding is sub-linear recovery bandwidth.
        session = OneShotRecoveryProtocol(seed=1).begin(list(range(10)), 0, dim=24)
        assert session.data_chunks == session.threshold - 1
        assert session.chunk_size * session.data_chunks >= 24
        assert session.chunk_size < 24

    def test_mask_is_independent_of_the_committed_set(self):
        # A client's mask is keyed by (seed, client, round) alone: who
        # else committed (and so the threshold and chunking) never moves it.
        masks = [
            OneShotRecoveryProtocol(seed=4)
            .begin(committed, 7, dim=10)
            .masked_upload([5], np.zeros((1, 10), np.uint64))[0]
            .payload
            for committed in ([3, 5, 8], [1, 3, 5, 8, 9])
        ]
        np.testing.assert_array_equal(masks[0], masks[1])
        assert masks[0].any()

    def test_encoded_segments_messages(self):
        session = OneShotRecoveryProtocol(seed=1).begin([3, 5, 8], 2, dim=6)
        # segments[j, i] = f_i(beta_j): one segment per (recipient, sender).
        assert session._segments.shape == (3, 3, session.chunk_size)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
class TestServerIntegration:
    def test_commit_then_drop_round_recovers_survivor_mean(self, name):
        server = make_stub_server(
            16, aggregator=name, seed=11, **LATE_ARRIVALS
        )
        record = server.run_round()
        assert record.straggler_ids, (
            "seeded scenario should lose clients after commitment"
        )
        # Survivors' mean, recovered exactly through the protocol.
        expected = np.full(DIM, np.mean(record.participant_ids))
        np.testing.assert_allclose(server.last_aggregate["w"], expected, atol=2e-5)
        # Commitment covers the whole selected set; losses are recorded.
        assert record.secagg is not None
        assert record.secagg["committed"] == len(record.selected_ids)
        assert record.secagg["survivors"] == len(record.participant_ids)
        assert record.secagg["dropped"] == len(record.dropped_ids) + len(
            record.straggler_ids
        )
        assert record.weighting == "uniform"

    def test_stragglers_are_recovered_not_stale(self, name):
        # Under a protocol aggregator a straggler's late masked upload is
        # useless (its round's masks are gone); the server must discard
        # it and recover via shares — accept_stale becomes inert.
        server = make_stub_server(
            16, aggregator=name, accept_stale=True, seed=3, **LATE_ARRIVALS
        )
        first = server.run_round()
        assert first.straggler_ids
        second = server.run_round()
        assert second.stale_ids == []
        assert set(second.participant_ids).isdisjoint(second.straggler_ids)

    def test_below_threshold_aborts_gracefully(self, name):
        server = make_stub_server(
            10, aggregator=name, dropout_rate=0.97, seed=13, learning_rate=0.5
        )
        record = server.run_round()
        assert len(record.selected_ids) - len(record.dropped_ids) < 6
        assert record.secagg is not None and record.secagg.get("aborted")
        assert record.participant_ids == []
        assert np.isnan(record.mean_loss)
        assert server.last_aggregate is None
        # The model took no step and the next round proceeds normally.
        assert server.round_index == 1

    def test_server_never_inspects_individual_updates(self, name):
        class PerUpdateAttack:
            """A per-update inversion attack: needs plaintext updates."""

            name = "stub_inversion"
            calls = 0

            def craft(self, model):
                pass

            def reconstruct(self, gradients):
                type(self).calls += 1
                return []

        attack = PerUpdateAttack()
        server = DishonestServer(
            Module(),
            Fleet(8, StubClient),
            attack,
            aggregator=name,
            seed=0,
        )
        record = server.run_round()
        # Under real secure aggregation the server only ever holds masked
        # payloads, so per-update inversion gets nothing...
        assert PerUpdateAttack.calls == 0
        assert record.attack_events == []
        assert server.reconstructions == {}

    def test_aggregate_inversion_hook_still_fires(self, name):
        class AggregateAttack:
            """A LOKI-style attack reconstructing from the aggregate."""

            name = "stub_aggregate"
            reconstructs_from_aggregate = True

            def craft(self, model):
                pass

            def reconstruct_per_client(self, aggregated):
                return {0: ["recon"]}

        server = DishonestServer(
            Module(),
            Fleet(8, StubClient),
            AggregateAttack(),
            aggregator=name,
            seed=0,
        )
        record = server.run_round()
        # ... but aggregate inversion sees exactly what secure aggregation
        # reveals — the sum — so it still operates (the ROADMAP question).
        assert len(record.attack_events) == 1
        assert record.attack_events[0]["from_aggregate"]

    def test_plain_aggregators_record_no_secagg_metadata(self, name):
        server = make_stub_server(6, aggregator="fedavg")
        record = server.run_round()
        assert record.secagg is None
        assert record.aggregator == "fedavg"
        # name fixture unused here on purpose: the contrast is the point.
        assert name in PROTOCOL_NAMES


class TestHundredClientAcceptance:
    """The issue's acceptance bar: 100 clients, 30% dropped after mask
    commitment, exact quantized sum recovered bit-for-bit — both
    protocols."""

    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_exact_sum_at_30pct_dropout(self, name):
        num_clients = 100
        matrix = grid_matrix(num_clients, dim=32, seed=17)
        aggregator = make_aggregator(name, seed=5)
        committed = list(range(num_clients))
        # Drop exactly 30 clients deterministically, after commitment.
        dropped = set(range(0, num_clients, 10)) | set(range(1, num_clients, 5))
        survivors = [cid for cid in committed if cid not in dropped]
        assert len(survivors) == 70
        aggregated = aggregator.reduce(
            matrix[survivors], None, 9, ids=survivors, committed_ids=committed
        )
        exact = aggregator.codec.quantize(matrix[survivors], count=num_clients).sum(
            axis=0, dtype=np.uint64
        )
        expected = aggregator.codec.dequantize_sum(exact) / len(survivors)
        np.testing.assert_array_equal(aggregated, expected)
        assert aggregator.last_metadata["survivors"] == 70
        assert aggregator.last_metadata["committed"] == 100


# --------------------------------------------------------------------------
# Protocol round bytes pinned by digest: uploads, segments, mailboxes, sums.
# --------------------------------------------------------------------------


def _protocol_round_digests(name: str, monkeypatch) -> dict:
    """sha256 of three consecutive 100-committed, 30%-dropout rounds run
    through one aggregator, one digest per output kind.

    The recovered sum does not depend on the mask values, so only these
    digests notice a kernel that changes the masks but still cancels
    them.  Spies on the session methods read every message as the server
    consumes it, on the aggregator's own path (so buffers a round borrows
    are returned between rounds).
    """
    import hashlib

    from repro.fl.secagg.lightsecagg import OneShotRound
    from repro.fl.secagg.protocol import SecAggRound

    kinds = ("payloads", "sums") + (
        ("mailboxes",) if name == "secagg" else ("segments",)
    )
    hashes = {kind: hashlib.sha256() for kind in kinds}
    session_cls = SecAggRound if name == "secagg" else OneShotRound
    recover, segments = session_cls.recover_sum, OneShotRound.recovery_segments

    def spied_recover(session, uploads):
        for upload in uploads:
            hashes["payloads"].update(np.asarray(upload.payload).tobytes())
        if name == "secagg":
            for mailbox in (session._seed_shares, session._self_mask_shares):
                hashes["mailboxes"].update(np.ascontiguousarray(mailbox).tobytes())
        total = recover(session, uploads)
        hashes["sums"].update(total.tobytes())
        return total

    def spied_segments(session, survivor_ids):
        messages = segments(session, survivor_ids)
        for message in messages:
            hashes["segments"].update(message.segment.tobytes())
        return messages

    monkeypatch.setattr(session_cls, "recover_sum", spied_recover)
    monkeypatch.setattr(OneShotRound, "recovery_segments", spied_segments)
    rng = np.random.default_rng(41)
    aggregator = make_aggregator(name, seed=11)
    for round_index in range(3):
        committed = np.sort(rng.choice(100_000, 100, replace=False)).tolist()
        survivors = sorted(rng.choice(committed, 70, replace=False).tolist())
        matrix = rng.standard_normal((70, 1024)) * 0.05
        aggregator.reduce(
            matrix, None, round_index, ids=survivors, committed_ids=committed
        )
    return {kind: hasher.hexdigest() for kind, hasher in hashes.items()}


# Computed before protocol rounds pooled their arrays and ran their field
# kernels in place; neither may move a byte any round sends or recovers.
PROTOCOL_ROUND_DIGESTS = {
    "secagg": {
        "payloads": "fbdd2613b35e38bb9b37a7effaaa8211c8b9bc18ac43f3187444b5ed86e8e3f4",
        "sums": "4b9911079e1eba5b38d5277da9eb77e16ba48a29d56e3d6ec6bd2c731459f4ee",
        "mailboxes": "02b92490bea9223a9017a982f0237d12db6fa9e4fccd898a7cdec6090290e42a",
    },
    "secagg_oneshot": {
        "payloads": "293eef6c889361c6c244058a06d3e531f6e749b670b54432fd250963bed54c12",
        "sums": "4b9911079e1eba5b38d5277da9eb77e16ba48a29d56e3d6ec6bd2c731459f4ee",
        "segments": "59f99b03e2f3c688769115b33de856b9a2fafa7784b8b8f6fd3e6ecad3fc8205",
    },
}


class TestProtocolRoundDigests:
    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_rounds_match_their_digests(self, name, monkeypatch):
        digests = _protocol_round_digests(name, monkeypatch)
        assert digests == PROTOCOL_ROUND_DIGESTS[name]


class TestRoundMemory:
    """A protocol round runs in arrays it borrows from the tensor buffer
    pool and returns once the sum is recovered, so a steady-state round
    allocates little beyond its small messages."""

    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_steady_state_round_peak_stays_under_one_mib(self, name):
        import tracemalloc

        rng = np.random.default_rng(8)
        committed = np.sort(rng.choice(100_000, 100, replace=False)).tolist()
        survivors = sorted(rng.choice(committed, 70, replace=False).tolist())
        matrix = rng.standard_normal((70, 1024)) * 0.05
        aggregator = make_aggregator(name, seed=2)
        for round_index in range(2):  # warm-up: fills the pool
            aggregator.reduce(
                matrix, None, round_index, ids=survivors, committed_ids=committed
            )
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            aggregator.reduce(matrix, None, 2, ids=survivors, committed_ids=committed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 1 << 20, f"{(peak - start) / 2**20:.2f} MiB"

    @pytest.mark.slow
    def test_thousand_client_bonawitz_round_peak(self):
        # 1000 committed, 700 surviving, dim 64: the parts that do not
        # depend on the dim (key agreement, Shamir sharing, unmasking) are
        # all of the round's memory.  It peaks at 53.8 MiB, at Shamir
        # sharing; the cap sits below the 93.7 MiB of a round whose commit
        # agrees all n**2 ordered pairs and whose unmask responses are
        # dicts of Python ints.
        import tracemalloc

        rng = np.random.default_rng(8)
        committed = np.sort(rng.choice(100_000, 1000, replace=False)).tolist()
        survivors = sorted(rng.choice(committed, 700, replace=False).tolist())
        matrix = rng.standard_normal((700, 64)) * 0.05
        aggregator = make_aggregator("secagg", seed=2)
        for round_index in range(2):  # warm-up: fills the pool
            aggregator.reduce(
                matrix, None, round_index, ids=survivors, committed_ids=committed
            )
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            aggregator.reduce(matrix, None, 2, ids=survivors, committed_ids=committed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 60 << 20, f"{(peak - start) / 2**20:.1f} MiB"
