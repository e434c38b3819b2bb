"""Bonawitz-style secure aggregation with Shamir dropout recovery.

One :class:`SecAggRound` simulates a full protocol execution over the
round's *committed* client set (everyone the server selected — dropout
after this point is exactly the failure mode the protocol recovers
from).  The choreography follows Bonawitz et al. (CCS 2017):

1. **Advertise keys** — every committed client broadcasts a Diffie–
   Hellman public key (:class:`~repro.fl.messages.KeyAdvertisement`).
2. **Share keys** — every client Shamir-shares two secrets among all
   committed clients at threshold ``t``: its DH *secret key* (enough to
   re-derive its pairwise masks if it drops) and a fresh *self-mask
   seed*.  The simulation keeps the shares as two mailbox matrices
   indexed ``[recipient, sender]``.
3. **Masked upload** — a surviving client uploads
   ``y_i = q_i + PRG(b_i) + Σ_{j≠i} sign(i,j) · PRG(s_ij)  (mod 2**64)``
   where ``q_i`` is the fixed-point quantized update, ``b_i`` the self
   mask, ``s_ij`` the pairwise seed, and ``sign(i,j) = +1`` iff
   ``i < j`` — so pairwise masks cancel between any two survivors.
   The simulation masks all of a round's uploads in one call and
   expands each pair's mask once for both endpoints (one endpoint, when
   the other dropped).
4. **Unmask** — the server names the survivor/dropped split
   (:class:`~repro.fl.messages.UnmaskRequest`); each survivor answers
   with its self-mask shares for *survivors* and secret-key shares for
   *dropped* clients (:class:`~repro.fl.messages.UnmaskResponse`), never
   both for the same sender.  With ``t`` responses the server
   reconstructs every survivor's ``b_i`` (cancel self masks) and every
   dropped client's secret key (cancel the orphaned pairwise masks), and
   the ring sum of the uploads collapses to the exact quantized sum.

Clients here are simulated in-process: each one's secrets and Shamir
coefficients are keyed draws by (seed, label, client, round), so rounds
are deterministic and replayable, and nothing about a round depends on
how many rounds an instance served before.  Both secrets of every
client are shared by one field matrix product.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...utils.rng import keyed_words
from ..messages import (
    KeyAdvertisement,
    MaskedUpload,
    UnmaskRequest,
    UnmaskResponse,
)
from .base import CommittedRound
from .field import PRIME_INT, keyed_field
from .masking import dh_public_key, dh_shared_seed, key_table, ring_mask_rows
from .shamir import reconstruct_secrets, share_polynomials

# Grid cells (candidate masks) one upload sweep reads: its index arrays
# stay a few MiB at 1000 committed, and a 100-committed round is one sweep.
_SWEEP_CELLS = 1 << 18


class SecAggRound(CommittedRound):
    """One protocol execution over a fixed committed client set.

    Construction runs the advertise and share phases (the commitment
    point); :meth:`masked_upload` produces survivor uploads and
    :meth:`recover_sum` runs the unmasking phase.  Each simulated
    client's secrets (never visible server-side) sit at its position in
    the sorted committed order; its Shamir ``share_x`` is position + 1.
    """

    def __init__(
        self,
        client_ids: Sequence[int],
        round_index: int,
        threshold: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(client_ids, round_index, threshold, seed)
        self._advertise_keys()
        self._share_keys()

    # ------------------------------------------------------------------
    # Phase 1+2: commitment
    # ------------------------------------------------------------------
    def _advertise_keys(self) -> None:
        # One keyed draw for the whole committed set: each client's DH
        # secret key in [1, p - 2] (so the public key is never the
        # identity) and its self-mask seed, cut to 32 bits so it doubles
        # as a Shamir secret (it must fit the 61-bit field).
        words = keyed_words(
            self._seed, "secagg-client", self.client_ids, self.round_index, k=2
        )
        self._secret_keys = words[:, 0] % np.uint64(PRIME_INT - 2) + np.uint64(1)
        self._self_mask_seeds = words[:, 1] >> np.uint64(32)
        self._public_keys = dh_public_key(self._secret_keys)
        # Both key agreements (here, and for dropped keys at recovery)
        # gather from one window table of the committed public keys.
        self._key_table = key_table(self._public_keys)
        self.advertisements = [
            KeyAdvertisement(client_id, self.round_index, int(public_key))
            for client_id, public_key in zip(self.client_ids, self._public_keys)
        ]
        # Every client agrees a pairwise seed with every peer once the
        # keys are out.  Both endpoints derive the same seed, so each
        # unordered pair (i, j), i < j, is agreed once and kept at [i, j]
        # of one borrowed (n, n + 1) seed table; its last column holds the
        # self-mask seeds and its lower triangle is never read.
        count = len(self.client_ids)
        first, second = np.triu_indices(count, 1)
        self._seeds = self.borrow((count, count + 1), np.uint64)
        self._seeds[first, second] = dh_shared_seed(
            self._secret_keys, self._key_table, (first, second), self.round_index
        )
        self._seeds[:, count] = self._self_mask_seeds

    def _share_keys(self) -> None:
        # Both secrets of every client in one sharing: the (n, 2) secret
        # pairs, each with its own keyed polynomial coefficients, stacked
        # lowest degree first.  The coefficients, the stack and the share
        # matrix are all borrowed, so a round of a seen size allocates none.
        count, degree = len(self.client_ids), self.threshold - 1
        coefficients = keyed_field(
            self._seed, "secagg-shamir", self.client_ids, self.round_index,
            self.borrow((count, 2 * degree), np.uint64),
        ).reshape(count, degree, 2)
        polynomials = self.borrow((self.threshold, count, 2), np.uint64)
        polynomials[0, :, 0] = self._secret_keys
        polynomials[0, :, 1] = self._self_mask_seeds
        polynomials[1:] = coefficients.transpose(1, 0, 2)
        shares = share_polynomials(
            polynomials, self.borrow((count, count, 2), np.uint64)
        )
        # Mailboxes: share matrices indexed [recipient_position, sender_position].
        self._seed_shares, self._self_mask_shares = shares[..., 0], shares[..., 1]

    # ------------------------------------------------------------------
    # Phase 3: masked upload
    # ------------------------------------------------------------------
    def masked_upload(
        self, client_ids: Sequence[int], quantized: np.ndarray
    ) -> list[MaskedUpload]:
        """Mask quantized (uint64-ring) updates the way each client would.

        Row ``r`` of ``quantized`` is client ``client_ids[r]``'s update;
        the result lists their uploads in the same order.  Committed ids
        are sorted, so client ``i`` adds the masks of peers after its
        position (``sign(i, j) = +1``) and subtracts those before it.
        The payloads are rows of one borrowed matrix (:meth:`borrow`) in
        committed order, and
        :func:`~repro.fl.secagg.masking.ring_mask_rows` adds every
        mask an uploader needs into its row, each mask expanded once
        (:meth:`_upload_masks` splits it into sweeps of a few uploaders
        each).  No row is spent on a client that did not upload.
        """
        quantized = np.asarray(quantized, dtype=np.uint64)
        positions = self._upload_positions(client_ids, quantized)
        order = np.argsort(positions)
        # Positions are valid; "raise" mode would copy through a buffer.
        payloads = np.take(
            quantized, order, axis=0, mode="clip",
            out=self.borrow_rows(len(order), quantized.shape[-1]),
        )
        for sweep in self._upload_masks(np.take(positions, order)):
            ring_mask_rows(*sweep, payloads)
        rows = list(payloads)
        ranks = np.argsort(order).tolist()  # each listed id's payload row
        return self._uploads(client_ids, [rows[rank] for rank in ranks])

    def _upload_masks(self, uploaders: np.ndarray):
        """``(seeds, plus, minus)`` sweeps of every mask the sorted
        ``uploaders`` add to their rows (rows are ranks in ``uploaders``),
        a few uploaders' rows per sweep.

        Row ``r`` of a grid lists uploader ``r``'s masks in three runs:
        its pairs with the uploaders after it (``+`` to ``r``, ``-`` to
        their consecutive ranks: one expansion for both endpoints), its
        pairs with the dropped clients after it and its self mask (``+``
        to ``r`` only), and its pairs with the dropped clients before it
        (``-`` to ``r`` only).  The grid's columns are the seed table's
        columns in that order, then its rows of the dropped clients, so
        reading the grid's valid cells row by row gives every run at
        once.  A pair of two dropped clients is never expanded.  Each
        sweep covers about ``_SWEEP_CELLS`` grid cells, so a round's
        index arrays stay small however many clients it commits.
        """
        count = len(self.client_ids)
        dropped = np.setdiff1d(np.arange(count), uploaders, assume_unique=True)
        columns = np.concatenate([uploaders, dropped, [count]])
        side = np.arange(len(columns) + len(dropped))
        before = side >= len(columns)  # the dropped clients before the owner
        slab = np.where(side < len(uploaders), side, -1)
        step = max(1, _SWEEP_CELLS // len(side))
        for first in range(0, len(uploaders), step):
            owners = uploaders[first : first + step, None]
            grid = np.concatenate(
                [self._seeds[owners, columns], self._seeds[dropped[:, None], owners.T].T],
                axis=1,
            )
            valid = np.concatenate([columns > owners, dropped < owners], axis=1)
            ranks = np.arange(first, first + len(owners))[:, None]
            plus = np.where(before, -1, ranks)[valid]
            minus = np.where(before, ranks, slab)[valid]
            yield grid[valid], plus, minus

    # ------------------------------------------------------------------
    # Phase 4: unmasking
    # ------------------------------------------------------------------
    def unmask_messages(
        self, survivor_ids: Sequence[int]
    ) -> tuple[UnmaskRequest, list[UnmaskResponse]]:
        """The unmask round-trip: the server's request and the survivors'
        share responses (self-mask shares for survivors, seed shares for
        dropped — never both for one sender)."""
        survivors = sorted(int(cid) for cid in survivor_ids)
        survivor_set = set(survivors)
        dropped = [cid for cid in self.client_ids if cid not in survivor_set]
        request = UnmaskRequest(self.round_index, survivors, dropped)
        survivor_positions = [self._positions[cid] for cid in survivors]
        dropped_positions = [self._positions[cid] for cid in dropped]
        # Row r: survivor r's shares, in the request's sender order.
        self_mask_rows = self._self_mask_shares[
            np.ix_(survivor_positions, survivor_positions)
        ]
        seed_rows = self._seed_shares[np.ix_(survivor_positions, dropped_positions)]
        responses = [
            UnmaskResponse(
                client_id=cid,
                round_index=self.round_index,
                share_x=pos + 1,
                self_mask_shares=self_mask_row,
                seed_shares=seed_row,
            )
            for cid, pos, self_mask_row, seed_row in zip(
                survivors, survivor_positions, self_mask_rows, seed_rows
            )
        ]
        return request, responses

    def recover_sum(self, uploads: Sequence[MaskedUpload]) -> np.ndarray:
        """Unmask the survivors' ring sum; exact even with mid-round dropout.

        Raises :class:`BelowThresholdError` when fewer than ``threshold``
        uploads arrived — below that the shares cannot reconstruct the
        dropped clients' seeds (by design).  Returns the ``(dim,)``
        ``uint64`` ring sum of the survivors' *plain* quantized updates.
        """
        survivor_ids = self._survivor_ids(uploads)
        request, responses = self.unmask_messages(survivor_ids)
        helpers = responses[: self.threshold]
        helper_xs = np.array([r.share_x for r in helpers], dtype=np.uint64)

        total = np.zeros_like(np.asarray(uploads[0].payload, dtype=np.uint64))
        for upload in uploads:
            total += np.asarray(upload.payload, dtype=np.uint64)

        # Reconstruct every survivor's self-mask seed b_i and every dropped
        # client's secret key in one batched interpolation over the
        # helpers' shares (each response lists them in the request's
        # sorted survivor, then dropped, order).
        shares = np.concatenate(
            [
                np.stack([r.self_mask_shares for r in helpers]),
                np.stack([r.seed_shares for r in helpers]),
            ],
            axis=1,
        )
        recovered_self, recovered_keys = np.split(
            reconstruct_secrets(helper_xs, shares), [len(survivor_ids)]
        )
        # Every survivor added its self mask, and the mask it agreed with
        # each dropped peer after it; it subtracted the one agreed with
        # each dropped peer before it.  Re-derive the dropped keys' seeds
        # with every survivor, and take all of it back in one signed
        # sweep into the total's one row.
        added, subtracted = recovered_self, np.zeros(0, dtype=np.uint64)
        if request.dropped_ids:
            survivor_positions = [self._positions[cid] for cid in survivor_ids]
            orphans = dh_shared_seed(
                recovered_keys,
                self._key_table,
                np.ix_(np.arange(len(recovered_keys)), survivor_positions),
                self.round_index,
            )
            after = np.greater.outer(request.dropped_ids, survivor_ids)
            added = np.concatenate([added, orphans[after]])
            subtracted = orphans[~after]
        counts = [len(added), len(subtracted)]
        ring_mask_rows(
            np.concatenate([added, subtracted]),
            np.repeat([-1, 0], counts),
            np.repeat([0, -1], counts),
            total[None],
        )
        self.last_recovery = {
            "survivors": len(survivor_ids),
            "dropped": len(request.dropped_ids),
            "recovered_dropped_ids": list(request.dropped_ids),
            "unmask_responses": len(responses),
            "helper_shares": int(self.threshold),
        }
        return total


class SecAggProtocol:
    """Factory for Bonawitz-style protocol rounds.

    ``threshold=None`` uses the strict-majority default
    (:func:`~repro.fl.secagg.base.default_threshold`); a fixed integer
    threshold applies to every round regardless of committed-set size.
    """

    name = "secagg"

    def __init__(self, threshold: Optional[int] = None, seed: int = 0) -> None:
        self.threshold = threshold
        self.seed = seed

    def begin(self, client_ids: Sequence[int], round_index: int) -> SecAggRound:
        """Commit a round: advertise keys and distribute Shamir shares."""
        return SecAggRound(
            client_ids, round_index, threshold=self.threshold, seed=self.seed
        )
