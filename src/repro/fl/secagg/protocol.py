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
   expands each pair's mask once for both endpoints.
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
from .masking import dh_public_key, dh_shared_seed, ring_mask_rows, ring_mask_sum
from .shamir import reconstruct_secrets, share_secrets


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
        self.advertisements = [
            KeyAdvertisement(client_id, self.round_index, int(public_key))
            for client_id, public_key in zip(self.client_ids, self._public_keys)
        ]
        # Every client agrees a pairwise seed with every peer once the
        # keys are out.  Both endpoints derive the same seed, so each
        # unordered pair (i, j), i < j, is agreed once and kept at [i, j]
        # of one (n, n + 1) seed table; its last column holds the self-mask
        # seeds and its lower triangle stays zero.
        count = len(self.client_ids)
        first, second = np.triu_indices(count, 1)
        self._seeds = np.zeros((count, count + 1), dtype=np.uint64)
        self._seeds[first, second] = dh_shared_seed(
            self._secret_keys, self._public_keys, (first, second), self.round_index
        )
        self._seeds[:, count] = self._self_mask_seeds

    def _share_keys(self) -> None:
        # Both secrets of every client in one sharing: the (n, 2) secret
        # pairs, each with its own keyed polynomial coefficients.
        count, degree = len(self.client_ids), self.threshold - 1
        coefficients = keyed_field(
            self._seed, "secagg-shamir", self.client_ids, self.round_index,
            np.empty((count, 2 * degree), dtype=np.uint64),
        ).reshape(count, degree, 2)
        secrets = np.stack([self._secret_keys, self._self_mask_seeds], axis=1)
        shares = share_secrets(secrets, coefficients.transpose(1, 0, 2), count)
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
        Each pair with an uploading endpoint is expanded once, for both
        endpoints (:func:`~repro.fl.secagg.masking.ring_mask_rows`):
        pair ``(i, j)``, then client ``i``'s self mask as a last "pair"
        whose minus side is a spare row, so an uploader's run of
        subtractions stays consecutive.  Pairs of two non-uploading
        clients are never expanded.  The mask rows and the uploads'
        payload matrix are borrowed by the round (:meth:`borrow`).
        """
        quantized = np.asarray(quantized, dtype=np.uint64)
        positions = self._upload_positions(client_ids, quantized)
        count, dim = len(self.client_ids), quantized.shape[-1]
        uploading = np.zeros(count + 1, dtype=bool)
        uploading[positions] = True
        # Column `count` of the pair grid is each client's self mask.
        first, second = np.triu_indices(count, 1, m=count + 1)
        needed = uploading[first] | uploading[second]
        first, second = first[needed], second[needed]
        masks = ring_mask_rows(
            self._seeds[first, second], first, second,
            self.borrow((count + 1, dim), np.uint64),
        )
        payloads = self.borrow_rows(len(positions), dim)
        # Positions are valid; "raise" mode would copy through a buffer.
        np.take(masks, positions, axis=0, out=payloads, mode="clip")
        payloads += quantized
        return self._uploads(client_ids, payloads)

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
        dim = total.shape[-1]

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
        # Cancel every survivor's self mask.
        total -= ring_mask_sum(recovered_self, dim)

        # Cancel the dropped clients' orphaned pairwise masks: re-derive
        # every dropped key's pairwise seeds with every survivor, and
        # remove the survivor-side contributions.
        if request.dropped_ids:
            survivor_keys = self._public_keys[
                [self._positions[cid] for cid in survivor_ids]
            ]
            seeds = dh_shared_seed(
                recovered_keys,
                survivor_keys,
                np.ix_(np.arange(len(recovered_keys)), np.arange(len(survivor_keys))),
                self.round_index,
            )
            # Survivor i uploaded sign(i, dropped) * mask; remove it.
            below = np.less.outer(survivor_ids, request.dropped_ids).T
            total -= ring_mask_sum(seeds[below], dim)
            total += ring_mask_sum(seeds[~below], dim)
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
