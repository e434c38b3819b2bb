"""LightSecAgg-style secure aggregation with one-shot mask recovery.

The Bonawitz protocol pays for dropout resilience at unmasking time: the
server reconstructs one secret *per dropped client* and replays that
client's pairwise PRG streams.  The LightSecAgg regime (So et al.,
MLSys 2022) moves the cost offline — each client Lagrange-encodes its
*full-size* mask into ``n`` segments during commitment — so recovery
costs a single round-trip whose size is independent of how many clients
dropped:

1. **Commitment (offline)** — client ``i`` draws a uniform field mask
   ``z_i`` of the update dimension, splits it into ``k`` chunks, pads
   with ``r`` uniformly random *coding* chunks, and interprets the
   ``T = k + r`` chunks as evaluations of a degree ``T - 1`` polynomial
   ``f_i`` at ``alphas = 1..T``.  Client ``j`` receives the segment
   ``f_i(beta_j)`` (:class:`~repro.fl.messages.EncodedMaskSegment`);
   the betas are ``n`` further points disjoint from the alphas.
2. **Masked upload** — survivors upload ``y_i = q_i + z_i`` in
   GF(2**61 - 1) (updates are fixed-point quantized, then embedded).
3. **One-shot recovery** — each survivor ``j`` sends the *single*
   aggregated segment ``Σ_{i ∈ U} f_i(beta_j)`` over the survivor set
   ``U`` (:class:`~repro.fl.messages.AggregatedMaskSegment`).  Any ``T``
   such segments interpolate ``Σ_{i ∈ U} f_i``, whose values at the
   alphas are exactly the chunks of ``Σ_{i ∈ U} z_i`` — subtracting it
   from ``Σ y_i`` leaves the exact quantized sum.

Fewer than ``T`` survivors cannot recover (and any ``T - 1`` segments
reveal nothing about an individual ``z_i`` thanks to the ``r`` random
coding chunks — privacy and recoverability share one threshold).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...utils.rng import rng_for
from ..messages import AggregatedMaskSegment, EncodedMaskSegment, MaskedUpload
from .base import BelowThresholdError, SecAggError, default_threshold
from .field import f_add, f_sub, from_field_centered, interpolate, rand_field, to_field


class OneShotRound:
    """One LightSecAgg-style execution over a fixed committed client set."""

    def __init__(
        self,
        client_ids: Sequence[int],
        round_index: int,
        dim: int,
        threshold: Optional[int] = None,
        privacy_chunks: int = 1,
        seed: int = 0,
    ) -> None:
        ordered = sorted(int(cid) for cid in client_ids)
        if len(set(ordered)) != len(ordered):
            raise ValueError("committed client ids must be distinct")
        if not ordered:
            raise ValueError("a protocol round needs at least one client")
        if dim <= 0:
            raise ValueError("dim must be positive")
        count = len(ordered)
        self.client_ids = ordered
        self.round_index = int(round_index)
        self.dim = int(dim)
        self.threshold = (
            default_threshold(count) if threshold is None else int(threshold)
        )
        if not 1 <= self.threshold <= count:
            raise ValueError(
                f"threshold {self.threshold} invalid for {count} clients"
            )
        # k data chunks + r coding chunks = threshold evaluation points.
        self.privacy_chunks = min(max(int(privacy_chunks), 0), self.threshold - 1)
        self.data_chunks = self.threshold - self.privacy_chunks
        self.chunk_size = -(-self.dim // self.data_chunks)  # ceil division
        self._seed = seed
        self._positions = {cid: pos for pos, cid in enumerate(ordered)}
        self._alphas = np.arange(1, self.threshold + 1, dtype=np.uint64)
        self._betas = np.arange(
            self.threshold + 1, self.threshold + count + 1, dtype=np.uint64
        )
        self._masks = np.zeros((count, self.dim), dtype=np.uint64)
        # segments[j, i] = f_i(beta_j): what client j holds for client i.
        self._segments = self._encode_masks()

    def _encode_masks(self) -> np.ndarray:
        count = len(self.client_ids)
        padded = self.data_chunks * self.chunk_size
        values = np.zeros(
            (self.threshold, count, self.chunk_size), dtype=np.uint64
        )
        for pos, client_id in enumerate(self.client_ids):
            rng = rng_for(
                self._seed, "oneshot-mask", str(self.round_index), str(client_id)
            )
            mask = rand_field(rng, self.dim)
            self._masks[pos] = mask
            chunks = np.zeros(padded, dtype=np.uint64)
            chunks[: self.dim] = mask
            values[: self.data_chunks, pos] = chunks.reshape(
                self.data_chunks, self.chunk_size
            )
            if self.privacy_chunks:
                values[self.data_chunks :, pos] = rand_field(
                    rng, (self.privacy_chunks, self.chunk_size)
                )
        return interpolate(self._alphas, values, self._betas)

    def encoded_segments(self, recipient_id: int) -> list[EncodedMaskSegment]:
        """The offline segment messages one client receives (inspection)."""
        recipient_pos = self._positions[int(recipient_id)]
        return [
            EncodedMaskSegment(
                sender_id=sender_id,
                recipient_id=int(recipient_id),
                round_index=self.round_index,
                segment=self._segments[recipient_pos, self._positions[sender_id]],
            )
            for sender_id in self.client_ids
        ]

    def masked_upload(
        self,
        client_id: int,
        quantized: np.ndarray,
        num_examples: int = 1,
        loss: float = 0.0,
    ) -> MaskedUpload:
        """Mask a signed quantized update by field embedding plus ``z_i``."""
        position = self._positions.get(int(client_id))
        if position is None:
            raise SecAggError(f"client {client_id} is not in the committed set")
        embedded = to_field(np.asarray(quantized))
        if embedded.shape[-1] != self.dim:
            raise ValueError("update dimension does not match the committed round")
        return MaskedUpload(
            client_id=int(client_id),
            round_index=self.round_index,
            num_examples=num_examples,
            payload=f_add(embedded, self._masks[position]),
            loss=loss,
        )

    def recovery_segments(
        self, survivor_ids: Sequence[int]
    ) -> list[AggregatedMaskSegment]:
        """The one message each survivor sends: its segments summed over
        the survivor set."""
        survivors = sorted(int(cid) for cid in survivor_ids)
        survivor_pos = [self._positions[cid] for cid in survivors]
        messages = []
        for cid in survivors:
            own = self._positions[cid]
            aggregated = np.zeros(self.chunk_size, dtype=np.uint64)
            for pos in survivor_pos:
                aggregated = f_add(aggregated, self._segments[own, pos])
            messages.append(
                AggregatedMaskSegment(
                    client_id=cid, round_index=self.round_index, segment=aggregated
                )
            )
        return messages

    def recover_sum(self, uploads: Sequence[MaskedUpload]) -> np.ndarray:
        """One-shot unmasking of the survivors' field sum.

        Returns the ``(dim,)`` *signed* quantized sum (int64).  Raises
        :class:`BelowThresholdError` with fewer than ``threshold``
        survivors — below that the aggregated segments cannot pin down
        the summed mask polynomial.
        """
        survivor_ids = sorted(int(upload.client_id) for upload in uploads)
        if len(set(survivor_ids)) != len(survivor_ids):
            raise SecAggError("duplicate masked uploads for one client")
        unknown = [cid for cid in survivor_ids if cid not in self._positions]
        if unknown:
            raise SecAggError(f"uploads from uncommitted clients: {unknown}")
        if len(survivor_ids) < self.threshold:
            raise BelowThresholdError(len(survivor_ids), self.threshold)

        total = np.zeros(self.dim, dtype=np.uint64)
        for upload in uploads:
            total = f_add(total, np.asarray(upload.payload, dtype=np.uint64))

        segments = self.recovery_segments(survivor_ids)[: self.threshold]
        seg_xs = np.array(
            [self._betas[self._positions[m.client_id]] for m in segments],
            dtype=np.uint64,
        )
        seg_ys = np.stack([m.segment for m in segments])
        chunk_sums = interpolate(seg_xs, seg_ys, self._alphas[: self.data_chunks])
        mask_sum = chunk_sums.reshape(-1)[: self.dim]

        self.last_recovery = {
            "survivors": len(survivor_ids),
            "dropped": len(self.client_ids) - len(survivor_ids),
            "recovery_messages": len(segments),
            "segment_size": int(self.chunk_size),
        }
        return from_field_centered(f_sub(total, mask_sum))


class OneShotRecoveryProtocol:
    """Factory for LightSecAgg-style protocol rounds.

    ``threshold=None`` uses the strict-majority default; ``privacy_chunks``
    is the number of random coding chunks ``r`` (clamped to keep at least
    one data chunk).
    """

    name = "secagg_oneshot"

    def __init__(
        self,
        threshold: Optional[int] = None,
        privacy_chunks: int = 1,
        seed: int = 0,
    ) -> None:
        self.threshold = threshold
        self.privacy_chunks = privacy_chunks
        self.seed = seed

    def begin(
        self, client_ids: Sequence[int], round_index: int, dim: int
    ) -> OneShotRound:
        """Commit a round: draw masks and distribute encoded segments."""
        return OneShotRound(
            client_ids,
            round_index,
            dim,
            threshold=self.threshold,
            privacy_chunks=self.privacy_chunks,
            seed=self.seed,
        )
