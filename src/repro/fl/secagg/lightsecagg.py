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
   ``f_i(beta_j)``; the betas are ``n`` further points disjoint from
   the alphas.
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

Each client's mask and coding chunks are one keyed draw
(:func:`~repro.fl.secagg.field.keyed_field`), so a mask does not depend
on who else committed; every sum of products is a
:func:`~repro.fl.secagg.field.f_matmul`; uploads and the recovered sum
are the codec's ``uint64`` ring words, as in the Bonawitz round.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..messages import AggregatedMaskSegment, MaskedUpload
from .base import CommittedRound
from .field import (
    f_add,
    f_matmul,
    f_sub,
    from_field_centered,
    interpolate,
    keyed_field,
    to_field,
)


class OneShotRound(CommittedRound):
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
        super().__init__(client_ids, round_index, threshold, seed)
        if dim <= 0:
            raise ValueError("dim must be positive")
        count = len(self.client_ids)
        self.dim = int(dim)
        # k data chunks + r coding chunks = threshold evaluation points.
        self.privacy_chunks = min(max(int(privacy_chunks), 0), self.threshold - 1)
        self.data_chunks = self.threshold - self.privacy_chunks
        self.chunk_size = -(-self.dim // self.data_chunks)  # ceil division
        self._alphas = np.arange(1, self.threshold + 1, dtype=np.uint64)
        self._betas = np.arange(
            self.threshold + 1, self.threshold + count + 1, dtype=np.uint64
        )
        # segments[j, i] = f_i(beta_j): what client j holds for client i.
        self._segments = self._encode_masks()

    def _encode_masks(self) -> np.ndarray:
        # One keyed draw per client: its mask z_i, then its coding chunks.
        count, chunk = len(self.client_ids), self.chunk_size
        draws = keyed_field(
            self._seed, "oneshot-mask", self.client_ids, self.round_index,
            k=self.dim + self.privacy_chunks * chunk,
        )
        self._masks = draws[:, : self.dim]
        chunks = np.zeros((count, self.threshold * chunk), dtype=np.uint64)
        chunks[:, : self.dim] = self._masks
        chunks[:, self.data_chunks * chunk :] = draws[:, self.dim :]
        values = chunks.reshape(count, self.threshold, chunk).transpose(1, 0, 2)
        return interpolate(self._alphas, values, self._betas)

    def masked_upload(
        self, client_ids: Sequence[int], quantized: np.ndarray
    ) -> list[MaskedUpload]:
        """Mask quantized (uint64-ring) updates, row ``r`` for client
        ``client_ids[r]``: embed each signed value in the field and add
        the client's ``z_i``, one field addition over every row."""
        quantized = np.asarray(quantized, dtype=np.uint64)
        positions = self._upload_positions(client_ids, quantized)
        if quantized.shape[-1] != self.dim:
            raise ValueError("update dimension does not match the committed round")
        embedded = to_field(quantized.view(np.int64))
        return self._uploads(client_ids, f_add(embedded, self._masks[positions]))

    def recovery_segments(
        self, survivor_ids: Sequence[int]
    ) -> list[AggregatedMaskSegment]:
        """The one message each survivor sends: its segments summed over
        the survivor set."""
        survivors = sorted(int(cid) for cid in survivor_ids)
        positions = [self._positions[cid] for cid in survivors]
        indicator = np.zeros((1, len(self.client_ids)), dtype=np.uint64)
        indicator[0, positions] = 1
        # held[j, i] = f_i(beta_j) for survivor j; the 0/1 row sums over i.
        held = self._segments[positions]
        aggregated = f_matmul(indicator, held.transpose(1, 0, 2))[0]
        return [
            AggregatedMaskSegment(
                client_id=cid, round_index=self.round_index, segment=segment
            )
            for cid, segment in zip(survivors, aggregated)
        ]

    def recover_sum(self, uploads: Sequence[MaskedUpload]) -> np.ndarray:
        """One-shot unmasking of the survivors' field sum.

        Returns the ``(dim,)`` ``uint64`` ring sum of the survivors'
        quantized updates, exactly as the Bonawitz round does.  Raises
        :class:`BelowThresholdError` with fewer than ``threshold``
        survivors — below that the aggregated segments cannot pin down
        the summed mask polynomial.
        """
        survivor_ids = self._survivor_ids(uploads)
        payloads = np.stack([np.asarray(u.payload, dtype=np.uint64) for u in uploads])
        total = f_matmul(np.ones((1, len(uploads)), dtype=np.uint64), payloads)[0]

        segments = self.recovery_segments(survivor_ids)[: self.threshold]
        seg_xs = self._betas[[self._positions[m.client_id] for m in segments]]
        seg_ys = np.stack([m.segment for m in segments])
        chunk_sums = interpolate(seg_xs, seg_ys, self._alphas[: self.data_chunks])
        mask_sum = chunk_sums.reshape(-1)[: self.dim]

        self.last_recovery = {
            "survivors": len(survivor_ids),
            "dropped": len(self.client_ids) - len(survivor_ids),
            "recovery_messages": len(segments),
            "segment_size": int(self.chunk_size),
        }
        return from_field_centered(f_sub(total, mask_sum)).view(np.uint64)


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
