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
on who else committed.  The encoding is one
:func:`~repro.fl.secagg.field.f_matmul_into` by a cached basis, and the
survivors' segment and payload totals are exact field sums
(:func:`~repro.fl.secagg.field.f_sum`).  The mask draw, the encoding's
chunks, the segments and the uploads live in arrays the round borrows
(:meth:`~repro.fl.secagg.base.CommittedRound.borrow`).  Uploads and the
recovered sum are the codec's ``uint64`` ring words, as in the
Bonawitz round.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from ..messages import AggregatedMaskSegment, MaskedUpload
from .base import CommittedRound
from .field import (
    PRIME_INT,
    f_add_into,
    f_matmul_into,
    f_sub,
    f_sum,
    from_field_centered,
    interpolate,
    keyed_field,
    lagrange_basis,
)


@functools.lru_cache(maxsize=16)
def _encoding_basis(threshold: int, count: int) -> np.ndarray:
    """The Lagrange basis from the alphas ``1..threshold`` to the betas
    ``threshold + 1..threshold + count``: it depends on the round's
    shape alone, so rounds of one shape share it, read-only."""
    alphas = np.arange(1, threshold + 1, dtype=np.uint64)
    betas = np.arange(threshold + 1, threshold + count + 1, dtype=np.uint64)
    basis = lagrange_basis(alphas, betas)
    basis.setflags(write=False)
    return basis


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
        count, chunk, dim = len(self.client_ids), self.chunk_size, self.dim
        draws = self._draws = keyed_field(
            self._seed, "oneshot-mask", self.client_ids, self.round_index,
            self.borrow((count, dim + self.privacy_chunks * chunk), np.uint64),
        )
        # values[t, i] is chunk t of client i's zero-padded mask, then its
        # coding chunks: staged in (threshold, count, chunk) order, so the
        # encoding reads it as one contiguous (threshold, count·chunk) matrix.
        values = self.borrow((self.threshold, count, chunk), np.uint64)
        full, rest = divmod(dim, chunk)
        whole = draws[:, : full * chunk].reshape(count, full, chunk)
        values[:full] = whole.transpose(1, 0, 2)
        values[full : self.data_chunks] = 0
        if rest:
            values[full, :, :rest] = draws[:, full * chunk : dim]
        coding = draws[:, dim:].reshape(count, self.privacy_chunks, chunk)
        values[self.data_chunks :] = coding.transpose(1, 0, 2)
        return f_matmul_into(
            _encoding_basis(self.threshold, count),
            values,
            self.borrow((count, count, chunk), np.uint64),
        )

    def masked_upload(
        self, client_ids: Sequence[int], quantized: np.ndarray
    ) -> list[MaskedUpload]:
        """Mask quantized (uint64-ring) updates, row ``r`` for client
        ``client_ids[r]``: embed each signed value in the field and add
        the client's ``z_i``, one field addition over every row, in place
        in two matrices the round borrows."""
        quantized = np.asarray(quantized, dtype=np.uint64)
        positions = self._upload_positions(client_ids, quantized)
        if quantized.shape[-1] != self.dim:
            raise ValueError("update dimension does not match the committed round")
        payloads = self.borrow_rows(len(positions), self.dim)
        # The int64 remainder is the canonical embedding (to_field).
        np.remainder(quantized.view(np.int64), PRIME_INT, out=payloads.view(np.int64))
        # Each uploader's draw row, whose first dim words are its mask z_i.
        # Positions are valid; "raise" mode would copy through a buffer.
        draws = self.borrow_rows(len(positions), self._draws.shape[1])
        np.take(self._draws, positions, axis=0, out=draws, mode="clip")
        return self._uploads(client_ids, f_add_into(payloads, draws[:, : self.dim]))

    def recovery_segments(
        self, survivor_ids: Sequence[int]
    ) -> list[AggregatedMaskSegment]:
        """The one message each survivor sends: its segments summed over
        the survivor set."""
        survivors = sorted(int(cid) for cid in survivor_ids)
        positions = [self._positions[cid] for cid in survivors]
        # Column i of segments holds f_i(beta_j) for every recipient j:
        # sum the survivors' columns, then keep the survivors' rows.
        aggregated = f_sum(
            (self._segments[:, i] for i in positions),
            (len(self.client_ids), self.chunk_size),
        )[positions]
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
        total = f_sum((upload.payload for upload in uploads), (self.dim,))

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
