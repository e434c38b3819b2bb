"""Protocol-backed aggregators: real SecAgg rounds behind the Aggregator API.

Unlike :class:`~repro.fl.aggregators.MaskedSumAggregator` — which
computes only the exact fixed-point sum a secure sum reveals over
whichever updates happened to arrive, and draws no masks — these rules
run a full protocol execution per round: masks are committed over the
round's *selected* client set before any upload exists, each survivor's
upload is masked client-side, and the server runs the protocol's
recovery phase to cancel the masks of clients that dropped after
commitment.  The server opts
into that choreography through ``requires_commitment``; see
``Server.run_round``.

Both rules are reached like every other rule, through
``Aggregator.aggregate``: ``ids`` are the survivors and ``committed_ids``
the committed set, and both default to every row.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..aggregators import Aggregator, FixedPointCodec
from .field import PRIME_INT
from .lightsecagg import OneShotRecoveryProtocol
from .protocol import SecAggProtocol


class ProtocolAggregator(Aggregator):
    """Shared plumbing for aggregation rules backed by a SecAgg protocol.

    Subclasses implement :meth:`_begin`, committing one protocol round,
    and set :attr:`sum_limit` for their codec; :meth:`reduce` runs the
    rest — quantize, mask the survivors' uploads in one batched
    ``masked_upload`` call, recover the ring sum and decode it.  The
    quantized matrix is borrowed by the round, and every array the round
    borrowed goes back to the pool once the sum is recovered.  The
    reduction divides by the survivor count, so results stay
    mean-scaled like FedAvg.
    :attr:`last_metadata` carries the most recent round's protocol
    bookkeeping (committed/survivor counts, threshold, recovery size)
    for the server's ``RoundRecord``.
    """

    honours_weights = False
    requires_commitment = True
    # Bound on the summed quantized magnitudes (FixedPointCodec.sum_limit).
    sum_limit = 2.0 ** 63

    def __init__(
        self,
        fractional_bits: int = 16,
        threshold: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.fractional_bits = fractional_bits
        self.threshold = threshold
        self.codec = FixedPointCodec(fractional_bits, sum_limit=self.sum_limit)
        self._seed = seed
        self.last_metadata: dict = {}

    def exact_sum(self, matrix: np.ndarray, num_committed: int | None = None) -> np.ndarray:
        """The plain quantized sum a protocol round must recover bit-for-bit."""
        return self.codec.exact_sum(matrix, count=num_committed)

    def _begin(self, committed_ids: list[int], round_index: int, dim: int):
        """Commit one protocol round over ``committed_ids``."""
        raise NotImplementedError

    def reduce(
        self,
        matrix: np.ndarray,
        weights: np.ndarray,
        round_index: int = 0,
        ids: Sequence[int] | None = None,
        committed_ids: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Run one committed protocol round: the survivors' mean update.

        ``matrix`` rows align with the survivor ``ids``; ``committed_ids``
        is the full selected set whose masks were committed.  Both default
        to every row.  Raises :class:`~repro.fl.secagg.base.SecAggError`
        for a survivor outside the committed set and
        :class:`~repro.fl.secagg.base.BelowThresholdError` when too few
        survivors remain to unmask.
        """
        survivors = range(len(matrix)) if ids is None else [int(cid) for cid in ids]
        if len(matrix) != len(survivors):
            raise ValueError("matrix rows must align with the survivor ids")
        committed = sorted(
            survivors if committed_ids is None else (int(cid) for cid in committed_ids)
        )
        session = self._begin(committed, int(round_index), matrix.shape[1])
        quantized = self.codec.quantize_into(
            matrix, len(committed), session.borrow_rows(len(matrix), matrix.shape[1])
        )
        total = session.recover_sum(session.masked_upload(survivors, quantized))
        # The total is a fresh array and no upload outlives this call, so
        # the round's arrays go back to the pool for the next round.
        session.release_buffers()
        self.last_metadata = {
            "protocol": self.name,
            "committed": len(committed),
            "threshold": session.threshold,
            **session.last_recovery,
        }
        return self.codec.dequantize_sum(total) / len(survivors)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(fractional_bits={self.fractional_bits}, "
            f"threshold={self.threshold})"
        )


class SecAggAggregator(ProtocolAggregator):
    """Bonawitz-style secure aggregation as an aggregation rule.

    Per round: commit a :class:`~repro.fl.secagg.protocol.SecAggRound`
    over the selected set, mask each survivor's quantized update
    client-side in the uint64 ring, and recover the exact sum through the
    Shamir unmasking phase.  Quantization bits match ``masked_sum``, so
    the recovered sum is bit-for-bit the same aggregate.
    """

    name = "secagg"

    def _begin(self, committed_ids, round_index, dim):
        protocol = SecAggProtocol(threshold=self.threshold, seed=self._seed)
        return protocol.begin(committed_ids, round_index)


class OneShotRecoveryAggregator(ProtocolAggregator):
    """LightSecAgg-style one-shot recovery as an aggregation rule.

    Per round: commit a
    :class:`~repro.fl.secagg.lightsecagg.OneShotRound` (masks encoded and
    segment-shared offline), mask each survivor's quantized update in
    GF(2**61 - 1), and recover the summed mask from one aggregated
    segment per survivor.  The field is narrower than the uint64 ring, so
    the codec guard is tightened to half the prime — the recovered sum is
    still bit-for-bit the plain quantized sum.
    """

    name = "secagg_oneshot"
    sum_limit = float(PRIME_INT // 2)

    def __init__(
        self,
        fractional_bits: int = 16,
        threshold: Optional[int] = None,
        seed: int = 0,
        privacy_chunks: int = 1,
    ) -> None:
        super().__init__(fractional_bits, threshold, seed)
        self.privacy_chunks = privacy_chunks

    def _begin(self, committed_ids, round_index, dim):
        protocol = OneShotRecoveryProtocol(
            threshold=self.threshold,
            privacy_chunks=self.privacy_chunks,
            seed=self._seed,
        )
        return protocol.begin(committed_ids, round_index, dim=dim)
