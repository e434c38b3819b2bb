"""Pluggable server-side aggregation over stacked client updates.

The seed hardcoded a per-key Python loop (``average_gradients``) inside
``Server.run_round``; this module replaces that with an :class:`Aggregator`
abstraction operating on a *flattened, stacked* representation: every
client's named-gradient dict is packed into one contiguous ``float64``
vector, the federation's round becomes a single ``(num_clients, dim)``
matrix, and each rule reduces it with one vectorized numpy operation.
For ~100 clients this is the difference between thousands of small ufunc
calls and a single BLAS reduction (see ``benchmarks/bench_fl_scale.py``).

Four rules ship with the engine:

- :class:`FedAvgAggregator` — the paper's Eq. 1 weighted mean.
- :class:`CoordinateMedianAggregator` — coordinate-wise median, robust to
  a minority of crafted/byzantine updates.
- :class:`TrimmedMeanAggregator` — coordinate-wise trimmed mean.
- :class:`MaskedSumAggregator` — the exact fixed-point sum a secure
  sum reveals (Bonawitz et al. / LightSecAgg regime), without the
  masking: pairwise masks cancel in the ring sum, so the aggregate is
  the same bits.  The protocol rounds that mask and survive dropout are
  in :mod:`repro.fl.secagg`.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

import repro.tensor.buffers as buffers
from repro.registry import IDENTIFIER_PATTERN, Registry

# (name, shape, size) triples describing how a flat vector maps back to a
# named-gradient dict.
FlatSpec = list[tuple[str, tuple[int, ...], int]]


def flat_spec(update: dict[str, np.ndarray]) -> FlatSpec:
    """Describe how ``update`` packs into a flat vector (key order preserved)."""
    return [(name, value.shape, int(value.size)) for name, value in update.items()]


class RoundBuffer:
    """Contiguous (capacity, dim) staging area for one round's updates.

    The engine packs each client update into its own matrix row *as it
    arrives* (ingest time), so end-of-round aggregation is a single
    vectorized reduction over :attr:`matrix` instead of the seed's per-key
    Python loop over dicts.  In a deployment the packing cost overlaps the
    wait for slower clients; here it simply moves the dict walking out of
    the aggregation hot path.

    A :class:`~repro.fl.engine.RoundEngine` keeps its buffer from one
    round to the next and re-arms it (:meth:`rearm`) whenever the new
    round fits the matrix, so a fleet round neither allocates nor
    zero-fills a fresh ``capacity x dim`` matrix.  :attr:`matrix` is
    therefore valid only until the owning engine's next round, and every
    aggregation rule must return a fresh array, never a view of it.
    """

    def __init__(self, capacity: int, spec: FlatSpec) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.dim = sum(size for _, _, size in spec)
        self._matrix = np.empty((capacity, self.dim), dtype=np.float64)
        self.rearm(capacity, spec)

    def fits(self, capacity: int, spec: FlatSpec) -> bool:
        """Whether ``capacity`` updates packed as ``spec`` fit the matrix."""
        rows, dim = self._matrix.shape
        return 0 < capacity <= rows and sum(size for _, _, size in spec) == dim

    def rearm(self, capacity: int, spec: FlatSpec) -> None:
        """Empty the buffer for a round of ``capacity`` updates packed as ``spec``.

        Keeps the matrix, so the round must fit it.  Builds the packing
        table (each name's column slice) once, for every :meth:`add`.
        """
        if not self.fits(capacity, spec):
            raise ValueError("round does not fit the buffer's matrix")
        self.spec, self.capacity, self._count = spec, capacity, 0
        self._names = frozenset(name for name, _, _ in spec)
        self._columns, offset = [], 0
        for name, _, size in spec:
            self._columns.append((name, slice(offset, offset + size), size))
            offset += size

    @classmethod
    def for_updates(cls, updates: Sequence[dict[str, np.ndarray]]) -> "RoundBuffer":
        """Build a buffer sized for ``updates`` and pack them all."""
        if not updates:
            raise ValueError("no updates to aggregate")
        buffer = cls(len(updates), flat_spec(updates[0]))
        for update in updates:
            buffer.add(update)
        return buffer

    def add(self, gradients: Mapping[str, np.ndarray]) -> None:
        """Pack one arriving named-gradient dict into the next matrix row."""
        count = self._count
        if count >= self.capacity:
            raise ValueError("round buffer is full")
        if gradients.keys() != self._names:
            raise KeyError("updates carry mismatched parameter names")
        row = self._matrix[count]
        for name, columns, size in self._columns:
            row[columns] = np.asarray(gradients[name]).reshape(size)
        self._count = count + 1

    @property
    def matrix(self) -> np.ndarray:
        """The stacked (num_arrived, dim) update matrix."""
        return self._matrix[: self._count]

    def __len__(self) -> int:
        return self._count


def unflatten_vector(vector: np.ndarray, spec: FlatSpec) -> dict[str, np.ndarray]:
    """Unpack one reduced (dim,) vector into a named-gradient dict by ``spec``."""
    out: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape, size in spec:
        out[name] = vector[offset : offset + size].reshape(shape)
        offset += size
    return out


def _normalized_weights(
    weights: Sequence[float] | None, count: int
) -> np.ndarray:
    """Validate and normalize per-client weights to a (K,) simplex vector."""
    if weights is None:
        return np.full(count, 1.0 / count)
    if len(weights) != count:
        raise ValueError("weights/updates length mismatch")
    array = np.asarray(weights, dtype=np.float64)
    total = float(array.sum())
    if np.any(array < 0) or total <= 0.0:
        raise ValueError("weights must be non-negative with a positive sum")
    return array / total


class Aggregator:
    """Base class for server-side aggregation rules.

    Every rule is reached one way: :meth:`aggregate` over a
    :class:`RoundBuffer` (pack named-gradient dicts with
    :meth:`RoundBuffer.for_updates`).  It normalizes the weights, calls
    the rule's one hook, :meth:`reduce`, on the stacked ``(K, dim)``
    matrix and unpacks the result.  Rules whose output depends on the
    round (protocol sessions) key everything off the
    ``round_index`` the server passes — never off hidden instance state,
    which a resumed or replayed round would not share.

    ``honours_weights`` declares whether the rule can apply per-client
    weights at all; passing weights to a rule that cannot raises a
    one-time :class:`RuntimeWarning` per instance instead of silently
    discarding them.
    """

    name = "base"
    honours_weights = True
    # True for protocol rules that need the server to treat selection as
    # a commitment (mask seeds are shared before uploads; dropouts after
    # that point are recovered, not resampled).
    requires_commitment = False
    _warned_weights = False

    def reduce(
        self,
        matrix: np.ndarray,
        weights: np.ndarray,
        round_index: int = 0,
        ids: Sequence[int] | None = None,
        committed_ids: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Reduce a (num_clients, dim) matrix to a fresh (dim,) aggregate.

        ``weights`` is the normalized per-client weight vector; rules that
        are inherently unweighted (median, masked sum) may ignore it.
        ``ids`` names each row's client and ``committed_ids`` the round's
        committed set; only protocol rules read them.
        """
        raise NotImplementedError

    def _check_weights(self, weights: Sequence[float] | None) -> None:
        """Warn (once per instance) when weights reach an unweighted rule."""
        if weights is None or self.honours_weights or self._warned_weights:
            return
        self._warned_weights = True
        warnings.warn(
            f"the {self.name!r} aggregator cannot honour per-client weights; "
            "aggregating uniformly (recorded as weighting='uniform')",
            RuntimeWarning,
            stacklevel=3,
        )

    def effective_weighting(self, weights: Sequence[float] | None) -> str:
        """The weighting actually applied: ``"weighted"`` or ``"uniform"``."""
        return "weighted" if weights is not None and self.honours_weights else "uniform"

    def aggregate(
        self,
        buffer: RoundBuffer,
        weights: Sequence[float] | None = None,
        round_index: int = 0,
        ids: Sequence[int] | None = None,
        committed_ids: Sequence[int] | None = None,
    ) -> dict[str, np.ndarray]:
        """Aggregate a packed :class:`RoundBuffer` into a named-gradient dict.

        The buffer was packed as updates arrived, so this is one
        vectorized :meth:`reduce` plus a view-based unflatten.
        """
        if not len(buffer):
            raise ValueError("no updates to aggregate")
        self._check_weights(weights)
        weights = _normalized_weights(weights, len(buffer))
        reduced = self.reduce(buffer.matrix, weights, round_index, ids, committed_ids)
        return unflatten_vector(reduced, buffer.spec)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FedAvgAggregator(Aggregator):
    """Weighted arithmetic mean of client updates (paper Eq. 1).

    With uniform weights this reproduces the seed's ``average_gradients``
    semantics as a single matrix-vector product.
    """

    name = "fedavg"

    def reduce(self, matrix, weights, round_index=0, ids=None, committed_ids=None):
        return weights @ matrix


class CoordinateMedianAggregator(Aggregator):
    """Coordinate-wise median; ignores weights.

    Robust to up to ``(K - 1) // 2`` arbitrarily corrupted updates per
    coordinate, which makes it the standard byzantine-tolerant baseline.
    """

    name = "median"
    honours_weights = False

    def reduce(self, matrix, weights, round_index=0, ids=None, committed_ids=None):
        return np.median(matrix, axis=0)


class TrimmedMeanAggregator(Aggregator):
    """Coordinate-wise trimmed mean: drop the ``trim_ratio`` tails, average.

    ``trim_ratio`` is the fraction of clients trimmed from *each* end per
    coordinate (so 0.25 with 4 clients keeps the middle two).  Ignores
    weights; the surviving entries are averaged uniformly.
    """

    name = "trimmed_mean"
    honours_weights = False

    def __init__(self, trim_ratio: float = 0.1) -> None:
        if not 0.0 <= trim_ratio < 0.5:
            raise ValueError("trim_ratio must be in [0, 0.5)")
        self.trim_ratio = trim_ratio

    def reduce(self, matrix, weights, round_index=0, ids=None, committed_ids=None):
        count = len(matrix)
        trim = min(int(self.trim_ratio * count), (count - 1) // 2)
        if trim == 0:
            return matrix.mean(axis=0)
        ordered = np.sort(matrix, axis=0)
        return ordered[trim : count - trim].mean(axis=0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(trim_ratio={self.trim_ratio})"


# Elements per block of FixedPointCodec.quantize_into's in-place cast.
_CAST_BLOCK = 1 << 13


class FixedPointCodec:
    """Fixed-point quantization into a modular ring, exact up to a sum bound.

    Encodes floats as ``round(value * 2**fractional_bits)`` signed
    integers; ``masked_sum`` below and the ``repro.fl.secagg`` protocols
    share this codec, so "recovers the exact quantized sum bit-for-bit"
    means the same bits everywhere.

    ``sum_limit`` bounds the magnitude the *summed* quantized values may
    reach: ``2**63`` for the two's-complement uint64 ring (int64 range),
    or the field codecs' tighter primes.  :meth:`quantize` rejects any
    batch whose worst-case sum ``count * max|q|`` could reach the limit —
    silent modular wraparound would otherwise corrupt the aggregate.
    """

    def __init__(
        self, fractional_bits: int = 16, sum_limit: float = 2.0 ** 63
    ) -> None:
        if fractional_bits < 0:
            raise ValueError("fractional_bits must be non-negative")
        if not 0 < sum_limit <= 2.0 ** 63:
            raise ValueError("sum_limit must be in (0, 2**63]")
        self.fractional_bits = fractional_bits
        self.scale = float(2 ** fractional_bits)
        self.sum_limit = float(sum_limit)

    def quantize(self, matrix: np.ndarray, count: int | None = None) -> np.ndarray:
        """Encode floats into the uint64 ring (two's-complement int64 view).

        ``count`` is the number of values that may be summed (defaults to
        the batch's row count); the guard checks the *rounded* magnitudes,
        so a batch passes iff its true quantized sum provably fits.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        return self.quantize_into(matrix, count, np.empty(matrix.shape, np.uint64))

    def quantize_into(
        self, matrix: np.ndarray, count: int | None, out: np.ndarray
    ) -> np.ndarray:
        """:meth:`quantize` written into ``out``, a C-contiguous ``uint64``
        array of ``matrix``'s shape.

        The scaled, rounded values are computed in ``out``'s own words
        (viewed as float64), their magnitude is read off their max and
        min, and the integer cast runs in place through one pooled
        block, so the encoding allocates nothing.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        rows = len(matrix) if matrix.ndim > 1 else 1
        count = max(count if count is not None else rows, 1)
        scaled = np.multiply(matrix, self.scale, out=out.view(np.float64))
        np.rint(scaled, out=scaled)
        magnitude = max(scaled.max(), -scaled.min()) if scaled.size else 0.0
        if not np.isfinite(magnitude):
            finite = np.isfinite(matrix).reshape(rows, -1).all(axis=1)
            if not finite.all():
                raise ValueError(
                    f"update row {int(np.argmin(finite))} holds non-finite values "
                    "(nan or inf); a fixed-point sum cannot encode them"
                )
        magnitude = float(magnitude)
        if not magnitude * count < self.sum_limit:
            limit = self.sum_limit / self.scale / count
            raise ValueError(
                f"update magnitude {magnitude / self.scale:.3g} exceeds the "
                f"masked-sum fixed-point range ({limit:.3g} for {count} "
                f"clients at {self.fractional_bits} fractional bits); clip "
                "updates or lower fractional_bits"
            )
        # numpy would copy an overlapping source before casting it, so the
        # in-place cast stages one block at a time in a pooled buffer.
        # Flat views of out: assigning the shape raises rather than copy.
        words, values = out.view(np.int64), scaled.view()
        words.shape = values.shape = (out.size,)
        staging = buffers.acquire((_CAST_BLOCK,), np.float64)
        for start in range(0, len(words), _CAST_BLOCK):
            block = values[start : start + _CAST_BLOCK]
            staged = staging[: len(block)]
            np.copyto(staged, block)
            np.copyto(words[start : start + len(block)], staged, casting="unsafe")
        buffers.release(staging)
        return out

    def dequantize_sum(self, total: np.ndarray) -> np.ndarray:
        """Decode a ring sum back to floats (int64 two's-complement view)."""
        return np.asarray(total, dtype=np.uint64).view(np.int64).astype(
            np.float64
        ) / self.scale

    def exact_sum(self, matrix: np.ndarray, count: int | None = None) -> np.ndarray:
        """The plain fixed-point sum a protocol must recover bit-for-bit.

        The rows are quantized into a pooled array with a row for each of
        the ``count`` clients, the shape a protocol round of that many
        committed clients borrows, so checking rounds allocates nothing.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        pooled = buffers.acquire(
            (max(len(matrix), count or 0),) + matrix.shape[1:], np.uint64
        )
        quantized = self.quantize_into(matrix, count, pooled[: len(matrix)])
        total = quantized.sum(axis=0, dtype=np.uint64)
        buffers.release(pooled)
        return self.dequantize_sum(total)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(fractional_bits={self.fractional_bits})"


class MaskedSumAggregator(Aggregator):
    """The fixed-point sum a secure sum reveals, scaled to a mean.

    Each update is quantized with scale ``2**fractional_bits`` into the
    64-bit two's-complement ring and the rows are summed exactly there:
    the result a masked secure sum over these clients recovers, since
    its pairwise masks cancel in the ring.  The masking itself, with
    dropout after commitment, lives in the protocol rounds of
    :mod:`repro.fl.secagg`.

    Weights are ignored: a secure sum reveals only the uniform total, so
    the reduction returns ``sum / K`` to stay mean-scaled like FedAvg.
    Exact while ``K * max|round(g * 2**fractional_bits)| < 2**63``, a
    bound the codec enforces.
    """

    name = "masked_sum"
    honours_weights = False

    def __init__(self, fractional_bits: int = 16) -> None:
        self.codec = FixedPointCodec(fractional_bits)
        self.fractional_bits = fractional_bits

    def reduce(self, matrix, weights, round_index=0, ids=None, committed_ids=None):
        return self.codec.exact_sum(matrix) / len(matrix)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(fractional_bits={self.fractional_bits})"


AGGREGATORS = Registry("aggregator", pattern=IDENTIFIER_PATTERN)
AGGREGATORS.register("fedavg", FedAvgAggregator)
AGGREGATORS.register("median", CoordinateMedianAggregator)
AGGREGATORS.register("trimmed_mean", TrimmedMeanAggregator)
AGGREGATORS.register("masked_sum", MaskedSumAggregator)
# The protocol rules live in repro.fl.secagg, which builds on this module;
# lazy entries keep the registry complete without a circular import.
AGGREGATORS.register("secagg", "repro.fl.secagg.aggregators:SecAggAggregator")
AGGREGATORS.register(
    "secagg_oneshot", "repro.fl.secagg.aggregators:OneShotRecoveryAggregator"
)


def make_aggregator(spec: "str | Aggregator" = "fedavg", **kwargs) -> Aggregator:
    """Resolve an aggregator from a registry spec or an instance.

    Accepts an :class:`Aggregator` instance (returned as-is; ``kwargs``
    must be empty) or a spec over :data:`AGGREGATORS` — ``fedavg``,
    ``median``, ``trimmed_mean``, ``masked_sum``, and the protocol rules
    ``secagg`` and ``secagg_oneshot`` — whose knobs may ride in the spec
    itself, e.g. ``"secagg(threshold=8)"``.
    """
    if isinstance(spec, Aggregator):
        if kwargs:
            raise ValueError("cannot pass kwargs with an aggregator instance")
        return spec
    return AGGREGATORS.build(spec, kwargs)
