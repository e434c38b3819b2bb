"""Mask expansion and key agreement primitives for the Bonawitz protocol.

Masks live in the full ``uint64`` ring (``mod 2**64``) of
:class:`~repro.fl.aggregators.FixedPointCodec`, so the recovered sum is
bit-for-bit the plain quantized sum that ``masked_sum`` computes without
masks.  This module holds the library's one expansion of pairwise masks.
(LightSecAgg's field-domain masks are drawn in
:mod:`repro.fl.secagg.lightsecagg`.)

Masks are expanded in counter mode through
:func:`~repro.utils.rng.keyed_words`' two steps: word ``j`` of the mask
for seed ``s`` is a keyed hash of ``(s, j)``, so many masks come out of
one vectorized expansion instead of one generator object per seed.  The
expansion runs a cache-sized block of words at a time, into pooled
buffers every block reuses.  :func:`ring_mask_rows` is the one sweep:
it adds each mask to one row and subtracts it from another, either side
optional, so it expands each pairwise mask of a round's uploads once for
both endpoints, and sums the masks the unmasking server must cancel into
one row.

Key agreement is a textbook Diffie–Hellman simulation over the Mersenne
prime of :mod:`repro.fl.secagg.field` (generator 7) — a stand-in for
X25519 with the property that matters here: both endpoints of a pair
derive the same seed without the server learning it.  Public keys are a
fixed-base exponentiation over a cached table of the generator's
powers; shared secrets raise whole key sets at once with the field's
windowed :func:`~repro.fl.secagg.field.f_pow_gather`, from a window
table of the peers' public keys (:func:`key_table`) that a round builds
once for both of its agreements.  A committed set agrees each unordered
pair once (:func:`dh_shared_seed`'s ``pairs``).
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

import repro.tensor.buffers as buffers

from ...utils.rng import counter_words, keyed_words, row_states, stream_words
from .field import PRIME_INT, f_mul, f_pow_gather, window_powers

_GENERATOR = 7
# Mask words one expansion block holds (256 KiB): the block, its
# scratch buffer and its counter tile stay in a 1 MiB L2 cache.
_BLOCK_WORDS = 1 << 15
# 4-bit windows of a 64-bit secret key (key_table).
_KEY_WINDOWS = 16


def _mask_blocks(seeds, dim: int):
    """Every ring mask of ``seeds``, ``_BLOCK_WORDS`` words at a time.

    Yields ``(first, start, masks)``: row ``r`` of ``masks`` holds words
    ``start, start + 1, ...`` of the mask of ``seeds[first + r]``.  A
    block is a run of seeds, or a slice of one long mask, expanded into
    two buffers every block reuses, so memory stays flat and
    cache-resident however many masks a round expands and however long
    the update is.  A third buffer holds the column range's counters
    repeated down a block, built once per range and added contiguously
    (:func:`~repro.utils.rng.stream_words`).  The three buffers come
    from the :mod:`repro.tensor.buffers` pool and go back to it once
    the last block is consumed, so a yielded block is valid only until
    the next one.  Each mask equals its row of
    ``keyed_words(0, "secagg-ring-mask", seeds, k=dim)``.
    """
    states = row_states(0, "secagg-ring-mask", seeds)
    width = min(dim, _BLOCK_WORDS) or 1
    rows = max(1, min(len(states), _BLOCK_WORDS // width))
    pooled = buffers.acquire((3, _BLOCK_WORDS), np.uint64)
    words, scratch, tile = pooled
    for start in range(0, dim, width):
        columns = min(width, dim - start)
        counters = tile[: rows * columns].reshape(rows, columns)
        counters[:] = counter_words(start, columns)
        for first in range(0, len(states), rows):
            block = states[first : first + rows]
            shape, size = (len(block), columns), len(block) * columns
            yield first, start, stream_words(
                block,
                counters[: len(block)],
                words[:size].reshape(shape),
                scratch[:size].reshape(shape),
            )
    buffers.release(pooled)


def ring_mask_rows(seeds, plus, minus, out: np.ndarray) -> np.ndarray:
    """Add signed sums of ring masks into the rows of ``out``, each mask
    expanded once.

    The mask of ``seeds[p]`` (row ``p`` of
    ``keyed_words(0, "secagg-ring-mask", seeds, k=dim)``) is added to
    row ``plus[p]`` and subtracted from row ``minus[p]`` of ``out``, a
    ``(rows, dim)`` ``uint64`` array updated in place; a negative row
    skips that side.  So a pairwise mask reaches both of its endpoints
    from one expansion, an orphaned one only its surviving endpoint,
    and any signed sum of masks can land in one row.

    Any rows give the right sums; runs make them cheap.  A run is a
    stretch of masks with one ``plus`` row whose ``minus`` rows are
    skipped, or consecutive (a two-sided slab), or, when ``plus`` is
    skipped, all one row (:func:`_run_starts`).  Each block of a run
    then costs one pass per side: its column sum goes into its one
    ``plus`` or ``minus`` row, and a slab is subtracted in place.
    """
    plus = np.asarray(plus, dtype=np.intp).reshape(-1)
    minus = np.asarray(minus, dtype=np.intp).reshape(-1)
    starts = _run_starts(plus, minus)
    adds, subtracts = plus[starts].tolist(), minus[starts].tolist()
    bounds = [*starts.tolist(), len(plus)]
    for first, start, masks in _mask_blocks(seeds, out.shape[1]):
        target = out[:, start : start + masks.shape[1]]
        end = first + len(masks)
        run = bisect.bisect_right(bounds, first) - 1
        while bounds[run] < end:
            low = max(bounds[run], first)
            part = masks[low - first : min(bounds[run + 1], end) - first]
            add, subtract = adds[run], subtracts[run]
            if add >= 0:
                target[add] += part.sum(axis=0)
                if subtract >= 0:
                    row = subtract + low - bounds[run]
                    target[row : row + len(part)] -= part
            elif subtract >= 0:
                target[subtract] -= part.sum(axis=0)
            run += 1
    return out


def _run_starts(plus, minus) -> np.ndarray:
    """Where each run of :func:`ring_mask_rows` starts.

    A run breaks where ``plus`` changes, where the ``minus`` side turns
    skipped or not, and where a ``minus`` row does not continue the run:
    the next row of a two-sided slab, or the same row when ``plus`` is
    skipped.
    """
    kept = minus >= 0
    # A kept minus row steps by 1 in a slab (plus kept) and 0 otherwise.
    step = (plus[1:] >= 0).astype(np.intp)
    broken = (plus[1:] != plus[:-1]) | (kept[1:] != kept[:-1])
    broken |= kept[1:] & (minus[1:] - minus[:-1] != step)
    return np.flatnonzero(np.concatenate([[len(plus) > 0], broken]))


@functools.cache
def _generator_powers() -> np.ndarray:
    """``table[w, d] = g**(d · 16**w)``: the generator's power for digit
    ``d`` of window ``w``, one row per 4-bit window of a 64-bit key.
    Built on first use (256 Python ``pow`` calls), never at import, and
    read-only, since every caller shares it."""
    powers = [
        [pow(_GENERATOR, digit << (4 * window), PRIME_INT) for digit in range(16)]
        for window in range(16)
    ]
    table = np.array(powers, dtype=np.uint64)
    table.setflags(write=False)
    return table


def dh_public_key(secret_keys) -> np.ndarray:
    """The Diffie–Hellman public keys ``g**sk`` mod the Mersenne prime.

    A fixed-base exponentiation: each key's sixteen 4-bit digits gather
    their powers from :func:`_generator_powers` and multiply, so no
    window rebuilds the generator's power table.
    """
    keys = np.asarray(secret_keys, dtype=np.uint64)
    table = _generator_powers()
    result = table[0][keys & np.uint64(15)]
    for window in range(1, 16):
        digits = (keys >> np.uint64(4 * window)) & np.uint64(15)
        result = f_mul(result, table[window][digits])
    return result


def key_table(public_keys) -> np.ndarray:
    """The window table (:func:`~repro.fl.secagg.field.window_powers`) of
    public keys, deep enough for any 64-bit secret key: built once, it
    serves every agreement with those keys (:func:`dh_shared_seed`)."""
    return window_powers(public_keys, _KEY_WINDOWS)


def dh_shared_seed(
    secret_keys, peer_public_keys, pairs, round_index: int
) -> np.ndarray:
    """The pairwise PRG seeds ``g**(sk_i * sk_j)`` of key pairs.

    ``peer_public_keys`` is the peers' public keys, or their
    :func:`key_table` when many agreements share the peers.  ``pairs``
    is ``(owners, peers)``: index arrays into ``secret_keys`` and the
    peers that broadcast to the result's shape; each result entry is the
    seed its owner agrees with its peer, and both endpoints of a pair
    derive the same seed.  ``np.ix_(range(m), range(n))`` asks for every
    owner with every peer, the ``(m, n)`` matrix;
    ``np.triu_indices(n, 1)``, with a key set and its own public keys,
    agrees each unordered pair once.  The exponentiations run in one
    :func:`~repro.fl.secagg.field.f_pow_gather` from the peers' table,
    and hashing each shared secret with the round index (one vectorized
    keyed draw) gives every round an independent mask stream from the
    same key pair.
    """
    owners, peers = pairs
    table = np.asarray(peer_public_keys, dtype=np.uint64)
    if table.ndim == 1:
        table = key_table(table)
    shared = f_pow_gather(
        table, peers, np.asarray(secret_keys, dtype=np.uint64)[owners]
    )
    seeds = keyed_words(0, "secagg-pairwise", shared.reshape(-1), round_index)
    return seeds.reshape(shared.shape)
