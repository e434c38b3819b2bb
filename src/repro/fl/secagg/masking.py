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
buffers every block reuses.  :func:`ring_mask_rows` expands each
pairwise mask of a round's uploads once and adds it to one endpoint's
row and subtracts it from the other's; :func:`ring_mask_sum` sums the
masks the unmasking server must cancel into one vector.

Key agreement is a textbook Diffie–Hellman simulation over the Mersenne
prime of :mod:`repro.fl.secagg.field` (generator 7) — a stand-in for
X25519 with the property that matters here: both endpoints of a pair
derive the same seed without the server learning it.  Public keys are a
fixed-base exponentiation over a cached table of the generator's
powers; shared secrets raise whole key sets at once with the field's
windowed :func:`~repro.fl.secagg.field.f_pow_gather`, which builds the
window tables once per distinct public key.  A committed set agrees
each unordered pair once (:func:`dh_shared_seed`'s ``pairs``).
"""

from __future__ import annotations

import functools

import numpy as np

import repro.tensor.buffers as buffers

from ...utils.rng import counter_words, keyed_words, row_states, stream_words
from .field import PRIME_INT, f_mul, f_pow_gather

_GENERATOR = 7
# Mask words one expansion block holds (256 KiB): the block, its
# scratch buffer and its counter tile stay in a 1 MiB L2 cache.
_BLOCK_WORDS = 1 << 15


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


def ring_mask_sum(seeds, dim: int) -> np.ndarray:
    """``Σ PRG(s)`` over ``seeds`` in the ``uint64`` ring (``mod 2**64``),
    each block's masks summed as it is expanded (:func:`_mask_blocks`)."""
    total = np.zeros(dim, dtype=np.uint64)
    for _, start, masks in _mask_blocks(seeds, dim):
        total[start : start + masks.shape[1]] += masks.sum(axis=0)
    return total


def ring_mask_rows(seeds, plus, minus, out: np.ndarray) -> np.ndarray:
    """Signed sums of ring masks into the rows of ``out``, each mask
    expanded once.

    The mask of ``seeds[p]`` (the same ``PRG(s)`` as in
    :func:`ring_mask_sum`) is added to row ``plus[p]`` and subtracted
    from row ``minus[p]`` of ``out``, a ``(rows, dim)`` ``uint64`` array
    this overwrites, so a pairwise mask reaches both of its endpoints
    from one expansion.  ``plus`` must be non-decreasing and ``minus``
    strictly increasing within each run of equal ``plus``.  A run then
    adds its block's column sum to its ``plus`` row in one pass, and
    subtracts from its ``minus`` rows in one more, in place when they
    are consecutive.
    """
    plus = np.asarray(plus, dtype=np.intp)
    minus = np.asarray(minus, dtype=np.intp)
    out.fill(0)
    for first, start, masks in _mask_blocks(seeds, out.shape[1]):
        target = out[:, start : start + masks.shape[1]]
        adds = plus[first : first + len(masks)]
        subtracts = minus[first : first + len(masks)]
        runs = np.flatnonzero(adds[1:] != adds[:-1]) + 1
        for low, high in zip([0, *runs], [*runs, len(adds)]):
            run = masks[low:high]
            target[adds[low]] += run.sum(axis=0)
            first_row, last_row = subtracts[low], subtracts[high - 1]
            if last_row - first_row == high - low - 1:
                target[first_row : last_row + 1] -= run
            else:
                target[subtracts[low:high]] -= run
    return out


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


def dh_shared_seed(
    secret_keys, peer_public_keys, pairs, round_index: int
) -> np.ndarray:
    """The pairwise PRG seeds ``g**(sk_i * sk_j)`` of key pairs.

    ``pairs`` is ``(owners, peers)``: index arrays into ``secret_keys``
    and ``peer_public_keys`` that broadcast to the result's shape; each
    result entry is the seed its owner agrees with its peer, and both
    endpoints of a pair derive the same seed.
    ``np.ix_(range(m), range(n))`` asks for every owner with every peer,
    the ``(m, n)`` matrix; ``np.triu_indices(n, 1)``, with a key set and
    its own public keys, agrees each unordered pair once.  The
    exponentiations run in one :func:`f_pow_gather`, whose window tables
    cover each distinct peer key once, and hashing each shared secret
    with the round index (one vectorized keyed draw) gives every round
    an independent mask stream from the same key pair.
    """
    owners, peers = pairs
    shared = f_pow_gather(
        np.asarray(peer_public_keys, dtype=np.uint64),
        peers,
        np.asarray(secret_keys, dtype=np.uint64)[owners],
    )
    seeds = keyed_words(0, "secagg-pairwise", shared.reshape(-1), round_index)
    return seeds.reshape(shared.shape)
