"""Mask expansion and key agreement primitives for the Bonawitz protocol.

Masks live in the full ``uint64`` ring (``mod 2**64``), matching the
fixed-point encoding of :class:`~repro.fl.aggregators.MaskedSumAggregator`
exactly, so the recovered sum is bit-for-bit the plain quantized sum.
(LightSecAgg's field-domain masks are drawn in
:mod:`repro.fl.secagg.lightsecagg`.)

Masks are expanded in counter mode through
:func:`~repro.utils.rng.keyed_words`' two steps: word ``j`` of the mask
for seed ``s`` is a keyed hash of ``(s, j)``, so the masks of every seed
a client or the server must add come out of one vectorized expansion
instead of one generator object per seed.  The expansion runs a
cache-sized block of words at a time, into two reused buffers, and sums
each block as it goes.

Key agreement is a textbook Diffie–Hellman simulation over the Mersenne
prime of :mod:`repro.fl.secagg.field` (generator 7) — a stand-in for
X25519 with the property that matters here: both endpoints of a pair
derive the same seed without the server learning it.  Whole key sets
are exponentiated at once with the field's windowed :func:`f_pow`, which
builds each window's powers over the un-broadcast public keys.
"""

from __future__ import annotations

import numpy as np

from ...utils.rng import keyed_words, row_states, stream_words
from .field import f_pow

_GENERATOR = 7
# Mask words one expansion block holds (256 KiB): the block and its
# scratch buffer stay in a 1 MiB L2 cache.
_BLOCK_WORDS = 1 << 15


def ring_mask_sum(seeds, dim: int) -> np.ndarray:
    """``Σ PRG(s)`` over ``seeds`` in the ``uint64`` ring (``mod 2**64``).

    Each seed expands to a uniform ring mask of length ``dim``, equal to
    its row of ``keyed_words(0, "secagg-ring-mask", seeds, k=dim)``.  The
    masks are expanded ``_BLOCK_WORDS`` words at a time (a block of
    seeds, or a slice of one long mask) into two reused buffers, so
    memory stays flat and cache-resident however many masks a round sums
    and however long the update is.
    """
    states = row_states(0, "secagg-ring-mask", seeds)
    total = np.zeros(dim, dtype=np.uint64)
    width = min(dim, _BLOCK_WORDS)
    rows = max(1, min(len(states), _BLOCK_WORDS // width))
    words, scratch = np.empty((2, rows * width), dtype=np.uint64)
    for start in range(0, dim, width):
        columns = min(width, dim - start)
        for first in range(0, len(states), rows):
            block = states[first : first + rows]
            shape, size = (len(block), columns), len(block) * columns
            masks = stream_words(
                block, start, words[:size].reshape(shape), scratch[:size].reshape(shape)
            )
            total[start : start + columns] += masks.sum(axis=0)
    return total


def dh_public_key(secret_keys) -> np.ndarray:
    """The Diffie–Hellman public keys ``g**sk`` mod the Mersenne prime."""
    return f_pow(_GENERATOR, secret_keys)


def dh_shared_seed(secret_keys, peer_public_keys, round_index: int) -> np.ndarray:
    """The pairwise PRG seeds ``g**(sk_i * sk_j)`` of keys and peers.

    Entry ``[i, j]`` of the ``(len(secret_keys), len(peer_public_keys))``
    result is the seed owner ``i`` shares with peer ``j``; both endpoints
    of a pair derive the same seed.  The exponentiations run elementwise
    in the field, and hashing each shared secret with the round index
    (one vectorized keyed draw) gives every round an independent mask
    stream from the same key pair.
    """
    shared = f_pow(
        np.asarray(peer_public_keys, dtype=np.uint64)[None, :],
        np.asarray(secret_keys, dtype=np.uint64)[:, None],
    )
    seeds = keyed_words(0, "secagg-pairwise", shared.reshape(-1), round_index)
    return seeds.reshape(shared.shape)
