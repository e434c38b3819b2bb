"""Deterministic random-number management.

Every stochastic component in the repository (dataset synthesis, model init,
client sampling, attack parameter crafting, DP noise) draws from an explicit
``numpy.random.Generator``.

``seed_sequence_for`` / ``derive_seed`` key a child stream by string labels
(e.g. a sweep cell's configuration fingerprint) rather than a spawn
position, so the stream a consumer receives is invariant to enumeration
order, to how work is sharded across processes, and to which other
consumers exist.  That invariance is what lets serial and parallel sweep
executors produce bit-identical results.

``keyed_words`` / ``keyed_uniforms`` apply the same discipline to hot paths
that need a few draws for *every member of a cohort*: a counter-based
generator in the Random123 sense (Salmon et al., SC'11, "Parallel random
numbers: as easy as 1, 2, 3") maps ``(seed, label, id, round, counter)``
straight to a 64-bit word, vectorized over ids, with no generator object
per id.  The draws for a subset of ids are exactly the matching rows of
the full-cohort draw.  Its two steps are public for callers that reduce
long streams without holding them: ``row_states`` hashes each id once,
and ``stream_words`` expands any column range of those streams (its
``counter_words``) into a caller's buffers.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
# SplitMix64: the Weyl increment and the finalizer's two multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def seed_sequence_for(base_seed: int, *labels: str) -> np.random.SeedSequence:
    """A :class:`~numpy.random.SeedSequence` keyed by ``labels``, not position.

    The labels are hashed into entropy words, so the resulting stream
    depends only on ``(base_seed, labels)`` — two callers asking for the
    same labels in two different processes (or at two different points of
    an enumeration) get the same stream, while any label change yields a
    statistically independent one.
    """
    entropy = [int(base_seed) & _MASK64]
    for label in labels:
        digest = hashlib.sha256(label.encode()).digest()
        entropy.extend(
            int.from_bytes(digest[offset : offset + 4], "little")
            for offset in range(0, 16, 4)
        )
    return np.random.SeedSequence(entropy)


def derive_seed(base_seed: int, *labels: str) -> int:
    """A deterministic uint32 seed keyed by ``(base_seed, labels)``.

    For components that take integer seeds (federation configs, attack
    constructors) rather than generators; the same invariance guarantees
    as :func:`seed_sequence_for`.
    """
    return int(seed_sequence_for(base_seed, *labels).generate_state(1)[0])


def rng_for(base_seed: int, *labels: str) -> np.random.Generator:
    """A generator keyed by ``(base_seed, labels)`` via
    :func:`seed_sequence_for`."""
    return np.random.default_rng(seed_sequence_for(base_seed, *labels))


def _mix(words: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, a bijection on ``uint64``, applied in place.

    ``scratch`` is a buffer of ``words``' shape that holds each shifted
    copy, so a mix allocates nothing.
    """
    for shift, multiplier in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(words, np.uint64(shift), out=scratch)
        words ^= scratch
        words *= multiplier
    np.right_shift(words, np.uint64(31), out=scratch)
    words ^= scratch
    return words


def _mix_int(word: int) -> int:
    """:func:`_mix` on one Python int."""
    word ^= word >> 30
    word = (word * int(_MIX1)) & _MASK64
    word ^= word >> 27
    word = (word * int(_MIX2)) & _MASK64
    return word ^ (word >> 31)


def row_states(seed: int, label: str, ids, round_index: int = 0) -> np.ndarray:
    """The SplitMix64 state of every :func:`keyed_words` row, ``(len(ids),)``.

    A keyed hash of each id under ``(seed, label, round_index)``.  The
    stream prefix is mixed as Python ints, so a call costs one small
    vectorized pass over the ids.
    """
    label_word = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")
    stream = int(seed) & _MASK64
    for word in (label_word, int(round_index) & _MASK64):
        stream = _mix_int(stream) ^ word
    states = np.asarray(ids, dtype=np.uint64).reshape(-1) * _GAMMA
    states += np.uint64(_mix_int(stream))
    return _mix(states, np.empty_like(states))


def counter_words(start: int, width: int) -> np.ndarray:
    """The ``(width,)`` Weyl counters of stream outputs ``start`` to
    ``start + width - 1``, for :func:`stream_words`."""
    return np.arange(start + 1, start + width + 1, dtype=np.uint64) * _GAMMA


def stream_words(
    states: np.ndarray, counters: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Outputs of the streams at ``states`` at the ``counters``, in ``out``.

    ``out`` and ``scratch`` are ``(len(states), width)`` ``uint64``
    buffers, and ``counters`` is :func:`counter_words` of the wanted
    outputs, as a ``(width,)`` row or already repeated down a
    ``(len(states), width)`` tile; row ``i`` of ``out`` becomes those
    outputs of the stream whose state is ``states[i]``.  A contiguous
    tile adds faster than the broadcast row, so a caller expanding many
    blocks of one column range builds it once.  Writing into
    caller-owned buffers lets a caller expand a long stream one
    cache-sized block at a time without allocating.
    """
    np.add(counters, states[:, None], out=out)
    return _mix(out, scratch)


def keyed_words(
    seed: int, label: str, ids, round_index: int = 0, k: int = 1
) -> np.ndarray:
    """``(len(ids), k)`` uniform ``uint64`` words keyed by
    ``(seed, label, id, round_index, column)``.

    Row ``i`` is the SplitMix64 stream whose state is a keyed hash of
    ``ids[i]`` (:func:`row_states`), and column ``j`` is that stream's
    ``j``-th output (:func:`stream_words`).  Each word is a pure function
    of its key: draws never depend on cohort order, and the rows for a
    subset of ids equal the matching rows of a superset's draw.
    """
    states = row_states(seed, label, ids, round_index)
    words = np.empty((len(states), k), dtype=np.uint64)
    return stream_words(states, counter_words(0, k), words, np.empty_like(words))


def keyed_uniforms(
    seed: int, label: str, ids, round_index: int = 0, k: int = 1
) -> np.ndarray:
    """:func:`keyed_words` as ``float64`` uniforms on the open interval (0, 1).

    52-bit resolution and never exactly 0 or 1, so the draws are safe
    under ``log`` and the Box–Muller transform.
    """
    words = keyed_words(seed, label, ids, round_index, k) >> np.uint64(12)
    return (words + 0.5) * 2.0**-52
