"""Vectorized arithmetic over the Mersenne-61 prime field GF(2**61 - 1).

Every algebraic object the secure-aggregation protocols exchange — Shamir
shares of mask seeds, Lagrange-coded mask segments, field-embedded
quantized updates — lives in one prime field.  The modulus is the
Mersenne prime ``2**61 - 1``, chosen so that:

- field elements fit a ``uint64`` lane, so whole vectors of coordinates
  are processed with numpy ufuncs instead of per-element Python bigints;
- reduction after addition is a single fold (``2**61 ≡ 1 (mod p)`` turns
  the carry into an add), and the 122-bit product of two elements reduces
  with three folds of 32-bit limb products — no division anywhere;
- the field is comfortably wider than the 16-fractional-bit quantized
  updates summed over a 1000-client round, so encoding never saturates.

All functions accept scalars or arrays (broadcasting like the underlying
ufuncs) and return canonical representatives in ``[0, PRIME)`` as
``uint64`` arrays.  Inputs must already be canonical unless noted —
:func:`to_field` is the entry point for arbitrary signed integers, and
:func:`keyed_field` for keyed random draws.  Sums of field products are
accumulated in one place, :func:`f_matmul`, which runs them as exact
float64 BLAS GEMMs over 21-bit limbs.
"""

from __future__ import annotations

import numpy as np

from ...utils.rng import keyed_words

# The Mersenne prime 2**61 - 1, as a Python int and a uint64 scalar.
PRIME_INT = (1 << 61) - 1
PRIME = np.uint64(PRIME_INT)

_LOW32 = np.uint64(0xFFFFFFFF)
_LOW29 = np.uint64((1 << 29) - 1)
_SHIFT29 = np.uint64(29)
_SHIFT32 = np.uint64(32)
_SHIFT61 = np.uint64(61)
_EIGHT = np.uint64(8)  # 2**64 mod PRIME
_ONE = np.uint64(1)
_THREE = np.uint64(3)
# f_matmul's limb split and inner chunk: three limb pairs of MATMUL_CHUNK
# products, each at most (2**21 - 1)**2, sum strictly below 2**53.
_LIMB_BITS = 21
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
MATMUL_CHUNK = ((1 << 53) - 1) // (3 * ((1 << _LIMB_BITS) - 1) ** 2)


def _fold(values: np.ndarray) -> np.ndarray:
    """Reduce any ``uint64`` values into ``[0, PRIME)`` with one fold.

    The high three bits fold onto the low 61 (``2**61 ≡ 1``), leaving at
    most ``PRIME + 7``, so one conditional subtraction finishes.
    """
    folded = (values & PRIME) + (values >> _SHIFT61)
    return np.where(folded >= PRIME, folded - PRIME, folded)


def to_field(values) -> np.ndarray:
    """Canonical field representatives of (possibly signed) integers.

    Negative inputs map to their additive inverses, so the signed
    fixed-point encoding of a quantized update round-trips through
    :func:`from_field_centered`.
    """
    array = np.asarray(values)
    if array.dtype.kind == "u":
        reduced = array.astype(np.uint64) % PRIME
    else:
        signed = array.astype(object) if array.dtype.kind != "i" else array
        reduced = np.mod(signed, PRIME_INT).astype(np.uint64)
    return reduced


def from_field_centered(values: np.ndarray) -> np.ndarray:
    """Decode canonical elements as signed integers in ``(-p/2, p/2]``.

    The inverse of :func:`to_field` for magnitudes below half the prime —
    exactly the regime the fixed-point guard enforces.
    """
    array = np.asarray(values, dtype=np.uint64)
    half = np.uint64(PRIME_INT // 2)
    as_signed = array.astype(np.int64)
    return np.where(array > half, as_signed - np.int64(PRIME_INT), as_signed)


def f_add(a, b) -> np.ndarray:
    """Field addition."""
    return _fold(np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64))


def f_sub(a, b) -> np.ndarray:
    """Field subtraction."""
    return _fold(
        np.asarray(a, dtype=np.uint64) + (PRIME - np.asarray(b, dtype=np.uint64))
    )


def f_mul(a, b) -> np.ndarray:
    """Field multiplication via 32-bit limb products (no 128-bit ints).

    With ``a = a1·2**32 + a0`` and ``b = b1·2**32 + b0``, the product is
    ``a1b1·2**64 + (a1b0 + a0b1)·2**32 + a0b0``; modulo the Mersenne
    prime, ``2**64 ≡ 8`` and ``2**61 ≡ 1`` reduce every term below
    ``2**62`` without overflowing a ``uint64`` accumulator.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a1, a0 = a >> _SHIFT32, a & _LOW32
    b1, b0 = b >> _SHIFT32, b & _LOW32
    high = a1 * b1  # < 2**58
    mid = a1 * b0 + a0 * b1  # < 2**62
    low = a0 * b0  # < 2**64
    acc = high * _EIGHT
    acc = acc + ((mid >> _SHIFT29) + ((mid & _LOW29) << _SHIFT32))
    acc = acc + ((low & PRIME) + (low >> _SHIFT61))
    return _fold(acc)


def f_pow(base, exponent) -> np.ndarray:
    """Field exponentiation, elementwise.

    ``exponent`` holds non-negative integers below ``2**64`` and
    broadcasts against ``base``, so one call raises many bases to many
    exponents (square-and-multiply over every exponent bit at once).
    """
    if np.any(np.asarray(exponent) < 0):
        raise ValueError("exponent must be non-negative")
    base, exponent = np.broadcast_arrays(
        np.asarray(base, dtype=np.uint64), np.asarray(exponent, dtype=np.uint64)
    )
    result = np.ones_like(base)
    while exponent.any():
        result = np.where(exponent & _ONE, f_mul(result, base), result)
        base = f_mul(base, base)
        exponent = exponent >> _ONE
    return result


def f_inv(a) -> np.ndarray:
    """Field multiplicative inverse (Fermat); undefined (0) maps to 0."""
    return f_pow(a, PRIME_INT - 2)


def f_matmul(a, b) -> np.ndarray:
    """Field matrix product ``a @ b``: ``(m, k)`` times ``(k, ...)``.

    The one place field products are accumulated: Shamir sharing,
    Lagrange interpolation and every protocol sum route through it.
    Trailing axes of ``b`` are flattened into columns and restored on
    the ``(m, ...)`` result.

    The sums run as float64 BLAS GEMMs, exactly:

    - Each element splits into three 21-bit limbs,
      ``x = x0 + x1·2**21 + x2·2**42``, so a limb product is an integer
      of at most ``(2**21 - 1)**2``.
    - The nine limb products group by diagonal ``d = s + t``.  One GEMM
      per diagonal sums ``a_s·b_t`` over its at most three limb pairs,
      stacked along the inner axis: ``a``'s limbs side by side as
      ``[a0 | a1 | a2]`` and ``b``'s as ``[b2; b1; b0]``, so every
      diagonal is a column slice times a row slice, with no padding.
    - The inner axis runs in chunks of ``MATMUL_CHUNK = 682`` terms, the
      largest ``K`` with ``3·K·(2**21 - 1)**2 < 2**53``.  Every partial
      sum of such products is a non-negative integer below ``2**53``,
      which float64 holds exactly, whatever order BLAS adds in.
    - Diagonal ``d`` weighs ``2**(21·d)``.  As ``2**61 ≡ 1 (mod p)``,
      that weight is a 61-bit rotation by ``21·d mod 61`` bits.  The five
      rotated diagonals (each below ``2**61``) add to the canonical
      accumulator without passing ``2**64``; one fold per chunk reduces
      the sum.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    columns = b.reshape(len(b), int(np.prod(b.shape[1:])))
    acc = np.zeros((len(a), columns.shape[1]), dtype=np.uint64)
    diagonal = np.empty(acc.shape)
    term = np.empty_like(acc)
    for start in range(0, a.shape[1], MATMUL_CHUNK):
        a_chunk = a[:, start : start + MATMUL_CHUNK]
        b_chunk = columns[start : start + MATMUL_CHUNK]
        k = a_chunk.shape[1]
        a_limbs = np.empty((len(a), 3, k))
        b_limbs = np.empty((3, k, columns.shape[1]))
        for s in range(3):
            shift = np.uint64(_LIMB_BITS * s)
            a_limbs[:, s] = (a_chunk >> shift) & _LIMB_MASK
            b_limbs[2 - s] = (b_chunk >> shift) & _LIMB_MASK
        a_limbs = a_limbs.reshape(len(a), 3 * k)
        b_limbs = b_limbs.reshape(3 * k, columns.shape[1])
        for d in range(5):
            low, high = max(0, d - 2), min(2, d)
            np.matmul(
                a_limbs[:, low * k : (high + 1) * k],
                b_limbs[(2 - d + low) * k : (3 - d + high) * k],
                out=diagonal,
            )
            term[...] = diagonal
            rotation = _LIMB_BITS * d % 61
            if rotation:
                acc += term >> np.uint64(61 - rotation)
                term <<= np.uint64(rotation)
                term &= PRIME
            acc += term
        acc = _fold(acc)
    return acc.reshape((len(a),) + b.shape[1:])


def keyed_field(seed: int, label: str, ids, round_index: int, k: int) -> np.ndarray:
    """``(len(ids), k)`` uniform field elements keyed by
    ``(seed, label, id, round_index, column)``.

    The top 61 bits of :func:`~repro.utils.rng.keyed_words`, folded
    (bias ``2**-61``); like the words, row ``i`` depends only on
    ``ids[i]`` and column ``j`` does not depend on ``k``.
    """
    return _fold(keyed_words(seed, label, ids, round_index, k) >> _THREE)


def lagrange_basis(xs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Lagrange basis matrix ``B[t, j] = l_j(targets[t])`` over the field.

    ``xs`` are the distinct interpolation points; the returned matrix
    turns values at ``xs`` into values at ``targets`` by a field
    matrix-vector product.  A target coinciding with an interpolation
    point yields the corresponding unit row automatically (its numerator
    vanishes everywhere else).  Built with prefix/suffix products, so the
    cost is O(k) vectorized passes rather than O(k**2) scalar loops.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    targets = np.asarray(targets, dtype=np.uint64)
    k = len(xs)
    diffs = f_sub(targets[:, None], xs[None, :])  # (m, k)
    prefix = np.ones_like(diffs)
    for j in range(1, k):
        prefix[:, j] = f_mul(prefix[:, j - 1], diffs[:, j - 1])
    suffix = np.ones_like(diffs)
    for j in range(k - 2, -1, -1):
        suffix[:, j] = f_mul(suffix[:, j + 1], diffs[:, j + 1])
    numerators = f_mul(prefix, suffix)
    point_diffs = f_sub(xs[:, None], xs[None, :])
    np.fill_diagonal(point_diffs, 1)
    denominators = np.ones_like(xs)
    for j in range(k):
        denominators = f_mul(denominators, point_diffs[:, j])
    return f_mul(numerators, f_inv(denominators)[None, :])


def interpolate(xs: np.ndarray, ys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Evaluate the degree-``len(xs)-1`` interpolant of ``(xs, ys)`` at
    ``targets``.

    ``ys`` has shape ``(k, ...)`` — one value vector per interpolation
    point; the result has shape ``(len(targets), ...)``.
    """
    return f_matmul(lagrange_basis(xs, targets), ys)
