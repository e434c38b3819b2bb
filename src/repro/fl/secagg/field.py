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
float64 BLAS GEMMs over 21-bit limbs; plain sums of many elements, in
:func:`f_sum`, as ``uint64`` sums of their 32-bit halves.  The ``_into``
kernels write into a caller's arrays, so a protocol round can run its
large arithmetic in arrays it borrowed from the
:mod:`repro.tensor.buffers` pool.
"""

from __future__ import annotations

import sys

import numpy as np

import repro.tensor.buffers as buffers

from ...utils.rng import counter_words, row_states, stream_words

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
# Where a uint64's low 32 bits sit in its uint32 view (f_sum).
_LOW_HALF = 0 if sys.byteorder == "little" else 1
# f_matmul's limb split and inner chunk: three limb pairs of MATMUL_CHUNK
# products, each at most (2**21 - 1)**2, sum strictly below 2**53.
_LIMB_BITS = 21
MATMUL_CHUNK = ((1 << 53) - 1) // (3 * ((1 << _LIMB_BITS) - 1) ** 2)
# f_matmul's output tile: about _TILE elements (512 KiB per buffer), and
# never fewer than _MIN_TILE_COLUMNS columns, so each GEMM stays wide.
_TILE = 1 << 16
_MIN_TILE_COLUMNS = 256
# f_pow_gather's block: about this many result elements at a time.
_POW_BLOCK = 1 << 13


def _fold(values: np.ndarray) -> np.ndarray:
    """Reduce any ``uint64`` values into ``[0, PRIME)`` with one fold.

    The high three bits fold onto the low 61 (``2**61 ≡ 1``), leaving at
    most ``PRIME + 7``, so one conditional subtraction finishes.  The
    subtraction is branch-free (``PRIME`` times the comparison), so no
    wrapped intermediate exists, and numpy scalars never warn.
    """
    folded = (values & PRIME) + (values >> _SHIFT61)
    return folded - PRIME * (folded >= PRIME)


def _fold_into(values: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`_fold` in place: ``values`` reduced into ``[0, PRIME)``.

    ``scratch`` is a ``uint64`` buffer of ``values``' shape.  At most
    ``PRIME + 7`` is left after the fold, and ``min(x, x - PRIME)``
    subtracts ``PRIME`` exactly when ``x >= PRIME``.
    """
    np.right_shift(values, _SHIFT61, out=scratch)
    values &= PRIME
    values += scratch
    np.subtract(values, PRIME, out=scratch)
    np.minimum(values, scratch, out=values)
    return values


def to_field(values) -> np.ndarray:
    """Canonical field representatives of (possibly signed) integers.

    Negative inputs map to their additive inverses, so the signed
    fixed-point encoding of a quantized update round-trips through
    :func:`from_field_centered`.
    """
    array = np.asarray(values)
    if array.dtype.kind == "u":
        reduced = array.astype(np.uint64) % PRIME
    elif array.dtype == np.int64:
        # The remainder is canonical: reinterpret its words, no copy.
        reduced = np.mod(array, PRIME_INT).view(np.uint64)
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


def f_add_into(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Field addition in place: ``a`` becomes ``a + b``.

    ``a`` and ``b`` are ``uint64`` arrays of one shape; ``b`` is
    overwritten, as the fold's scratch, so the sum allocates nothing.
    """
    a += b
    return _fold_into(a, b)


def f_sum(terms, shape: tuple[int, ...]) -> np.ndarray:
    """The exact field sum of ``terms``, canonical arrays of ``shape``.

    Each term's words are read as their two 32-bit halves, which add
    into ``uint64`` sums exactly for fewer than ``2**32`` terms; one
    reduction then recombines them as ``high·2**32 + low`` (as in
    :func:`f_mul`).  No field product and no full-size temporary: a sum
    of protocol messages costs one addition per message.  No terms sum
    to zeros.
    """
    halves = np.zeros(tuple(shape) + (2,), dtype=np.uint64)
    for term in terms:
        term = np.asarray(term, dtype=np.uint64)
        halves += term.view(np.uint32).reshape(halves.shape)
    low, high = halves[..., _LOW_HALF], halves[..., 1 - _LOW_HALF]
    total = (high >> _SHIFT29) + ((high & _LOW29) << _SHIFT32)
    total += (low & PRIME) + (low >> _SHIFT61)
    return _fold(total)


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
    # The terms accumulate in place and each limb is dropped once spent,
    # so a product of two large arrays holds few arrays of its size.
    acc = a1 * b1  # < 2**58
    acc *= _EIGHT
    mid = a1 * b0
    del a1
    mid += a0 * b1  # < 2**62
    del b1
    acc += mid >> _SHIFT29
    mid &= _LOW29
    mid <<= _SHIFT32
    acc += mid
    del mid
    low = a0 * b0  # < 2**64
    acc += low >> _SHIFT61
    low &= PRIME
    acc += low
    # Arrays fold in place; numpy scalars (0-d inputs) cannot.
    return _fold_into(acc, low) if isinstance(acc, np.ndarray) else _fold(acc)


def f_pow(base, exponent) -> np.ndarray:
    """Field exponentiation, elementwise.

    ``exponent`` holds non-negative integers below ``2**64`` and
    broadcasts against ``base``, so one call raises many bases to many
    exponents: :func:`f_pow_gather` from the window table of the base's
    own elements, so the powers are built at the base's shape, not the
    result's.
    """
    base = np.asarray(base, dtype=np.uint64)
    exponent = np.asarray(exponent)
    top = int(exponent.max()) if exponent.size else 0
    powers = window_powers(base.reshape(-1), -(-top.bit_length() // 4))
    cells = np.arange(base.size).reshape(base.shape)
    return f_pow_gather(powers, cells, exponent)


def f_pow_gather(powers, which, exponent) -> np.ndarray:
    """``bases[which] ** exponent`` over the field, elementwise, from the
    bases' window table ``powers`` (:func:`window_powers`).

    ``which`` (indices into the bases) and ``exponent`` (non-negative
    integers below ``16**len(powers)``) broadcast to the result's
    shape.  Exponents are read in 4-bit fixed windows: each window
    gathers the power that each element's base and digit select, and
    multiplies it into the result.  So the result costs one product per
    window, whether ``which`` is a broadcast row of peers or one index
    per element, and a table built once serves every call over the same
    bases.  The result is raised a block of leading-axis rows at a time,
    about ``_POW_BLOCK`` elements, so a window's gather and product run
    in cache-sized temporaries.
    """
    exponent = np.asarray(exponent)
    if np.any(exponent < 0):
        raise ValueError("exponent must be non-negative")
    exponent = exponent.astype(np.uint64)
    which = np.asarray(which, dtype=np.intp)
    shape = np.broadcast_shapes(which.shape, exponent.shape)
    # Both operands padded to the result's rank (at least 1), so axis 0
    # is the result's leading axis, which the blocks slice.
    rank = max(len(shape), 1)
    exponent = exponent.reshape((1,) * (rank - exponent.ndim) + exponent.shape)
    which = which.reshape((1,) * (rank - which.ndim) + which.shape)
    result = np.ones(shape or (1,), dtype=np.uint64)
    top = int(exponent.max()) if exponent.size else 0
    windows = -(-top.bit_length() // 4)
    if windows > len(powers):
        raise ValueError(
            f"a {top.bit_length()}-bit exponent needs {windows} windows; "
            f"the table has {len(powers)}"
        )
    if not (windows and result.size):
        return result.reshape(shape)
    step = max(1, _POW_BLOCK * len(result) // result.size)
    for start in range(0, len(result), step):
        rows = slice(start, start + step)
        block_exponent = exponent[rows] if len(exponent) > 1 else exponent
        # Row b of a window's table holds base b's 16 powers: flat index 16b + d.
        block_which = (which[rows] if len(which) > 1 else which) << 4
        block = None
        for window in range(windows):
            digits = (block_exponent >> np.uint64(4 * window)) & np.uint64(15)
            # Digits are below 16, so their words read as intp exactly.
            chosen = powers[window].reshape(-1)[block_which + digits.view(np.intp)]
            block = chosen if block is None else f_mul(block, chosen)
        result[rows] = block
    return result.reshape(shape)


def window_powers(bases, windows: int) -> np.ndarray:
    """``powers[w, b, d] = bases[b] ** (d · 16**w)``: the digit powers of
    every base, for ``windows`` 4-bit windows (:func:`f_pow_gather`'s
    table).

    The squarings run once down the windows, four per window, and each
    lands on its window's digit ``1``, ``2``, ``4`` or ``8``.  Every
    other digit is the product of two powers already built, for all
    windows and bases at once.  So the table takes ``4·windows + 2``
    products at the bases' size, not eight per window.
    """
    bases = np.asarray(bases, dtype=np.uint64)
    powers = np.empty((windows, len(bases), 16), dtype=np.uint64)
    powers[..., 0] = 1
    square = bases
    for k in range(4 * windows):
        if k:
            square = f_mul(square, square)
        powers[k // 4, :, 1 << (k % 4)] = square
    for low in (2, 4, 8):
        powers[..., low + 1 : 2 * low] = f_mul(
            powers[..., 1:low], powers[..., low : low + 1]
        )
    return powers


def _product_tree(values: np.ndarray) -> list[np.ndarray]:
    """The levels of every row's pairwise product tree, leaves first.

    Rows are padded with ones to a power-of-two width.  Level ``d``
    holds the products of aligned runs of ``2**d`` entries, so the last
    level is each row's whole product; building it costs ``k``
    products per row in ``⌈log2 k⌉`` vectorized multiplies.
    """
    count, k = values.shape
    level = np.ones((count, 1 << (k - 1).bit_length()), dtype=np.uint64)
    level[:, :k] = values
    levels = [level]
    while level.shape[1] > 1:
        level = f_mul(level[:, 0::2], level[:, 1::2])
        levels.append(level)
    return levels


def _exclusive_products(values: np.ndarray) -> np.ndarray:
    """``out[r, j] = Π_{i ≠ j} values[r, i]`` over the field, per row.

    Walks :func:`_product_tree` back down from the root: the product of
    everything outside a node's run, times its sibling's product, is the
    product outside each child's run.  With the way up, that is ``3k``
    products per row in ``2·⌈log2 k⌉`` vectorized multiplies, and no
    column loop.
    """
    count, k = values.shape
    levels = _product_tree(values)
    outside = np.ones((count, 1), dtype=np.uint64)
    for level in reversed(levels[:-1]):
        siblings = level.reshape(count, -1, 2)[:, :, ::-1]
        outside = f_mul(outside[:, :, None], siblings).reshape(count, -1)
    return outside[:, :k]


def f_inv(a) -> np.ndarray:
    """Field multiplicative inverse, elementwise; undefined (0) maps to 0.

    A Montgomery batch inverse: one scalar Fermat inverse of the product
    of every nonzero element, times each element's product of the others
    (:func:`_exclusive_products`).
    """
    a = np.asarray(a, dtype=np.uint64)
    if not a.size:
        return a.copy()
    nonzero = np.where(a == 0, _ONE, a).reshape(1, -1)
    others = _exclusive_products(nonzero)[0]
    total = int(f_mul(others[0], nonzero[0, 0]))
    inverses = f_mul(others, np.uint64(pow(total, PRIME_INT - 2, PRIME_INT)))
    return np.where(a == 0, np.uint64(0), inverses.reshape(a.shape))


def f_matmul(a, b) -> np.ndarray:
    """Field matrix product ``a @ b``: ``(m, k)`` times ``(k, ...)``, as
    a fresh ``(m, ...)`` array (:func:`f_matmul_into`)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return f_matmul_into(a, b, np.empty((len(a),) + b.shape[1:], dtype=np.uint64))


def f_matmul_into(a, b, out: np.ndarray) -> np.ndarray:
    """Field matrix product ``a @ b`` written into ``out``.

    ``a`` is ``(m, k)``, ``b`` is ``(k, ...)`` and ``out`` a C-contiguous
    ``uint64`` array of shape ``(m, ...)``.  The one place field
    products are accumulated: Shamir sharing and Lagrange interpolation
    route through it.  Trailing axes of ``b`` are flattened into
    columns, and ``out`` is written as their ``(m, columns)`` matrix.

    The sums run as three float64 BLAS GEMMs per chunk, exactly:

    - Each element splits into three 21-bit limbs,
      ``x = x0 + x1·2**21 + x2·2**42``.  A canonical element is below
      ``2**61``, so its top limb ``x2`` has 19 bits.
    - The nine limb products ``a_s·b_t`` weigh ``2**(21·(s + t))``.
      Modulo ``p = 2**61 - 1``, ``2**63 ≡ 4`` and ``2**84 ≡ 4·2**21``,
      so diagonals 3 and 4 fold into diagonals 0 and 1 at four times
      their products.  That leaves three weight classes:

      - weight ``1``: ``a0·b0 + 4a1·b2 + 4a2·b1``;
      - weight ``2**21``: ``a0·b1 + a1·b0 + 4a2·b2``;
      - weight ``2**42``: ``a0·b2 + a1·b1 + a2·b0``.

      ``a``'s limbs sit side by side as ``[4a1 | 4a2 | a0 | a1 | a2]``
      and ``b``'s top to bottom as ``[b2; b1; b0]``, so each class is
      one GEMM of a ``3k``-column slice of ``a``'s panel times all of
      ``b``'s, with no padding.
    - Every product is at most ``(2**21 - 1)**2``: four times a 19-bit
      limb is below ``2**21 - 1``, so ``4a1·b2``, ``4a2·b1`` and
      ``4a2·b2`` stay within the bound of two 21-bit limbs.  The inner
      axis runs in chunks of ``MATMUL_CHUNK = 682`` terms, the largest
      ``K`` with ``3·K·(2**21 - 1)**2 < 2**53``, so every partial sum of
      a class's ``3K`` products is a non-negative integer below
      ``2**53``, which float64 holds exactly, whatever order BLAS adds
      in.
    - As ``2**61 ≡ 1 (mod p)``, the weights ``2**21`` and ``2**42`` are
      61-bit rotations by 21 and 42 bits.  The canonical accumulator
      plus the three classes (each below ``2**61`` once rotated, with
      their carries below ``2**34``) stays below ``2**63``; one fold per
      chunk reduces the sum.

    The result is built one output tile at a time (:func:`_tile_shape`):
    ``a`` is split into limbs once, ``b`` one column tile at a time into
    a reused buffer, and the conversions, rotations and folds of a tile
    run in place in two cache-sized buffers, so no pass touches a
    full-size temporary.  The limbs of ``a`` and the three tile buffers
    come from the :mod:`repro.tensor.buffers` pool and go back to it on
    return.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    columns = b.reshape(len(b), int(np.prod(b.shape[1:])))
    m, n = len(a), columns.shape[1]
    # A view, never a copy: assigning the shape raises if it would copy.
    product = out.view()
    product.shape = (m, n)
    product.fill(0)
    starts = range(0, a.shape[1], MATMUL_CHUNK)
    a_chunks = [a[:, start : start + MATMUL_CHUNK] for start in starts]
    a_panels = [
        _left_panel(chunk, buffers.acquire((m, 5 * chunk.shape[1]), np.float64))
        for chunk in a_chunks
    ]
    height, width = _tile_shape(m, n, a.shape[1])
    diagonal_buffer = buffers.acquire((height * width,), np.float64)
    term_buffer = buffers.acquire((height * width,), np.uint64)
    panel_buffer = buffers.acquire(
        (3 * min(a.shape[1], MATMUL_CHUNK) * width,), np.float64
    )
    for left in range(0, n, width):
        cols = min(width, n - left)
        for start, a_panel in zip(starts, a_panels):
            b_chunk = columns[start : start + MATMUL_CHUNK, left : left + cols]
            k = len(b_chunk)
            b_split = _limbs(
                b_chunk, axis=0, out=panel_buffer[: 3 * k * cols].reshape(3 * k, cols)
            )
            for top in range(0, m, height):
                rows = min(height, m - top)
                acc = product[top : top + rows, left : left + cols]
                diagonal = diagonal_buffer[: rows * cols].reshape(rows, cols)
                # The float buffer's bytes double as the shift scratch once
                # a class has been converted.
                scratch = diagonal.view(np.uint64)
                term = term_buffer[: rows * cols].reshape(rows, cols)
                for weight in range(3):
                    np.matmul(
                        a_panel[top : top + rows, weight * k : (weight + 3) * k],
                        b_split,
                        out=diagonal,
                    )
                    # Below 2**53, so the (faster) signed cast is exact.
                    np.copyto(term.view(np.int64), diagonal, casting="unsafe")
                    if weight:
                        rotation = _LIMB_BITS * weight
                        np.right_shift(term, np.uint64(61 - rotation), out=scratch)
                        acc += scratch
                        term <<= np.uint64(rotation)
                        term &= PRIME
                    acc += term
                _fold_into(acc, term)
    for buffer in (*a_panels, diagonal_buffer, term_buffer, panel_buffer):
        buffers.release(buffer)
    return out


def _left_panel(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``[4x1 | 4x2 | x0 | x1 | x2]``: the left operand's limbs, and four
    times its two upper limbs, side by side in ``out`` (:func:`f_matmul_into`)."""
    size = values.shape[1]
    _limbs(values, axis=1, out=out[:, 2 * size :])
    np.multiply(out[:, 3 * size :], 4.0, out=out[:, : 2 * size])
    return out


def _limbs(values: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """The three 21-bit limbs of ``values`` as float64, stacked along
    ``axis`` in ``out``: ``[x0 | x1 | x2]`` side by side for ``axis=1``,
    and ``[x2; x1; x0]`` top to bottom for ``axis=0``
    (:func:`f_matmul_into`)."""
    size = values.shape[axis]
    # Field elements fit int64, whose float conversion is the faster.
    words = values.view(np.int64)
    for s in range(3):
        place = s if axis else 2 - s
        index = [slice(None)] * 2
        index[axis] = slice(place * size, (place + 1) * size)
        np.bitwise_and(
            words >> (_LIMB_BITS * s),
            (1 << _LIMB_BITS) - 1,
            out=out[tuple(index)],
            casting="unsafe",
        )
    return out


def _tile_shape(m: int, n: int, k: int) -> tuple[int, int]:
    """The ``(rows, columns)`` of :func:`f_matmul`'s output tiles for an
    ``(m, k) @ (k, n)`` product.

    A tile holds about ``_TILE`` output elements, and its columns about
    ``_TILE`` limbs of ``b``, so its buffers stay in L2.  It is never
    narrower than ``_MIN_TILE_COLUMNS``: a thin GEMM runs far below
    BLAS's peak.  When ``m`` and the inner chunk are both long, the
    GEMMs rather than the tile's passes are the cost, so a tile is then
    at least four times the shorter of the two on each side.
    """
    m, n, k = max(m, 1), max(n, 1), min(k, MATMUL_CHUNK)
    span = 4 * min(k, m)
    budget = min(_TILE // m, _TILE // max(3 * k, 1))
    width = _even_split(n, max(_MIN_TILE_COLUMNS, budget, span))
    return _even_split(m, max(_TILE // width, span, 1)), width


def _even_split(size: int, most: int) -> int:
    """The size of the fewest equal pieces, each at most ``most``, that
    cover ``size``."""
    pieces = -(-size // most)
    return -(-size // pieces)


def keyed_field(
    seed: int, label: str, ids, round_index: int, out: np.ndarray
) -> np.ndarray:
    """Uniform field elements keyed by ``(seed, label, id, round_index,
    column)``, written into the ``(len(ids), k)`` ``uint64`` array ``out``.

    The top 61 bits of :func:`~repro.utils.rng.keyed_words`, folded
    (bias ``2**-61``); like the words, row ``i`` depends only on
    ``ids[i]`` and column ``j`` does not depend on ``k``.  The words are
    drawn, shifted and folded in ``out``, with one pooled scratch array.
    """
    scratch = buffers.acquire(out.shape, np.uint64)
    states = row_states(seed, label, ids, round_index)
    stream_words(states, counter_words(0, out.shape[1]), out, scratch)
    out >>= _THREE
    _fold_into(out, scratch)
    buffers.release(scratch)
    return out


def lagrange_basis(xs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Lagrange basis matrix ``B[t, j] = l_j(targets[t])`` over the field.

    ``xs`` are the distinct interpolation points; the returned matrix
    turns values at ``xs`` into values at ``targets`` by a field
    matrix-vector product.  A target coinciding with an interpolation
    point yields the corresponding unit row automatically (its numerator
    vanishes everywhere else).

    Numerators ``Π_{i ≠ j} (t - x_i)`` are the exclusive row products of
    the targets' difference matrix, and denominators
    ``Π_{i ≠ j} (x_j - x_i)`` the root of the points' product tree (with
    a unit diagonal), so the whole basis costs ``O(log k)`` vectorized
    multiplies and one batch inverse.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    targets = np.asarray(targets, dtype=np.uint64)
    numerators = _exclusive_products(f_sub(targets[:, None], xs[None, :]))
    point_diffs = f_sub(xs[:, None], xs[None, :])
    np.fill_diagonal(point_diffs, 1)
    denominators = _product_tree(point_diffs)[-1][:, 0]
    return f_mul(numerators, f_inv(denominators)[None, :])


def interpolate(xs: np.ndarray, ys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Evaluate the degree-``len(xs)-1`` interpolant of ``(xs, ys)`` at
    ``targets``.

    ``ys`` has shape ``(k, ...)`` — one value vector per interpolation
    point; the result has shape ``(len(targets), ...)``.
    """
    return f_matmul(lagrange_basis(xs, targets), ys)
