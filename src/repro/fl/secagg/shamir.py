"""Vectorized Shamir t-of-n secret sharing over GF(2**61 - 1).

Secrets are field scalars (or batches of them); sharing a batch is one
field matrix product — the Vandermonde matrix of the share points times
the stacked ``[secrets; coefficients]``.  Sharing every client's seed
pair in a 1000-client round is one :func:`~.field.f_matmul_into` call, whose
few BLAS GEMMs cover every share row and coefficient at once.

Share ``j`` (1-indexed ``x = j``) of secret ``s`` is ``f(j)`` for a
random polynomial ``f`` of degree ``t - 1`` with ``f(0) = s``.  Any
``t`` shares reconstruct by Lagrange interpolation at zero; ``t - 1``
shares are information-theoretically independent of the secret.
"""

from __future__ import annotations

import functools

import numpy as np

from .field import f_matmul_into, f_pow, interpolate


def share_polynomials(polynomials: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Split a batch of secrets into Shamir shares, written into ``out``.

    ``polynomials`` is ``(t,) + S``: canonical field elements of any
    shape ``S`` (the secrets), then their ``t - 1`` uniform
    higher-degree coefficients, lowest degree first, so the threshold is
    ``t``.  ``out`` is a C-contiguous ``(num_shares,) + S`` ``uint64``
    array; row ``j`` becomes the shares evaluated at ``x = j + 1``.  Any
    ``t`` rows recover the batch via :func:`reconstruct_secrets`.
    """
    if len(polynomials) > len(out):
        raise ValueError(
            f"{len(polynomials) - 1} coefficients imply threshold "
            f"{len(polynomials)}, above the {len(out)} shares"
        )
    return f_matmul_into(_vandermonde(len(out), len(polynomials)), polynomials, out)


@functools.lru_cache(maxsize=16)
def _vandermonde(num_shares: int, terms: int) -> np.ndarray:
    """``V[j, d] = (j + 1)**d``: the share points' powers, which depend
    on the sharing's shape alone, so sharings of one shape share them,
    read-only."""
    xs = np.arange(1, num_shares + 1, dtype=np.uint64)
    vandermonde = f_pow(xs[:, None], np.arange(terms)[None, :])
    vandermonde.setflags(write=False)
    return vandermonde


def reconstruct_secrets(xs, shares: np.ndarray) -> np.ndarray:
    """Recover the secret batch from shares at the given x-coordinates.

    ``xs`` are the 1-indexed share coordinates (length ``k >= threshold``)
    and ``shares`` the matching ``(k, m)`` rows.  Interpolates the sharing
    polynomials at zero.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    shares = np.atleast_2d(np.asarray(shares, dtype=np.uint64))
    if len(xs) != len(shares):
        raise ValueError("xs/shares length mismatch")
    if len(set(int(x) for x in xs)) != len(xs):
        raise ValueError("share x-coordinates must be distinct")
    return interpolate(xs, shares, np.zeros(1, dtype=np.uint64))[0]
