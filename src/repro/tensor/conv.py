"""Convolution and pooling primitives built on im2col.

These operations complete the autograd engine with the spatial ops required
by the ResNet-18 evaluation model of the OASIS paper.  All ops take and
return :class:`~repro.tensor.Tensor` in NCHW layout.

The kernels are dual-mode (see :mod:`repro.tensor.backend`): the fused mode
gathers patches through a zero-copy strided view into a pooled column
buffer, scatters gradients back with a :math:`k^2` slice-accumulate loop,
and reuses cached einsum contraction paths; the reference mode keeps the
pre-acceleration fancy-index gather and ``np.add.at`` scatter.  Both modes
are bit-identical: the gather reads the same elements into the same layout,
the slice loop applies per-pixel contributions in exactly ``np.add.at``'s
patch-major order (for a fixed output pixel, contributing patches arrive in
ascending ``ki*k+kj``, and within one patch offset every target pixel is
written at most once), and a cached einsum path dispatches the same
contraction ``optimize=True`` would re-derive on every call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

import repro.tensor.backend as backend
import repro.tensor.buffers as buffers
from repro.tensor.tensor import Tensor

#: Batch-norm running-statistics momentum and variance epsilon (PyTorch's
#: defaults).
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


@lru_cache(maxsize=None)
def _im2col_indices(
    height: int, width: int, kernel: int, stride: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Return gather indices mapping an image to its patch matrix.

    Cached: every conv/pool forward of every cell of every sweep used to
    recompute these index grids from scratch.  The returned arrays are
    marked read-only so no caller can corrupt the cache.
    """
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    i0 = np.repeat(np.arange(kernel), kernel)
    j0 = np.tile(np.arange(kernel), kernel)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols, out_h, out_w


_EINSUM_PATHS: dict = {}


def _einsum(equation: str, a: np.ndarray, b: np.ndarray, out=None):
    """``einsum`` with the contraction path cached per (equation, shapes).

    ``optimize=True`` re-runs the path search on every call — measurable
    against small convolutions — while an explicit path dispatches the
    identical contraction, so results are bit-identical.
    """
    key = (equation, a.shape, b.shape)
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(equation, a, b, optimize=True)[0]
        _EINSUM_PATHS[key] = path
    return np.einsum(equation, a, b, out=out, optimize=path)


def _im2col(x: np.ndarray, kernel: int, stride: int) -> tuple[np.ndarray, tuple]:
    """Rearrange ``x`` (N,C,H,W) into columns of shape (N, C*k*k, L).

    Fused mode copies a 6-D strided window view straight into a pooled
    buffer (same elements, same (ki*k+kj, oh*out_w+ow) layout as the
    reference fancy-index gather); callers release the buffer when their
    backward (or grad-free forward) is done with it.
    """
    n, c, h, w = x.shape
    rows, cols, out_h, out_w = _im2col_indices(h, w, kernel, stride)
    if backend.FUSED:
        sn, sc, sh, sw = x.strides
        view = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, kernel, kernel, out_h, out_w),
            strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        )
        buf = buffers.acquire((n, c * kernel * kernel, out_h * out_w), x.dtype)
        np.copyto(buf.reshape(n, c, kernel, kernel, out_h, out_w), view)
        return buf, (rows, cols, out_h, out_w)
    patches = x[:, :, rows, cols]
    # Fancy indexing with leading slices yields a transposed-view layout;
    # materialize in C order so both kernel modes hand every consumer the
    # same memory layout (full reductions over a pool's output flatten in
    # memory order, so a layout mismatch shows up as one-ulp drift).
    patches = np.ascontiguousarray(patches)
    return patches.reshape(n, c * kernel * kernel, -1), (rows, cols, out_h, out_w)


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    rows: np.ndarray,
    col_idx: np.ndarray,
    stride: int,
) -> np.ndarray:
    """Scatter-add column gradients back to image layout (inverse of im2col).

    Fused mode replaces the ``np.add.at`` scatter with a slice-accumulate
    loop over the ``k*k`` patch offsets.  Summation order is provably
    identical: ``np.add.at`` applies colliding contributions in its index
    arrays' C iteration order (patch-offset-major), and the loop applies
    whole patch offsets in that same ascending order while within one
    offset every target pixel receives at most one contribution.
    """
    n, c, h, w = x_shape
    if backend.FUSED:
        out_h = (h - kernel) // stride + 1
        out_w = (w - kernel) // stride + 1
        grad = buffers.acquire((n, c, h, w), cols.dtype)
        grad.fill(0.0)
        patches = cols.reshape(n, c, kernel, kernel, out_h, out_w)
        for ki in range(kernel):
            row_end = ki + stride * out_h
            for kj in range(kernel):
                col_end = kj + stride * out_w
                grad[:, :, ki:row_end:stride, kj:col_end:stride] += patches[:, :, ki, kj]
        return grad
    grad = np.zeros((n, c, h, w), dtype=cols.dtype)
    patches = cols.reshape(n, c, kernel * kernel, -1)
    np.add.at(grad, (slice(None), slice(None), rows, col_idx), patches)
    return grad


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x: input of shape (N, C_in, H, W)
    weight: kernel of shape (C_out, C_in, k, k)
    bias: optional per-channel bias of shape (C_out,)
    """
    if padding:
        x = x.pad2d(padding)
    n, c_in, h, w = x.shape
    c_out, _, kernel, _ = weight.shape
    fused = backend.FUSED
    cols, (rows, col_idx, out_h, out_w) = _im2col(x.data, kernel, stride)
    w_mat = weight.data.reshape(c_out, -1)
    if fused:
        out = _einsum("of,nfl->nol", w_mat, cols)
        if bias is not None:
            np.add(out, bias.data.reshape(1, -1, 1), out=out)
    else:
        out = np.einsum("of,nfl->nol", w_mat, cols, optimize=True)
        if bias is not None:
            out = out + bias.data.reshape(1, -1, 1)
    out = out.reshape(n, c_out, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(result: Tensor) -> Callable[[], None]:
        def run() -> None:
            grad_out = result.grad.reshape(n, c_out, -1)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad_out.sum(axis=(0, 2)), fresh=fused)
            if weight.requires_grad:
                if fused:
                    grad_w = _einsum("nol,nfl->of", grad_out, cols)
                else:
                    grad_w = np.einsum("nol,nfl->of", grad_out, cols, optimize=True)
                weight._accumulate(grad_w.reshape(weight.shape), fresh=fused)
            if x.requires_grad:
                if fused:
                    grad_cols = buffers.acquire(cols.shape, cols.dtype)
                    _einsum("of,nol->nfl", w_mat, grad_out, out=grad_cols)
                else:
                    grad_cols = np.einsum("of,nol->nfl", w_mat, grad_out, optimize=True)
                grad_x = _col2im(grad_cols, x.shape, kernel, rows, col_idx, stride)
                if fused:
                    buffers.release(grad_cols)
                x._accumulate(grad_x, fresh=fused)
            if fused:
                buffers.release(cols)

        return run

    result = Tensor._make(out, parents, backward)
    if fused and result._backward is None:
        # Grad-free forward (no_grad inversion paths): nothing will run
        # the backward, so hand the column buffer back immediately.
        buffers.release(cols)
    return result


def max_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Max pooling over non-overlapping ``kernel`` x ``kernel`` windows."""
    n, c, h, w = x.shape
    fused = backend.FUSED
    cols, (rows, col_idx, out_h, out_w) = _im2col(
        x.data.reshape(n * c, 1, h, w), kernel, kernel
    )
    # cols: (N*C, k*k, L)
    argmax = cols.argmax(axis=1)
    out = np.take_along_axis(cols, argmax[:, None, :], axis=1)[:, 0, :]
    out = out.reshape(n, c, out_h, out_w)

    def backward(result: Tensor) -> Callable[[], None]:
        def run() -> None:
            if not x.requires_grad:
                return
            grad_out = result.grad.reshape(n * c, 1, -1)
            if fused:
                grad_cols = buffers.acquire(cols.shape, cols.dtype)
                grad_cols.fill(0.0)
            else:
                grad_cols = np.zeros_like(cols)
            np.put_along_axis(grad_cols, argmax[:, None, :], grad_out, axis=1)
            grad = _col2im(grad_cols, (n * c, 1, h, w), kernel, rows, col_idx, kernel)
            if fused:
                buffers.release(grad_cols)
                buffers.release(cols)
            x._accumulate(grad.reshape(n, c, h, w), fresh=fused)

        return run

    result = Tensor._make(out, (x,), backward)
    if fused and result._backward is None:
        buffers.release(cols)
    return result


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Adaptive average pooling to 1x1, returned as (N, C)."""
    return x.mean(axis=(2, 3))


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Fused batch normalization over (N, H, W) per channel.

    Updates ``running_mean``/``running_var`` in place while ``training``.
    ``x`` may be (N, C) or (N, C, H, W).  (This op was numpy-fused from
    the start; only the gradient-adoption hint is mode-dependent.)
    """
    spatial = x.ndim == 4
    axes = (0, 2, 3) if spatial else (0,)
    shape = (1, -1, 1, 1) if spatial else (1, -1)

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        count = x.data.size // x.shape[1]
        unbiased = var * count / max(count - 1, 1)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = (x.data - mean.reshape(shape)) * inv_std.reshape(shape)
    out = gamma.data.reshape(shape) * x_hat + beta.data.reshape(shape)

    def backward(result: Tensor) -> Callable[[], None]:
        def run() -> None:
            fused = backend.FUSED
            grad_out = result.grad
            if beta.requires_grad:
                beta._accumulate(grad_out.sum(axis=axes), fresh=fused)
            if gamma.requires_grad:
                gamma._accumulate((grad_out * x_hat).sum(axis=axes), fresh=fused)
            if not x.requires_grad:
                return
            if training:
                g = grad_out * gamma.data.reshape(shape)
                mean_g = g.mean(axis=axes, keepdims=True)
                mean_gx = (g * x_hat).mean(axis=axes, keepdims=True)
                grad_x = (g - mean_g - x_hat * mean_gx) * inv_std.reshape(shape)
            else:
                grad_x = grad_out * gamma.data.reshape(shape) * inv_std.reshape(shape)
            x._accumulate(grad_x, fresh=fused)

        return run

    return Tensor._make(out, (x, gamma, beta), backward)
