"""Single-node fused kernels for the hot chains of the training loop.

Each kernel here collapses a multi-node autograd chain into one graph node
with a hand-written backward.  The contract, enforced by the equivalence
suite (``tests/test_tensor_core_equivalence.py``) and the golden grids, is
**bit-identity with the reference graph**: the forward replays the exact
float64 op order the unfused chain executes, and the backward replays the
exact contribution order the reference closures produce — so a sweep cell
run on fused kernels is byte-for-byte the cell run on the reference graph,
just with ~4x fewer graph nodes and temporaries on its hottest path.

Why bit-identity holds (the derivations live in DESIGN.md "The tensor
core"): ``a - b == a + (-b)`` exactly; negation is a sign-bit flip and
commutes bitwise with pairwise-summation reductions; multiplication is
commutative exactly; ``out=`` ufuncs round identically to their allocating
forms; and the backward contribution order is read off the reference
graph's reversed topological order, not re-derived algebraically.

Callers are expected to gate on :data:`repro.tensor.backend.FUSED` — in
reference mode the layers/losses build the original chains instead, which
is what ``benchmarks/bench_tensor_core.py`` measures against.
"""

from __future__ import annotations

import functools
import os
from typing import Callable

import numpy as np

import repro.tensor.buffers as buffers
from repro.tensor.tensor import Tensor

__all__ = ["linear", "cross_entropy", "one_hot"]


@functools.lru_cache(maxsize=1024)
def transposed_gemm_agrees(batch: int, fan_in: int, fan_out: int, dtype: str) -> bool:
    """Whether BLAS sums ``g.T @ x`` in the order of ``(x.T @ g).T``.

    Both GEMMs sum each weight-gradient element over the batch axis, but
    swapping which operand is transposed swaps the kernel's M and N
    roles, and a BLAS may then sum edge tiles in another order.  Whether
    it does depends on the BLAS build and the shape (OpenBLAS 0.3.31 on
    SkylakeX agrees at 3072 -> 64 or 100 and differs at 3072 -> 300), so
    each C-contiguous shape is probed once per process on random data: a
    different summation order shows as a differing bit.
    """
    probe = np.random.default_rng(0)
    x = probe.standard_normal((batch, fan_in)).astype(dtype, copy=False)
    g = probe.standard_normal((batch, fan_out)).astype(dtype, copy=False)
    return np.array_equal(g.T @ x, (x.T @ g).T)


if hasattr(os, "register_at_fork"):
    # A forked worker may run its BLAS with other thread counts: probe afresh.
    os.register_at_fork(after_in_child=transposed_gemm_agrees.cache_clear)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused ``y = x @ W.T + b`` for 2-D activations: one node, no views.

    Replaces the reference transpose->matmul->add three-node chain.  The
    backward replays the reference contribution order (bias from the add
    node first, then weight, then the input from the matmul node).  The
    reference computes ``grad_w`` as ``(x.T @ g).T``.  Where BLAS sums
    ``g.T @ x`` in the same order (:func:`transposed_gemm_agrees`), that
    one GEMM writes the C-order weight gradient; elsewhere the reference
    GEMM's result is copied out of its transposed layout.
    """
    data = x.data @ weight.data.T
    np.add(data, bias.data, out=data)

    def backward(out: Tensor) -> Callable[[], None]:
        def run() -> None:
            g = out.grad
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=(0,)), fresh=True)
            if weight.requires_grad:
                # Into a C-contiguous pooled buffer: downstream *full*
                # reductions (gradient clipping's np.sum) flatten in
                # memory order, so a transposed layout would change
                # their pairwise-summation grouping.
                dtype = np.result_type(g, x.data)
                buf = buffers.acquire(weight.data.shape, dtype)
                if (
                    g.flags.c_contiguous
                    and x.data.flags.c_contiguous
                    and transposed_gemm_agrees(*x.shape, g.shape[1], dtype.str)
                ):
                    np.matmul(g.T, x.data, out=buf)
                else:
                    np.copyto(buf, (x.data.T @ g).T)
                weight._accumulate(buf, fresh=True)
            if x.requires_grad:
                x._accumulate(g @ weight.data, fresh=True)

        return run

    return Tensor._make(data, (x, weight, bias), backward)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels as one-hot rows."""
    labels = np.asarray(labels, dtype=np.int64)
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Fused mean softmax cross-entropy over integer targets: one graph node.

    Replaces the ~10-node reference chain (max/sub/exp/sum/log/sub/mul/
    sum/neg/sum/scale) built by ``log_softmax`` + ``CrossEntropyLoss``.
    Forward and backward replay the reference op order exactly — see the
    module docstring for the bit-identity contract.
    """
    num_classes = logits.shape[-1]
    encoded = one_hot(np.asarray(targets), num_classes)

    # Forward, op for op as the reference chain computes it.
    maxes = logits.data.max(axis=-1, keepdims=True)
    shifted = logits.data - maxes
    exps = np.exp(shifted)
    sums = exps.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(sums)
    per_sample = -(log_probs * encoded).sum(axis=-1)
    inv = 1.0 / per_sample.size
    data = per_sample.sum() * inv

    def backward(out: Tensor) -> Callable[[], None]:
        def run() -> None:
            if not logits.requires_grad:
                return
            # Reference reversed-topo replay: the loss scale, then the
            # one-hot path into log_probs, then the log-sum-exp path.
            g = out.grad * inv
            a1 = (-g) * encoded
            g_sums = a1.sum(axis=-1, keepdims=True)
            grad_logits = a1 + np.broadcast_to((-g_sums) / sums, a1.shape) * exps
            logits._accumulate(grad_logits, fresh=True)

        return run

    return Tensor._make(np.asarray(data), (logits,), backward)
