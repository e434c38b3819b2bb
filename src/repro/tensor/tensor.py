"""A numpy-backed tensor with reverse-mode automatic differentiation.

This module provides the differentiable :class:`Tensor` used by every other
subsystem in the repository (the neural-network library, the federated
learning simulator, and the reconstruction attacks).  The reconstruction
attacks in the OASIS paper rely on *exact* gradient algebra — notably the
identity ``dL/dW_i = (dL/db_i) * x`` for a ReLU-gated linear layer — so the
implementation favours numerical exactness (float64 by default) and
PyTorch-compatible gradient accumulation semantics (gradients of a batch are
summed over the batch dimension).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

import repro.tensor.backend as backend
import repro.tensor.buffers as buffers
from repro.tensor.autograd import is_grad_enabled, topological_order

ArrayLike = Union[np.ndarray, float, int, Sequence]

DEFAULT_DTYPE = np.float64

# Optional op-construction hook for repro.profile: called as
# ``hook(backward_factory, data)`` from Tensor._make for every graph node.
# A single global read when unset keeps the disabled cost negligible.
_PROFILE_HOOK: Optional[Callable] = None


def set_profile_hook(hook: Optional[Callable]) -> Optional[Callable]:
    """Install (or clear, with None) the ``Tensor._make`` profiling hook.

    Returns the previously installed hook so callers can restore it.  The
    hook receives the op's backward factory (whose ``__qualname__`` names
    the op) and the freshly computed result array; :mod:`repro.profile`
    uses it to attribute sweep-cell wall time to named ops.  A hook may
    return a replacement backward factory (or None to keep the original),
    which is how the profiler times backward closures per op.
    """
    global _PROFILE_HOOK
    previous = _PROFILE_HOOK
    _PROFILE_HOOK = hook
    return previous


def _as_array(data: ArrayLike, dtype=DEFAULT_DTYPE) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


def _freed_graph() -> None:
    """Backward stand-in left on op nodes after their graph was freed."""
    raise RuntimeError(
        "backward through a graph that was already freed: a graph supports "
        "one backward pass; rebuild it with a new forward"
    )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A multi-dimensional array that records operations for autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` unless another dtype is
        supplied.
    requires_grad:
        When True, operations involving this tensor build a backward graph
        and :meth:`backward` accumulates into :attr:`grad`.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_backward",
        "_grad_owned", "__weakref__",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=DEFAULT_DTYPE,
    ) -> None:
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple["Tensor", ...] = ()
        self._backward: Optional[Callable[[], None]] = None
        # True when ``grad`` is exclusively ours: safe to mutate in place
        # and to hand back to the buffer pool at zero_grad().
        self._grad_owned = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        if self._grad_owned and self.grad is not None:
            buffers.release(self.grad)
        self.grad = None
        self._grad_owned = False

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[["Tensor"], Callable[[], None]],
    ) -> "Tensor":
        """Build an op result, attaching the graph only in grad mode."""
        if _PROFILE_HOOK is not None:
            replacement = _PROFILE_HOOK(backward, data)
            if replacement is not None:
                backward = replacement
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad or p._parents)
            out._backward = backward(out)
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add one backward contribution to :attr:`grad`.

        ``fresh=True`` asserts the caller just computed ``grad`` and holds
        no other reference to it (fused kernels pass this), so it can be
        adopted as an owned buffer without the defensive copy.  Arrays
        *not* marked fresh may be shared — e.g. both parents of an ``add``
        with equal shapes receive the same ``out.grad`` array — so they
        are borrowed read-only and upgraded to an owned pool buffer only
        when a second contribution arrives.

        The fused path produces bit-identical values to the reference
        path: ``np.copyto``/``np.add(..., out=)`` round exactly like
        ``.copy()``/``+`` — only the allocation behaviour differs.
        """
        if not self.requires_grad:
            return
        if backend.FUSED:
            current = self.grad
            if current is None:
                if fresh:
                    self.grad = grad
                    self._grad_owned = True
                elif grad.base is not None or grad is self.data:
                    buf = buffers.acquire(grad.shape, grad.dtype)
                    np.copyto(buf, grad)
                    self.grad = buf
                    self._grad_owned = True
                else:
                    self.grad = grad
                    self._grad_owned = False
            elif self._grad_owned:
                np.add(current, grad, out=current)
            else:
                buf = buffers.acquire(current.shape, current.dtype)
                np.add(current, grad, out=buf)
                self.grad = buf
                self._grad_owned = True
            return
        # Reference kernels: the pre-acceleration allocating accumulate,
        # kept as the A/B baseline and byte-identity oracle.
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad is self.data else grad
            self._grad_owned = False
        else:
            self.grad = self.grad + grad  # repro-lint: disable=no-allocating-accumulate -- reference kernel mode preserves the pre-acceleration graph as the bench baseline and equivalence oracle
            self._grad_owned = False

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1 for scalar outputs (the usual loss case).

        The graph is freed once the pass finishes (PyTorch's default
        ``retain_graph=False``): every visited op node drops its backward
        closure and its parents, which breaks the ``node -> closure ->
        node`` reference cycles, so refcounting reclaims activations and
        models at once instead of waiting for the cyclic collector.
        ``.grad`` values stay.  A second backward through a freed node
        raises :class:`RuntimeError`.
        """
        if self._backward is _freed_graph:
            _freed_graph()
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, self.data.dtype)
        self._accumulate(grad)
        order = topological_order(self)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward()
        for node in order:
            if node._backward is not None:
                node._backward = _freed_graph
                node._parents = ()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(_as_array(other, self.data.dtype))

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad, other.shape))

            return run

        return Tensor._make(data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(-out.grad)

            return run

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        if not backend.FUSED:
            return self.__add__(-other)
        # One node instead of the reference neg+add pair.  Bit-identical:
        # ``a - b == a + (-b)`` exactly in IEEE-754, and negation commutes
        # bitwise with the unbroadcast reduction (round-to-nearest is
        # symmetric under sign flip), so ``-unbroadcast(g) == unbroadcast(-g)``.
        data = self.data - other.data

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(-_unbroadcast(out.grad, other.shape), fresh=True)

            return run

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

            return run

        return Tensor._make(data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
                if other.requires_grad:
                    grad_other = -out.grad * self.data / (other.data ** 2)
                    other._accumulate(_unbroadcast(grad_other, other.shape))

            return run

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

            return run

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * mask)

            return run

        return Tensor._make(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * data)

            return run

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad / self.data)

            return run

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self.__pow__(0.5)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * sign)

            return run

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * mask)

            return run

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix operations
    # ------------------------------------------------------------------
    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    if other.data.ndim == 1:
                        self._accumulate(np.outer(out.grad, other.data).reshape(self.shape))
                    else:
                        grad = out.grad @ np.swapaxes(other.data, -1, -2)
                        self._accumulate(_unbroadcast(grad, self.shape))
                if other.requires_grad:
                    if self.data.ndim == 1:
                        other._accumulate(np.outer(self.data, out.grad).reshape(other.shape))
                    else:
                        grad = np.swapaxes(self.data, -1, -2) @ out.grad
                        other._accumulate(_unbroadcast(grad, other.shape))

            return run

        return Tensor._make(data, (self, other), backward)

    def transpose(self, *axes: int) -> "Tensor":
        order = axes if axes else tuple(reversed(range(self.ndim)))
        data = self.data.transpose(order)
        inverse = np.argsort(order)

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad.transpose(inverse))

            return run

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad.reshape(original))

            return run

        return Tensor._make(data, (self,), backward)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    grad = np.zeros_like(self.data)
                    np.add.at(grad, index, out.grad)
                    self._accumulate(grad)

            return run

        return Tensor._make(data, (self,), backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions symmetrically."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.ndim - 2) + [(padding, padding), (padding, padding)]
        data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(None) if before == 0 else slice(before, -before)
            for before, _ in pad_width
        )

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad[slices])

            return run

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if not self.requires_grad:
                    return
                grad = out.grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % self.ndim for a in axes)
                    shape = tuple(
                        1 if i in axes else s for i, s in enumerate(self.shape)
                    )
                    grad = grad.reshape(shape)
                self._accumulate(np.broadcast_to(grad, self.shape))

            return run

        return Tensor._make(np.asarray(data), (self,), backward)

    def _reduce_count(self, axis) -> int:
        if axis is None:
            return self.size
        axes = axis if isinstance(axis, tuple) else (axis,)
        return int(np.prod([self.shape[a % self.ndim] for a in axes]))

    def _expand_reduced(self, grad: np.ndarray, axis, keepdims: bool) -> np.ndarray:
        """Reshape a reduced gradient back to broadcast against ``self``."""
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(a % self.ndim for a in axes)
            shape = tuple(1 if i in axes else s for i, s in enumerate(self.shape))
            grad = grad.reshape(shape)
        return grad

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self._reduce_count(axis)
        inv = 1.0 / count
        if not backend.FUSED:
            return self.sum(axis=axis, keepdims=keepdims) * inv
        # Fused sum-then-scale: one node for the reference sum+mul pair.
        # The scale must stay ``sum * (1/count)`` — dividing by ``count``
        # rounds differently, so np.mean would break byte-identity.
        data = self.data.sum(axis=axis, keepdims=keepdims) * inv

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if not self.requires_grad:
                    return
                grad = self._expand_reduced(out.grad * inv, axis, keepdims)
                self._accumulate(np.broadcast_to(grad, self.shape))

            return run

        return Tensor._make(np.asarray(data), (self,), backward)

    def var(self, axis=None) -> "Tensor":
        if not backend.FUSED:
            centered = self - self.mean(axis=axis, keepdims=True)
            return (centered * centered).mean(axis=axis)
        # Fused biased variance: one node for the reference seven-node
        # sum/scale/neg/add/mul/sum/scale chain.  Forward replays the
        # reference op order exactly; backward replays the reference
        # closure order (the ``centered*centered`` double contribution
        # first, then the mean-path correction), so values and the
        # accumulation order are bit-identical.
        count = self._reduce_count(axis)
        inv = 1.0 / count
        mean_kept = self.data.sum(axis=axis, keepdims=True) * inv
        centered = self.data - mean_kept
        squared = centered * centered
        data = squared.sum(axis=axis) * inv

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if not self.requires_grad:
                    return
                g_sq = np.broadcast_to(
                    self._expand_reduced(out.grad * inv, axis, False), self.shape
                )
                term = g_sq * centered
                grad_centered = term + term
                self._accumulate(grad_centered, fresh=True)
                reduced = _unbroadcast(grad_centered, mean_kept.shape)
                self._accumulate(np.broadcast_to((-reduced) * inv, self.shape))

            return run

        return Tensor._make(np.asarray(data), (self,), backward)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        max_kept = self.data.max(axis=axis, keepdims=True)
        mask = self.data == max_kept
        counts = mask.sum(axis=axis, keepdims=True)

        def backward(out: "Tensor") -> Callable[[], None]:
            def run() -> None:
                if not self.requires_grad:
                    return
                grad = out.grad
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis)
                self._accumulate(mask * grad / counts)

            return run

        return Tensor._make(np.asarray(data), (self,), backward)

    # ------------------------------------------------------------------
    # Composite helpers used by losses
    # ------------------------------------------------------------------
    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out: Tensor) -> Callable[[], None]:
        def run() -> None:
            for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    index = [slice(None)] * out.grad.ndim
                    index[axis] = slice(start, end)
                    tensor._accumulate(out.grad[tuple(index)])

        return run

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(out: Tensor) -> Callable[[], None]:
        def run() -> None:
            for i, tensor in enumerate(tensors):
                if tensor.requires_grad:
                    tensor._accumulate(np.take(out.grad, i, axis=axis))

        return run

    return Tensor._make(data, tuple(tensors), backward)
