"""Autograd bookkeeping: gradient mode and the backward pass.

The engine is a reverse-mode automatic differentiation system in the style
of PyTorch's eager mode: every operation on :class:`~repro.tensor.Tensor`
records a closure that propagates the output gradient to its parents.
Calling :meth:`Tensor.backward` topologically sorts the recorded graph,
runs the closures in reverse order, and then frees the graph.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.tensor.tensor import Tensor

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables gradient recording.

    Inside the context, operations produce plain result tensors with no
    autograd graph attached, mirroring ``torch.no_grad()``.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def topological_order(root: "Tensor") -> list["Tensor"]:
    """Return tensors reachable from ``root`` in reverse-usable order.

    The returned list ends with ``root``; iterating it backwards visits every
    node after all of its consumers, which is the order required for
    reverse-mode accumulation.  Iterative DFS is used so deep graphs (long
    training loops, deep ResNets) do not hit the recursion limit.
    """
    order: list["Tensor"] = []
    visited: set[int] = set()
    stack: list[tuple["Tensor", bool]] = [(root, False)]
    while stack:
        node, children_done = stack.pop()
        if children_done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order
