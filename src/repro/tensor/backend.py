"""The kernel-mode switch for the tensor core.

``"fused"`` (the default) runs the accelerated kernels: single-node fused
ops (subtract, mean/var, linear, cross-entropy), in-place gradient
accumulation over the :mod:`repro.tensor.buffers` pool, ``out=``
optimizer arithmetic, and the strided ``_col2im``.  ``"reference"``
reproduces the pre-acceleration op-for-op graph — one node per primitive,
allocating accumulation — and exists for two reasons: it is the in-repo
A/B baseline that ``benchmarks/bench_tensor_core.py`` measures speedups
against, and it is the oracle the byte-identity equivalence suite compares
the fused kernels to (every fused kernel must produce bit-identical values
*and* bit-identical accumulation order; see DESIGN.md "The tensor core").
"""

from __future__ import annotations

import contextlib
from typing import Iterator

__all__ = [
    "kernel_mode",
    "set_kernel_mode",
    "reference_kernels",
    "FUSED",
]

#: Fast-path predicate for the kernel mode, read by every kernel.  True
#: means the fused/in-place kernels run; False means the reference
#: (pre-acceleration) graph is built instead.
FUSED: bool = True

_MODES = ("fused", "reference")


def kernel_mode() -> str:
    """Return the active kernel mode: ``"fused"`` or ``"reference"``."""
    return "fused" if FUSED else "reference"


def set_kernel_mode(mode: str) -> str:
    """Select the kernel mode; returns the previous mode.

    ``"fused"`` is the production default.  ``"reference"`` rebuilds the
    pre-acceleration graph and is intended for A/B benchmarking and the
    byte-identity equivalence suite only — it is strictly slower.
    """
    global FUSED
    if mode not in _MODES:
        raise ValueError(f"unknown kernel mode {mode!r}; expected one of {_MODES}")
    previous = kernel_mode()
    FUSED = mode == "fused"
    return previous


@contextlib.contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the enclosed block on the pre-acceleration reference kernels."""
    previous = set_kernel_mode("reference")
    try:
        yield
    finally:
        set_kernel_mode(previous)
