"""Numpy-backed autograd tensor engine.

The engine provides PyTorch-like eager automatic differentiation with exact
float64 gradient algebra.  It exists because the OASIS active-reconstruction
attacks invert the literal gradient arithmetic of a Linear+ReLU layer
(Eq. 6 of the paper): any substrate with approximate gradients would change
the experiment, so we build the exact thing.
"""

from repro.tensor import backend, buffers
from repro.tensor.autograd import is_grad_enabled, no_grad, topological_order
from repro.tensor.backend import reference_kernels, set_kernel_mode
from repro.tensor.conv import (
    batch_norm,
    conv2d,
    global_avg_pool2d,
    max_pool2d,
)
from repro.tensor.tensor import Tensor, concatenate, set_profile_hook, stack

__all__ = [
    "Tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "topological_order",
    "conv2d",
    "max_pool2d",
    "global_avg_pool2d",
    "batch_norm",
    "backend",
    "buffers",
    "reference_kernels",
    "set_kernel_mode",
    "set_profile_hook",
]
