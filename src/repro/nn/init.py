"""Weight initialization schemes (Kaiming-uniform weights, fan-in biases).

All initializers take an explicit ``numpy.random.Generator`` so model
construction is deterministic under a fixed seed — a requirement for
reproducible federated-learning experiments.
"""

from __future__ import annotations

import numpy as np


def _fan_in(shape: tuple[int, ...]) -> int:
    if len(shape) == 2:  # Linear: (out, in)
        return shape[1]
    if len(shape) == 4:  # Conv: (out, in, k, k)
        return shape[1] * shape[2] * shape[3]
    return int(np.prod(shape))


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He-uniform init, the PyTorch default for Linear/Conv layers."""
    bound = np.sqrt(6.0 / _fan_in(shape))
    return rng.uniform(-bound, bound, size=shape)


def bias_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """PyTorch-style bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape)
