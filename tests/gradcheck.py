"""Central-difference gradients for autograd verification (test helper).

Not a test module: test files import ``numerical_gradient`` from here to
check every autograd op against finite differences; the attacks depend on
gradient exactness, so that check is load-bearing rather than cosmetic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def numerical_gradient(
    func: Callable[[np.ndarray], float],
    point: np.ndarray,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Central-difference estimate of ``d func / d point``."""
    grad = np.zeros_like(point, dtype=np.float64)
    flat_point = point.reshape(-1)
    flat_grad = grad.reshape(-1)
    for index in range(flat_point.size):
        original = flat_point[index]
        flat_point[index] = original + epsilon
        upper = func(point)
        flat_point[index] = original - epsilon
        lower = func(point)
        flat_point[index] = original
        flat_grad[index] = (upper - lower) / (2.0 * epsilon)
    return grad
