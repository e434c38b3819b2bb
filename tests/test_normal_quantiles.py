"""The attacks' Gaussian quantiles match ``scipy.stats.norm.ppf`` bit for bit.

The library computes them with ``scipy.special.ndtri`` (``scipy.stats``
costs most of a second to import); ``norm.ppf(p, loc, scale)`` is the
oracle, and it lives here so library imports never pay for it.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.attacks import RTFAttack
from repro.attacks.traps import trap_biases


@pytest.mark.parametrize("num_neurons", [2, 3, 7, 64, 500, 4096])
@pytest.mark.parametrize("loc,scale", [(0.5, 0.1), (0.0, 1.0), (0.31, 1e-6), (-2.5, 3.7)])
def test_rtf_bin_edges_match_norm_ppf(num_neurons, loc, scale):
    attack = RTFAttack(num_neurons, measurement_mean=loc, measurement_std=scale)
    probabilities = np.arange(1, num_neurons + 1) / (num_neurons + 1)
    expected = stats.norm.ppf(probabilities, loc=loc, scale=scale)
    np.testing.assert_array_equal(attack.bin_edges(), expected)


@pytest.mark.parametrize("activation_probability", [1e-4, 0.02, 0.05, 0.125, 0.5, 0.9])
def test_gaussian_trap_biases_match_norm_ppf(activation_probability):
    weight = np.random.default_rng(3).standard_normal((16, 48)) / np.sqrt(48)
    z = stats.norm.ppf(1.0 - activation_probability)
    expected = -(0.5 * weight.sum(axis=1) + z * 0.25 * np.linalg.norm(weight, axis=1))
    biases = trap_biases(weight, activation_probability, None, 0.5, 0.25)
    np.testing.assert_array_equal(biases, expected)
