"""The attacks' Gaussian quantiles match scipy bit for bit.

The library computes them with :func:`repro.utils.normal.ndtri`, a numpy
port of the Cephes ``ndtri`` that ``scipy.special.ndtri`` wraps, so the
attack path never imports scipy.  scipy stays the oracle here, in the
tests only: ``special.ndtri`` for the port over every input class the
attacks can reach (and the branch edges), and ``stats.norm.ppf(p, loc,
scale)`` for the biases the attacks place with it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special, stats

from repro.attacks import RTFAttack
from repro.attacks.traps import trap_biases
from repro.utils.normal import ndtri


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


def _assert_same_bits(p):
    expected = special.ndtri(p)
    actual = ndtri(p)
    assert actual.dtype == np.float64 and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def test_ndtri_matches_scipy_on_uniform_draws():
    _assert_same_bits(np.random.default_rng(0).random(200_000))


def test_ndtri_matches_scipy_on_log_uniform_tails():
    # Both tails, down to 1e-304 below and to the last doubles under 1.
    tails = 10.0 ** np.random.default_rng(1).uniform(-304, 0, 200_000)
    _assert_same_bits(tails)
    _assert_same_bits(1.0 - tails)


def test_ndtri_matches_scipy_on_every_rtf_grid():
    # Every probability grid RTF places bins at, up to 2999 neurons.
    _assert_same_bits(
        np.concatenate([np.arange(1, n + 1) / (n + 1) for n in range(1, 3000)])
    )


def test_ndtri_matches_scipy_at_the_branch_edges():
    edges = [math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 1.0 - math.exp(-32)]
    points = [0.0, 1.0, 0.5, 5e-324, np.nextafter(1.0, 0.0)]
    for edge in edges:
        points += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]
    _assert_same_bits(np.array(points))


def test_ndtri_outside_the_unit_interval_is_nan():
    p = np.array([-0.5, -1e-300, 1.5, np.inf, -np.inf, np.nan])
    assert np.isnan(ndtri(p)).all()
    assert np.isnan(special.ndtri(p)).all()


def test_ndtri_keeps_scalars_and_shapes():
    assert type(ndtri(0.3)) is np.float64 and ndtri(0.3) == special.ndtri(0.3)
    assert ndtri(np.full((2, 3), 0.2)).shape == (2, 3)
