"""Standard normal quantiles, bit for bit with ``scipy.special.ndtri``.

RTF staggers its biases at Gaussian quantiles and the trap attacks fall
back to one when public data is scarce.  Importing ``scipy.special`` for
that single function costs more memory and start-up time than the rest
of a smoke grid's imports, so this module ports the Cephes ``ndtri``
that scipy wraps: three rational approximations evaluated by Horner's
rule, in the same operation order, so every output is the same double.

The tail branch takes its two logarithms with scalar :func:`math.log`
(the C library's ``log``, as Cephes does).  ``np.log`` may use a SIMD
kernel that differs from it in the last ulp on a few inputs in 10^5.
Callers pass at most thousands of probabilities, so the per-element
loop is cheap.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtri"]

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the central branch's edge

# |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# z >= 8: y below exp(-32)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coefficients: tuple) -> np.ndarray:
    """Horner's rule, highest degree first (Cephes ``polevl``)."""
    result = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        result = result * x + c
    return result


def _p1evl(x: np.ndarray, coefficients: tuple) -> np.ndarray:
    """Horner's rule with an implicit leading 1 (Cephes ``p1evl``)."""
    result = x + coefficients[0]
    for c in coefficients[1:]:
        result = result * x + c
    return result


def _logs(values: np.ndarray) -> np.ndarray:
    return np.array([math.log(v) for v in values.tolist()], dtype=np.float64)


def ndtri(p):
    """The standard normal quantile of ``p``, element-wise.

    ``0 -> -inf``, ``1 -> inf``, and ``nan`` outside ``[0, 1]``, as scipy
    returns them (without its domain warning).  A scalar in gives a
    ``np.float64`` out; an array gives a float64 array of its shape.
    """
    y0 = np.asarray(p, dtype=np.float64)
    flat = y0.ravel()
    out = np.full(flat.shape, np.nan)
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    upper = flat > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - flat, flat)
    central = y > _EXP_M2

    if central.any():
        yc = y[central] - 0.5
        y2 = yc * yc
        x = yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        out[central] = x * _S2PI

    tail = (flat > 0.0) & (flat < 1.0) & ~central
    if tail.any():
        x = np.sqrt(-2.0 * _logs(y[tail]))
        x0 = x - _logs(x) / x
        z = 1.0 / x
        near = x < 8.0
        x1 = np.where(
            near,
            z * _polevl(z, _P1) / _p1evl(z, _Q1),
            z * _polevl(z, _P2) / _p1evl(z, _Q2),
        )
        x = x0 - x1
        out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(y0.shape)[()]
