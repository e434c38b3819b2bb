"""Central-finite-difference gradcheck of every op, in both kernel modes.

The existing op suites (``test_tensor_ops``, ``test_conv_ops``) gradcheck
the *default* kernel mode.  This suite is the acceleration work's safety
net: one op catalog covering every Tensor op, the conv/pool/batch-norm
kernels, and the fused layer/loss kernels, each checked against central
finite differences under ``fused`` **and** ``reference`` kernels.  A fused
backward that drifts from the true gradient — or a reference backward
broken while being preserved as the oracle — fails here with the op's
name in the test id.

Gradients are also checked for the *non-point* operands where an op has
them (matmul's right operand, Linear's weight/bias, conv's filters), since
a fused backward can be right for one operand and wrong for another.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.tensor.backend as backend
from repro.nn.layers import Linear
from repro.nn.losses import CrossEntropyLoss
from repro.tensor import (
    Tensor,
    batch_norm,
    concatenate,
    conv2d,
    global_avg_pool2d,
    max_pool2d,
    stack,
)
from gradcheck import numerical_gradient

ATOL = 1e-6

KERNEL_MODES = ("fused", "reference")


@pytest.fixture(params=KERNEL_MODES)
def kernel_mode(request):
    previous = backend.set_kernel_mode(request.param)
    yield request.param
    backend.set_kernel_mode(previous)


def check_grad(build_loss, point: np.ndarray, atol: float = ATOL) -> None:
    tensor = Tensor(point.copy(), requires_grad=True)
    build_loss(tensor).backward()
    numeric = numerical_gradient(
        lambda p: build_loss(Tensor(p)).item(), point.copy()
    )
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol)


def _rng():
    return np.random.default_rng(8101)


# ---------------------------------------------------------------------------
# The op catalog: (case id, point factory, loss builder).  Point factories
# keep inputs inside each op's smooth region (positive for log/sqrt, away
# from zero for abs/div, untied for max/clip) so the finite-difference
# oracle is valid.
# ---------------------------------------------------------------------------

def _smooth(shape, low=0.2, high=1.8):
    return _rng().uniform(low, high, size=shape)


def _signed(shape):
    values = _rng().uniform(0.2, 1.5, size=shape)
    signs = _rng().choice([-1.0, 1.0], size=shape)
    return values * signs


_OTHER_2x5 = _signed((2, 5))
_OTHER_3x4 = _signed((3, 4))
_MAT_5x3 = _signed((5, 3))
_LABELS_4 = np.array([0, 2, 1, 2])

OP_CASES = {
    "add": ((3, 4), lambda t: (t + Tensor(_OTHER_3x4)).sum()),
    "add_broadcast": ((3, 1), lambda t: (t + Tensor(_OTHER_3x4)).sum()),
    "radd": ((3, 4), lambda t: (2.5 + t).sum()),
    "neg": ((2, 5), lambda t: (-t).sum()),
    "sub": ((3, 4), lambda t: (t - Tensor(_OTHER_3x4)).sum()),
    "sub_broadcast": ((1, 4), lambda t: (t - Tensor(_OTHER_3x4)).sum()),
    "rsub": ((2, 5), lambda t: (1.5 - t).sum()),
    "mul": ((2, 5), lambda t: (t * Tensor(_OTHER_2x5)).sum()),
    "rmul": ((2, 5), lambda t: (3.0 * t).sum()),
    "div": ((2, 5), lambda t: (t / Tensor(_OTHER_2x5)).sum()),
    "rdiv": ((2, 5), lambda t: (1.0 / t).sum()),
    "pow": ((2, 5), lambda t: (t ** 3.0).sum()),
    "relu": ((2, 5), lambda t: t.relu().sum()),
    "exp": ((2, 5), lambda t: t.exp().sum()),
    "log": ((2, 5), lambda t: t.log().sum(), _smooth),
    "sqrt": ((2, 5), lambda t: t.sqrt().sum(), _smooth),
    "abs": ((2, 5), lambda t: t.abs().sum()),
    "clip": ((2, 5), lambda t: t.clip(-0.9, 0.9).sum()),
    "matmul": ((2, 5), lambda t: (t @ Tensor(_MAT_5x3)).sum()),
    "transpose": ((2, 5), lambda t: (t.transpose(1, 0) * 2.0).sum()),
    "T": ((2, 5), lambda t: (t.T * Tensor(_signed((5, 2)))).sum()),
    "reshape": ((2, 6), lambda t: (t.reshape(3, 4) * Tensor(_OTHER_3x4)).sum()),
    "flatten": ((2, 3, 2), lambda t: (t.flatten() * 1.5).sum()),
    "getitem": ((4, 5), lambda t: (t[1:3, ::2] * 2.0).sum()),
    "pad2d": ((1, 2, 3, 3), lambda t: (t.pad2d(1) * 0.5).sum()),
    "sum_all": ((2, 5), lambda t: t.sum()),
    "sum_axis": ((2, 5), lambda t: (t.sum(axis=0) * 3.0).sum()),
    "sum_keepdims": ((2, 5), lambda t: (t.sum(axis=1, keepdims=True) * 2.0).sum()),
    "mean_all": ((2, 5), lambda t: t.mean()),
    "mean_axis": ((2, 5), lambda t: (t.mean(axis=1) * 2.0).sum()),
    "mean_keepdims": ((2, 5), lambda t: (t.mean(axis=0, keepdims=True) * 2.0).sum()),
    "var_all": ((2, 5), lambda t: t.var()),
    "var_axis": ((2, 5), lambda t: (t.var(axis=1) * 2.0).sum()),
    "max_all": ((2, 5), lambda t: t.max()),
    "max_axis": ((2, 5), lambda t: (t.max(axis=1) * 2.0).sum()),
    "log_softmax": ((3, 4), lambda t: (t.log_softmax() * Tensor(_OTHER_3x4)).sum()),
    "concatenate": (
        (2, 3),
        lambda t: (concatenate([t, Tensor(_signed((2, 3)))], axis=1) * 2.0).sum(),
    ),
    "stack": (
        (2, 3),
        lambda t: (stack([t, Tensor(_signed((2, 3)))], axis=0) * 2.0).sum(),
    ),
    "conv2d": (
        (2, 2, 5, 5),
        lambda t: conv2d(
            t, Tensor(_signed((3, 2, 3, 3)) * 0.3), Tensor(_signed(3) * 0.1),
            stride=1, padding=1,
        ).sum(),
    ),
    "conv2d_stride": (
        (1, 2, 6, 6),
        lambda t: conv2d(
            t, Tensor(_signed((2, 2, 2, 2)) * 0.3), None, stride=2
        ).sum(),
    ),
    "max_pool2d": ((2, 2, 4, 4), lambda t: max_pool2d(t, 2).sum()),
    "global_avg_pool2d": ((2, 3, 4, 4), lambda t: global_avg_pool2d(t).sum()),
    "batch_norm": (
        (4, 3, 2, 2),
        lambda t: batch_norm(
            t, Tensor(_smooth(3)), Tensor(_signed(3) * 0.1),
            np.zeros(3), np.ones(3), training=True,
        ).sum(),
    ),
    "cross_entropy_mean": ((4, 3), lambda t: CrossEntropyLoss()(t, _LABELS_4)),
}


@pytest.mark.parametrize("case", sorted(OP_CASES), ids=sorted(OP_CASES))
def test_op_gradcheck(case, kernel_mode):
    shape, build_loss, *factory = OP_CASES[case]
    make_point = factory[0] if factory else _signed
    check_grad(build_loss, make_point(shape))


# ---------------------------------------------------------------------------
# Non-point operands: ops whose backward has a second (or third) gradient
# path that the catalog above never differentiates through.
# ---------------------------------------------------------------------------


def test_matmul_right_operand_grad(kernel_mode):
    left = Tensor(_signed((2, 5)))
    check_grad(lambda t: (left @ t).sum(), _signed((5, 3)))


def test_div_denominator_grad(kernel_mode):
    numerator = Tensor(_signed((2, 5)))
    check_grad(lambda t: (numerator / t).sum(), _signed((2, 5)))


@pytest.mark.parametrize("which", ["x", "weight", "bias"])
def test_linear_layer_grads(which, kernel_mode):
    """The (possibly fused) Linear layer, differentiated per operand."""
    template = Linear(5, 3, rng=np.random.default_rng(7))
    x0 = _signed((4, 5))

    def build(t):
        probe = Linear(5, 3, rng=np.random.default_rng(7))
        if which == "x":
            return probe(t).sum()
        # Swap the probed parameter for the gradcheck point; forward reads
        # the attribute, so a plain Tensor substitutes cleanly.
        setattr(probe, which, t)
        return probe(Tensor(x0)).sum()

    point = {
        "x": x0,
        "weight": template.weight.data.copy(),
        "bias": template.bias.data.copy(),
    }[which]
    check_grad(build, point)


@pytest.mark.parametrize("which", ["weight", "bias"])
def test_conv2d_parameter_grads(which, kernel_mode):
    x = Tensor(_signed((2, 2, 5, 5)))
    w0 = _signed((3, 2, 3, 3)) * 0.3
    b0 = _signed(3) * 0.1

    def build(t):
        weight = t if which == "weight" else Tensor(w0)
        bias = t if which == "bias" else Tensor(b0)
        return conv2d(x, weight, bias, stride=1, padding=1).sum()

    check_grad(build, w0 if which == "weight" else b0)


@pytest.mark.parametrize("which", ["gamma", "beta"])
def test_batch_norm_parameter_grads(which, kernel_mode):
    x = Tensor(_signed((4, 3, 2, 2)))
    gamma0, beta0 = _smooth(3), _signed(3) * 0.1

    def build(t):
        gamma = t if which == "gamma" else Tensor(gamma0)
        beta = t if which == "beta" else Tensor(beta0)
        return batch_norm(
            x, gamma, beta, np.zeros(3), np.ones(3), training=True
        ).sum()

    check_grad(build, gamma0 if which == "gamma" else beta0)


def test_modes_cover_both_kernel_paths():
    """The fixture genuinely switches the mode the kernels read."""
    with_modes = set()
    for mode in KERNEL_MODES:
        previous = backend.set_kernel_mode(mode)
        try:
            with_modes.add((mode, backend.FUSED))
        finally:
            backend.set_kernel_mode(previous)
    assert with_modes == {("fused", True), ("reference", False)}
