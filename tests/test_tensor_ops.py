"""Unit tests for elementwise/reduction/shape ops of the autograd engine.

Every op's backward pass is validated against central finite differences —
the attacks invert literal gradient values, so gradient exactness is a
functional requirement, not a nicety.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, concatenate, stack
from gradcheck import numerical_gradient

ATOL = 1e-6


def check_grad(build_loss, point: np.ndarray, atol: float = ATOL) -> None:
    """Compare autograd gradient of ``build_loss`` to finite differences."""
    tensor = Tensor(point.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()
    numeric = numerical_gradient(lambda p: build_loss(Tensor(p)).item(), point.copy())
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol)


class TestArithmetic:
    def test_add_forward(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        np.testing.assert_array_equal((a + b).numpy(), [4.0, 6.0])

    def test_add_grad(self, rng):
        x = rng.standard_normal((3, 4))
        check_grad(lambda t: (t + 2.0).sum(), x)

    def test_add_broadcast_grad(self, rng):
        x = rng.standard_normal((3, 1))
        other = Tensor(rng.standard_normal((3, 4)))
        check_grad(lambda t: (t + other).sum(), x)

    def test_radd(self):
        out = 5.0 + Tensor([1.0])
        assert out.numpy()[0] == 6.0

    def test_sub_grad(self, rng):
        x = rng.standard_normal((4,))
        other = Tensor(rng.standard_normal((4,)))
        check_grad(lambda t: (t - other).sum(), x)

    def test_rsub(self):
        out = 3.0 - Tensor([1.0])
        assert out.numpy()[0] == 2.0

    def test_mul_grad(self, rng):
        x = rng.standard_normal((2, 5))
        other = Tensor(rng.standard_normal((2, 5)))
        check_grad(lambda t: (t * other).sum(), x)

    def test_mul_broadcast_to_scalar_operand(self, rng):
        x = rng.standard_normal((1,))
        other = Tensor(rng.standard_normal((6,)))
        check_grad(lambda t: (other * t).sum(), x)

    def test_div_grad(self, rng):
        x = rng.standard_normal((3, 3)) + 5.0
        other = Tensor(rng.standard_normal((3, 3)) + 5.0)
        check_grad(lambda t: (other / t).sum(), x, atol=1e-5)

    def test_rtruediv(self):
        out = 10.0 / Tensor([2.0])
        assert out.numpy()[0] == 5.0

    def test_neg_grad(self, rng):
        x = rng.standard_normal((4,))
        check_grad(lambda t: (-t).sum(), x)

    def test_pow_grad(self, rng):
        x = np.abs(rng.standard_normal((3,))) + 0.5
        check_grad(lambda t: (t ** 3).sum(), x, atol=1e-5)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_both_operands_accumulate(self, rng):
        a = Tensor(rng.standard_normal((3,)), requires_grad=True)
        b = Tensor(rng.standard_normal((3,)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)


class TestNonlinearities:
    def test_relu_forward(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_array_equal(out.numpy(), [0.0, 0.0, 2.0])

    def test_relu_grad(self, rng):
        x = rng.standard_normal((10,)) + 0.05  # keep away from the kink
        check_grad(lambda t: t.relu().sum(), x)

    def test_relu_grad_zero_below(self):
        t = Tensor([-2.0, 3.0], requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0])

    def test_exp_grad(self, rng):
        x = rng.standard_normal((5,))
        check_grad(lambda t: t.exp().sum(), x, atol=1e-5)

    def test_log_grad(self, rng):
        x = np.abs(rng.standard_normal((5,))) + 1.0
        check_grad(lambda t: t.log().sum(), x, atol=1e-5)

    def test_sqrt(self):
        out = Tensor([4.0, 9.0]).sqrt()
        np.testing.assert_allclose(out.numpy(), [2.0, 3.0])

    def test_abs_grad(self, rng):
        x = rng.standard_normal((8,)) + np.sign(rng.standard_normal(8)) * 0.5
        check_grad(lambda t: t.abs().sum(), x)

    def test_clip_forward(self):
        out = Tensor([-1.0, 0.5, 2.0]).clip(0.0, 1.0)
        np.testing.assert_array_equal(out.numpy(), [0.0, 0.5, 1.0])

    def test_clip_grad_masks_outside(self):
        t = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        t.clip(0.0, 1.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])


class TestMatmul:
    def test_matmul_forward(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.numpy(), a @ b)

    def test_matmul_grad_left(self, rng):
        x = rng.standard_normal((3, 4))
        other = Tensor(rng.standard_normal((4, 2)))
        check_grad(lambda t: (t @ other).sum(), x, atol=1e-5)

    def test_matmul_grad_right(self, rng):
        x = rng.standard_normal((4, 2))
        other = Tensor(rng.standard_normal((3, 4)))
        check_grad(lambda t: (other @ t).sum(), x, atol=1e-5)

    def test_matmul_vector(self, rng):
        a = rng.standard_normal((3, 4))
        v = rng.standard_normal(4)
        out = Tensor(a) @ Tensor(v)
        np.testing.assert_allclose(out.numpy(), a @ v)

    def test_matmul_vector_grads(self, rng):
        x = rng.standard_normal((4,))
        mat = Tensor(rng.standard_normal((3, 4)))
        check_grad(lambda t: (mat @ t).sum(), x, atol=1e-5)


class TestShapes:
    def test_reshape_roundtrip_grad(self, rng):
        x = rng.standard_normal((2, 6))
        check_grad(lambda t: (t.reshape(3, 4) * 2.0).sum(), x)

    def test_reshape_accepts_tuple(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape((2, 3)).shape == (2, 3)

    def test_flatten(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.flatten(1).shape == (2, 12)
        assert t.flatten(0).shape == (24,)

    def test_transpose_grad(self, rng):
        x = rng.standard_normal((2, 3))
        other = Tensor(rng.standard_normal((2, 3)))
        check_grad(lambda t: (t.T.transpose(1, 0) * other).sum(), x)

    def test_transpose_axes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose(2, 0, 1).shape == (4, 2, 3)

    def test_getitem_grad_scatter(self):
        t = Tensor(np.arange(5.0), requires_grad=True)
        t[1:3].sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 1.0, 0.0, 0.0])

    def test_getitem_duplicate_index_accumulates(self):
        t = Tensor(np.arange(3.0), requires_grad=True)
        t[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_array_equal(t.grad, [2.0, 0.0, 1.0])

    def test_pad2d_shape_and_grad(self, rng):
        x = rng.standard_normal((1, 2, 3, 3))
        t = Tensor(x, requires_grad=True)
        padded = t.pad2d(2)
        assert padded.shape == (1, 2, 7, 7)
        padded.sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones_like(x))

    def test_pad2d_zero_is_identity(self):
        t = Tensor(np.ones((1, 1, 2, 2)))
        assert t.pad2d(0) is t


class TestReductions:
    def test_sum_all(self, rng):
        x = rng.standard_normal((3, 4))
        check_grad(lambda t: t.sum(), x)

    def test_sum_axis_keepdims(self, rng):
        x = rng.standard_normal((3, 4))
        other = Tensor(rng.standard_normal((3, 1)))
        check_grad(lambda t: (t.sum(axis=1, keepdims=True) * other).sum(), x)

    def test_sum_axis_no_keepdims(self, rng):
        x = rng.standard_normal((3, 4, 2))
        check_grad(lambda t: (t.sum(axis=(0, 2)) ** 2).sum(), x, atol=1e-5)

    def test_sum_negative_axis(self, rng):
        x = rng.standard_normal((2, 3))
        check_grad(lambda t: (t.sum(axis=-1) ** 2).sum(), x, atol=1e-5)

    def test_mean_matches_numpy(self, rng):
        x = rng.standard_normal((4, 5))
        assert np.isclose(Tensor(x).mean().item(), x.mean())

    def test_mean_axis_grad(self, rng):
        x = rng.standard_normal((4, 5))
        check_grad(lambda t: (t.mean(axis=0) ** 2).sum(), x, atol=1e-5)

    def test_var_matches_numpy(self, rng):
        x = rng.standard_normal((4, 5))
        assert np.isclose(Tensor(x).var().item(), x.var())

    def test_max_forward(self, rng):
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(Tensor(x).max(axis=1).numpy(), x.max(axis=1))

    def test_max_grad_flows_to_argmax(self):
        t = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_array_equal(t.grad, [[0.0, 1.0, 0.0]])

    def test_max_grad_splits_ties(self):
        t = Tensor(np.array([[3.0, 3.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])


class TestSoftmax:
    def test_log_softmax_normalizes(self, rng):
        x = rng.standard_normal((4, 7))
        log_probs = Tensor(x).log_softmax(axis=-1).numpy()
        np.testing.assert_allclose(np.exp(log_probs).sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5))
        a = Tensor(x).log_softmax(axis=-1).exp().numpy()
        b = Tensor(x + 100.0).log_softmax(axis=-1).exp().numpy()
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_log_softmax_grad(self, rng):
        x = rng.standard_normal((2, 4))
        pick = Tensor(np.eye(4)[:2])
        check_grad(lambda t: (t.log_softmax(axis=-1) * pick).sum(), x, atol=1e-5)


class TestConstructorsAndConcat:
    def test_concatenate_forward(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        out = concatenate([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_array_equal(out.numpy(), np.concatenate([a, b]))

    def test_concatenate_grad_routes_to_parts(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        (concatenate([a, b], axis=0) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((1, 3), 2.0))

    def test_stack_forward_and_grad(self, rng):
        a = Tensor(rng.standard_normal((3,)), requires_grad=True)
        b = Tensor(rng.standard_normal((3,)), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(3))
        np.testing.assert_array_equal(b.grad, np.ones(3))
