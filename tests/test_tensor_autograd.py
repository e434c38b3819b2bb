"""Graph mechanics: recording, modes, accumulation, topological ordering."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.attacks import ImprintedModel
from repro.fl.gradients import compute_batch_gradients
from repro.nn import CrossEntropyLoss
from repro.tensor import Tensor, is_grad_enabled, no_grad, topological_order


class TestGradMode:
    def test_grad_enabled_by_default(self):
        assert is_grad_enabled()

    def test_no_grad_disables_recording(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad
        assert out._backward is None

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_constant_tensors_build_no_graph(self):
        out = Tensor([1.0]) + Tensor([2.0])
        assert not out.requires_grad


class TestBackward:
    def test_backward_requires_scalar_without_grad_arg(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_backward_with_explicit_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 3.0).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(t.grad, [3.0, 6.0, 9.0])

    def test_gradient_accumulates_across_backwards(self):
        t = Tensor([2.0], requires_grad=True)
        (t * 1.0).sum().backward()
        (t * 1.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [2.0])

    def test_zero_grad_resets(self):
        t = Tensor([2.0], requires_grad=True)
        (t * 1.0).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_accumulates_both_paths(self):
        # loss = x*x + x  => dloss/dx = 2x + 1
        x = Tensor([3.0], requires_grad=True)
        ((x * x) + x).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_deep_chain_does_not_recurse(self):
        # 5000-op chain would overflow Python's recursion limit if the
        # topological sort were recursive.
        x = Tensor([1.0], requires_grad=True)
        out = x
        for _ in range(5000):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_second_backward_through_a_freed_graph_raises(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        loss = y.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        # A new graph that reaches back into the freed one raises too,
        # instead of silently stopping at the freed node.
        with pytest.raises(RuntimeError, match="freed"):
            (y * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0])

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad
        out = y * 3.0
        assert not out.requires_grad


class TestGraphLifetime:
    def test_backward_frees_op_nodes_and_keeps_grads(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        y = x * x
        loss = y.sum()
        loss.backward()
        for node in (y, loss):
            assert node._parents == ()
            assert node.grad is not None
        assert x._backward is None
        np.testing.assert_array_equal(x.grad, [4.0, 6.0])
        # Leaves stay usable: a fresh graph over x accumulates as before.
        (x * 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [5.0, 7.0])

    def test_batch_gradients_leave_nothing_for_the_collector(self):
        """Refcounting alone frees the graph, its activations and the model
        once the caller lets go: no reference cycle waits for ``gc``."""

        class RecordingLoss(CrossEntropyLoss):
            def forward(self, logits, labels):
                loss = super().forward(logits, labels)
                refs.extend([weakref.ref(logits), weakref.ref(loss)])
                return loss

        refs: list[weakref.ref] = []
        rng = np.random.default_rng(0)
        images = rng.standard_normal((4, 3, 8, 8))
        labels = np.array([0, 1, 2, 3])
        gc.collect()
        gc.disable()
        try:
            model = ImprintedModel((3, 8, 8), 16, 4, rng=rng)
            gradients, _ = compute_batch_gradients(
                model, RecordingLoss(), images, labels
            )
            refs.append(weakref.ref(model))
            del model
            assert len(refs) == 3
            assert [ref() for ref in refs] == [None, None, None]
            assert set(gradients)
        finally:
            gc.enable()


class TestTopologicalOrder:
    def test_root_is_last(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        order = topological_order(y)
        assert order[-1] is y

    def test_parents_before_children_in_reverse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = y + 1.0
        order = topological_order(z)
        assert order.index(y) < order.index(z)


class TestTensorBasics:
    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_item_on_scalar(self):
        assert Tensor([[2.5]]).item() == 2.5

    def test_copy_is_independent(self):
        t = Tensor([1.0])
        c = t.copy()
        c.data[0] = 9.0
        assert t.data[0] == 1.0

    def test_dtype_conversion(self):
        t = Tensor(np.array([1, 2], dtype=np.int64))
        assert t.dtype == np.float64
