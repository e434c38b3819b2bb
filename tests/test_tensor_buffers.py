"""Buffer-pool semantics and the gradient ownership protocol.

The fused kernels' zero-allocation steady state rests on two pieces of
machinery: :class:`repro.tensor.buffers.BufferPool` (shape/dtype-keyed
free lists) and the ownership protocol in ``Tensor._accumulate`` /
``Module.grad_dict(transfer=True)`` (who may mutate a gradient array, and
when it returns to the pool).  Both have sharp edges — double-release,
pooling a view, mutating a borrowed grad — that would corrupt results
silently, so each rule gets a direct test here.
"""

from __future__ import annotations

import numpy as np

import repro.tensor.backend as backend
import repro.tensor.buffers as buffers
from repro.nn import MLP, CrossEntropyLoss
from repro.tensor import Tensor
from repro.tensor.buffers import MAX_PER_KEY, BufferPool


class TestBufferPool:
    def test_acquire_miss_then_hit(self):
        pool = BufferPool()
        first = pool.acquire((4, 3), np.float64)
        assert first.shape == (4, 3) and first.dtype == np.float64
        assert pool.release(first)
        second = pool.acquire((4, 3), np.float64)
        assert second is first
        assert pool.stats() == {
            "hits": 1, "misses": 1, "free_arrays": 0, "free_keys": 1,
        }

    def test_keyed_by_shape_and_dtype(self):
        pool = BufferPool()
        arr = pool.acquire((4, 3), np.float64)
        pool.release(arr)
        assert pool.acquire((3, 4), np.float64) is not arr
        assert pool.acquire((4, 3), np.float32) is not arr
        assert pool.acquire((4, 3), np.float64) is arr

    def test_views_and_noncontiguous_rejected(self):
        pool = BufferPool()
        owner = np.zeros((4, 4))
        assert not pool.release(owner[:2])
        assert not pool.release(owner.T)
        assert not pool.release(np.zeros((4, 3), order="F"))

    def test_readonly_rejected(self):
        pool = BufferPool()
        arr = np.zeros((2, 2))
        arr.flags.writeable = False
        assert not pool.release(arr)

    def test_double_release_rejected(self):
        pool = BufferPool()
        arr = pool.acquire((2, 2), np.float64)
        assert pool.release(arr)
        assert not pool.release(arr)
        assert pool.stats()["free_arrays"] == 1

    def test_per_key_cap(self):
        pool = BufferPool()
        arrays = [np.zeros((3,)) for _ in range(MAX_PER_KEY + 2)]
        outcomes = [pool.release(arr) for arr in arrays]
        assert outcomes == [True] * MAX_PER_KEY + [False, False]
        assert pool.stats()["free_arrays"] == MAX_PER_KEY

    def test_clear(self):
        pool = BufferPool()
        arr = pool.acquire((2,), np.float64)
        pool.release(arr)
        pool.clear()
        assert pool.stats()["free_arrays"] == 0
        # After clear the old identity must be forgotten: re-releasing the
        # same (now unpooled) array is legitimate again.
        assert pool.release(arr)


class TestOwnershipProtocol:
    """``_accumulate`` / ``zero_grad`` / ``grad_dict`` gradient lifecycle."""

    def setup_method(self):
        assert backend.FUSED, "protocol tests exercise the fused path"

    def test_borrowed_grad_not_mutated_by_second_contribution(self):
        """A shared out.grad array must never be accumulated into in place."""
        x = Tensor(np.ones(4), requires_grad=True)
        out = x + x  # both contributions borrow out.grad
        seed = np.ones(4)
        out.backward(seed)
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0))
        # The seed array was borrowed, never accumulated into.
        np.testing.assert_array_equal(seed, np.ones(4))

    def test_param_reused_across_ops(self):
        a = Tensor(np.arange(3.0), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        ((a * b) + (a - b)).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))  # b + 1
        np.testing.assert_array_equal(b.grad, np.arange(3.0) - 1.0)

    def test_zero_grad_releases_owned_buffer_for_reuse(self):
        buffers.clear()
        model = MLP([6, 5, 3], rng=np.random.default_rng(0))
        images = np.random.default_rng(1).standard_normal((4, 6))
        labels = np.array([0, 1, 2, 0])
        loss_fn = CrossEntropyLoss()

        loss_fn(model(Tensor(images)), labels).backward()
        owned = [p.grad for p in model.parameters() if p._grad_owned]
        assert owned, "fused backward should produce owned gradients"
        before = buffers.stats()["free_arrays"]
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())
        assert buffers.stats()["free_arrays"] > before

    def test_grad_dict_transfer_moves_ownership(self):
        model = MLP([6, 5, 3], rng=np.random.default_rng(0))
        images = np.random.default_rng(1).standard_normal((4, 6))
        labels = np.array([0, 1, 2, 0])
        loss_fn = CrossEntropyLoss()

        loss_fn(model(Tensor(images)), labels).backward()
        owned_arrays = {
            name: param.grad
            for name, param in model.named_parameters()
            if param._grad_owned
        }
        grads = model.grad_dict(transfer=True)
        for name, arr in owned_arrays.items():
            assert grads[name] is arr  # moved, not copied
        for param in model.parameters():
            assert param.grad is None or not param._grad_owned

    def test_grad_dict_copy_mode_leaves_grads_in_place(self):
        model = MLP([6, 5, 3], rng=np.random.default_rng(0))
        images = np.random.default_rng(1).standard_normal((4, 6))
        labels = np.array([0, 1, 2, 0])
        loss_fn = CrossEntropyLoss()

        loss_fn(model(Tensor(images)), labels).backward()
        grads = model.grad_dict()
        for name, param in model.named_parameters():
            assert param.grad is not None
            assert grads[name] is not param.grad
            np.testing.assert_array_equal(grads[name], param.grad)

    def test_transferred_grads_survive_next_backward(self):
        """Arrays handed out by transfer are never recycled underneath
        the caller by the following round's backward/zero_grad."""
        model = MLP([6, 5, 3], rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        loss_fn = CrossEntropyLoss()
        labels = np.array([0, 1, 2, 0])

        def round_grads():
            model.zero_grad()
            images = rng.standard_normal((4, 6))
            loss_fn(model(Tensor(images)), labels).backward()
            return model.grad_dict(transfer=True)

        first = round_grads()
        snapshot = {name: arr.copy() for name, arr in first.items()}
        round_grads()  # second round reuses pooled buffers freely
        for name in sorted(first):
            np.testing.assert_array_equal(first[name], snapshot[name])

    def test_steady_state_reuses_buffers(self):
        buffers.clear()
        model = MLP([6, 5, 3], rng=np.random.default_rng(0))
        images = np.random.default_rng(1).standard_normal((4, 6))
        labels = np.array([0, 1, 2, 0])
        loss_fn = CrossEntropyLoss()

        for _ in range(3):
            model.zero_grad()
            loss_fn(model(Tensor(images)), labels).backward()
        assert buffers.stats()["hits"] > 0
