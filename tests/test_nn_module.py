"""Module/Parameter registration, serialization, and mode switching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Linear, MLP, Module, Parameter, Sequential
from repro.tensor import Tensor


class Composite(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 3, rng=np.random.default_rng(0))
        self.fc2 = Linear(3, 2, rng=np.random.default_rng(1))
        self.register_buffer("counter", np.zeros(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


class TestRegistration:
    def test_parameters_discovered(self):
        model = Composite()
        names = [name for name, _ in model.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_buffers_discovered(self):
        model = Composite()
        names = [name for name, _ in model.named_buffers()]
        assert "counter" in names

    def test_num_parameters(self):
        model = Composite()
        count = sum(param.size for param in model.parameters())
        assert count == 4 * 3 + 3 + 3 * 2 + 2

    def test_modules_iterates_tree(self):
        model = Composite()
        assert len(list(model.modules())) == 3  # self + 2 linears

    def test_parameter_is_tensor(self):
        p = Parameter(np.ones(3))
        assert isinstance(p, Tensor)
        assert p.requires_grad

    def test_flat_cache_invalidated_on_late_registration(self):
        model = Composite()
        assert len(list(model.named_parameters())) == 4  # builds the cache
        model.fc3 = Linear(2, 2, rng=np.random.default_rng(2))
        names = [name for name, _ in model.named_parameters()]
        assert "fc3.weight" in names and "fc3.bias" in names

    def test_flat_cache_invalidated_on_nested_registration(self):
        model = Composite()
        assert len(list(model.named_parameters())) == 4
        # Mutating a *child* must invalidate the parent's cached list.
        model.fc1.extra = Parameter(np.zeros(2))
        assert "fc1.extra" in dict(model.named_parameters())

    def test_flat_cache_invalidated_by_sequential_insert(self):
        model = Sequential(Linear(2, 2, rng=np.random.default_rng(0)))
        assert len(list(model.parameters())) == 2
        model.insert(0, Linear(2, 2, rng=np.random.default_rng(1)))
        assert len(list(model.parameters())) == 4


class TestModes:
    def test_train_eval_propagate(self):
        model = Sequential(
            Linear(4, 4, rng=np.random.default_rng(0)), BatchNorm2d(4)
        )
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_all(self):
        model = Composite()
        x = Tensor(np.ones((2, 4)))
        model(x).sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_roundtrip_exact(self):
        a = Composite()
        b = Composite()
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_copies(self):
        model = Composite()
        state = model.state_dict()
        state["fc1.weight"][:] = 0.0
        assert not np.all(model.fc1.weight.data == 0.0)

    def test_load_unknown_key_raises(self):
        model = Composite()
        state = model.state_dict()
        state["nonexistent.weight"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_buffers_roundtrip(self):
        model = Sequential(BatchNorm2d(3))
        bn = model[0]
        bn.running_mean[:] = 7.0
        state = model.state_dict()
        other = Sequential(BatchNorm2d(3))
        other.load_state_dict(state)
        np.testing.assert_array_equal(other[0].running_mean, np.full(3, 7.0))

    def test_grad_dict_zeros_when_no_grad(self):
        model = Composite()
        grads = model.grad_dict()
        assert set(grads) == {name for name, _ in model.named_parameters()}
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_grad_dict_after_backward(self):
        model = Composite()
        model(Tensor(np.ones((2, 4)))).sum().backward()
        grads = model.grad_dict()
        assert any(np.any(g != 0.0) for g in grads.values())

    def test_bind_state_dict_shares_parameter_memory(self):
        a = Composite()
        b = Composite()
        state = a.state_dict()
        b.bind_state_dict(state)
        for name, param in b.named_parameters():
            assert np.shares_memory(param.data, state[name])
            assert not param.data.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                param.data[...] = 0.0
        # The caller's arrays keep their own flags.
        assert all(value.flags.writeable for value in state.values())

    def test_bind_state_dict_casts_and_compacts(self):
        model = Composite()
        state = model.state_dict()
        dtype = model.fc1.weight.data.dtype
        single = state["fc1.weight"].astype(np.float32)
        strided = np.repeat(state["fc1.bias"], 2)[::2]
        assert not strided.flags.c_contiguous
        model.bind_state_dict({"fc1.weight": single, "fc1.bias": strided})
        for name, given in (("weight", single), ("bias", strided)):
            bound = getattr(model.fc1, name).data
            assert bound.dtype == dtype
            assert bound.flags.c_contiguous
            assert not bound.flags.writeable
            assert not np.shares_memory(bound, given)
            np.testing.assert_array_equal(bound, given.astype(dtype))

    def test_bind_state_dict_copies_buffers(self):
        model = Sequential(BatchNorm2d(3))
        source = Sequential(BatchNorm2d(3))
        source[0].running_mean[:] = 7.0
        state = source.state_dict()
        buffer = model[0].running_mean
        model.bind_state_dict(state)
        assert model[0].running_mean is buffer
        assert not np.shares_memory(buffer, state["0.running_mean"])
        np.testing.assert_array_equal(buffer, np.full(3, 7.0))

    def test_bind_unknown_key_raises(self):
        model = Composite()
        state = model.state_dict()
        state["nonexistent.weight"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.bind_state_dict(state)

    def test_load_state_dict_is_deep(self):
        a = Composite()
        b = Composite()
        state = a.state_dict()
        b.load_state_dict(state)
        b.fc1.weight.data[:] = 99.0
        assert not np.all(a.fc1.weight.data == 99.0)


class TestForward:
    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_mlp_flattens_images(self):
        mlp = MLP([27, 8, 2], rng=np.random.default_rng(0))
        out = mlp(Tensor(np.zeros((5, 3, 3, 3))))
        assert out.shape == (5, 2)
