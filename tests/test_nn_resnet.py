"""ResNet topology, shapes, and trainability."""

from __future__ import annotations

import numpy as np

from repro.nn import Adam, BasicBlock, CrossEntropyLoss, resnet18, small_cnn
from repro.tensor import Tensor, no_grad


class TestBasicBlock:
    def test_identity_shortcut_shape(self, rng):
        block = BasicBlock(8, 8, stride=1, rng=np.random.default_rng(0))
        out = block(Tensor(rng.standard_normal((2, 8, 8, 8))))
        assert out.shape == (2, 8, 8, 8)

    def test_projection_shortcut_shape(self, rng):
        block = BasicBlock(8, 16, stride=2, rng=np.random.default_rng(0))
        out = block(Tensor(rng.standard_normal((2, 8, 8, 8))))
        assert out.shape == (2, 16, 4, 4)

    def test_output_nonnegative(self, rng):
        # Final activation is ReLU.
        block = BasicBlock(4, 4, rng=np.random.default_rng(0))
        out = block(Tensor(rng.standard_normal((2, 4, 6, 6))))
        assert (out.numpy() >= 0.0).all()


class TestResNet18:
    def test_output_shape(self, rng):
        model = resnet18(10, base_width=8, rng=np.random.default_rng(0))
        out = model(Tensor(rng.standard_normal((3, 3, 32, 32))))
        assert out.shape == (3, 10)

    def test_full_width_parameter_count(self):
        # The canonical CIFAR ResNet-18 has ~11.2M parameters.
        model = resnet18(100, base_width=64, rng=np.random.default_rng(0))
        count = sum(param.size for param in model.parameters())
        assert 10_500_000 < count < 11_500_000

    def test_block_structure(self):
        model = resnet18(10, base_width=8, rng=np.random.default_rng(0))
        stage_sizes = [len(stage) for stage in model.stages]
        assert stage_sizes == [2, 2, 2, 2]

    def test_gradients_reach_stem(self, rng):
        model = resnet18(5, base_width=4, rng=np.random.default_rng(0))
        loss = CrossEntropyLoss()(
            model(Tensor(rng.standard_normal((2, 3, 16, 16)))), np.array([0, 1])
        )
        loss.backward()
        assert model.stem_conv.weight.grad is not None
        assert np.any(model.stem_conv.weight.grad != 0.0)

    def test_eval_mode_deterministic(self, rng):
        model = resnet18(5, base_width=4, rng=np.random.default_rng(0))
        model.eval()
        x = Tensor(rng.standard_normal((2, 3, 16, 16)))
        with no_grad():
            a = model(x).numpy()
            b = model(x).numpy()
        np.testing.assert_array_equal(a, b)

    def test_overfits_tiny_batch(self, rng):
        # A sanity check that the whole stack can actually learn.
        model = resnet18(4, base_width=4, rng=np.random.default_rng(0))
        x = rng.standard_normal((8, 3, 16, 16))
        y = np.arange(8) % 4
        opt = Adam(model.parameters(), lr=3e-3)
        loss_fn = CrossEntropyLoss()
        first = None
        for step in range(30):
            opt.zero_grad()
            loss = loss_fn(model(Tensor(x)), y)
            loss.backward()
            opt.step()
            if first is None:
                first = loss.item()
        assert loss.item() < first * 0.5


class TestSmallCNN:
    def test_shapes(self, rng):
        model = small_cnn(7, rng=np.random.default_rng(0))
        out = model(Tensor(rng.standard_normal((4, 3, 16, 16))))
        assert out.shape == (4, 7)

    def test_state_dict_roundtrip(self, rng):
        a = small_cnn(3, rng=np.random.default_rng(0))
        b = small_cnn(3, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        a.eval(), b.eval()
        with no_grad():
            np.testing.assert_allclose(a(x).numpy(), b(x).numpy())
