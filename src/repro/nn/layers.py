"""Standard neural-network layers built on the autograd engine.

The layer set covers everything needed by the OASIS evaluation: fully
connected layers (the attack surface of the malicious imprint layer),
convolutions/batch-norm/pooling for ResNet-18, and container modules.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import repro.tensor.backend as backend
import repro.tensor.fused as fused
from repro.nn.init import bias_uniform, kaiming_uniform
from repro.nn.module import Module, Parameter, _bump_structure_generation
from repro.tensor import (
    Tensor,
    batch_norm,
    conv2d,
    global_avg_pool2d,
    max_pool2d,
)


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``.

    The OASIS threat model centres on a *malicious* instance of this layer:
    the dishonest server overwrites ``weight``/``bias`` so that per-neuron
    gradients memorize individual inputs (paper Sec. III-A).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(bias_uniform((out_features,), in_features, rng))

    def forward(self, x: Tensor) -> Tensor:
        if backend.FUSED and x.ndim == 2:
            return fused.linear(x, self.weight, self.bias)
        return x @ self.weight.T + self.bias


class Conv2d(Module):
    """2D convolution in NCHW layout with square kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(kaiming_uniform(shape, rng))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            self.bias = Parameter(bias_uniform((out_channels,), fan_in, rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    """Batch normalization over (N, H, W) per channel, with running stats."""

    def __init__(self, num_features: int) -> None:
        super().__init__()
        self.num_features = num_features
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
        )


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Flatten(Module):
    """Flatten every dimension after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(1)


class MaxPool2d(Module):
    """Max pooling over non-overlapping ``kernel_size`` windows."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size)


class GlobalAvgPool2d(Module):
    """Adaptive average pooling to 1x1, squeezed to (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return global_avg_pool2d(x)


class Sequential(Module):
    """Chain of modules applied in order; supports indexing and insertion."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: list[str] = []
        for i, module in enumerate(modules):
            self.add_module(str(i), module)

    def add_module(self, name: str, module: Module) -> None:
        setattr(self, f"layer_{name}", module)
        # Re-key registration under the plain name for stable state dicts.
        self._modules.pop(f"layer_{name}", None)
        self._modules[name] = module
        self._order.append(name)

    def insert(self, index: int, module: Module) -> None:
        """Insert ``module`` at position ``index`` (used for model surgery)."""
        name = f"inserted_{len(self._modules)}"
        self._modules[name] = module
        _bump_structure_generation()
        object.__setattr__(self, f"layer_{name}", module)
        self._order.insert(index, name)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x


class MLP(Module):
    """Multi-layer perceptron with ReLU activations.

    Used as a lightweight stand-in model in unit tests and as the body of
    imprint-attacked models where a full ResNet is unnecessary.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        layers: list[Module] = []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(n_in, n_out, rng=rng))
            if i < len(sizes) - 2:
                layers.append(ReLU())
        self.body = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.flatten(1)
        return self.body(x)
