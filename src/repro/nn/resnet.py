"""ResNet architecture (He et al., 2016) used by the paper's Table I.

The paper trains ResNet-18 on an ImageNet 10-class subset and on CIFAR100.
We reproduce the exact topology (BasicBlock stacks [2, 2, 2, 2]) with a
configurable width multiplier so the CPU-only benchmark harness can train a
thin variant while the full-width model remains available and unit-tested.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from repro.tensor import Tensor


class BasicBlock(Module):
    """Two 3x3 convolutions with a residual (identity or 1x1-projection) path."""

    expansion = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        return (out + self.shortcut(x)).relu()


class ResNet(Module):
    """CIFAR-style ResNet: 3x3 stem (no 7x7/maxpool) then four block stages.

    Inputs are RGB images (3 channels), as every dataset here is.
    """

    def __init__(
        self,
        block_counts: Sequence[int],
        num_classes: int,
        base_width: int = 64,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        widths = [base_width, base_width * 2, base_width * 4, base_width * 8]
        self.stem_conv = Conv2d(3, widths[0], 3, stride=1, padding=1, bias=False, rng=rng)
        self.stem_bn = BatchNorm2d(widths[0])
        self.stem_relu = ReLU()

        stages: list[Module] = []
        channels = widths[0]
        for stage_index, (width, count) in enumerate(zip(widths, block_counts)):
            stride = 1 if stage_index == 0 else 2
            blocks: list[Module] = []
            for block_index in range(count):
                blocks.append(
                    BasicBlock(
                        channels,
                        width,
                        stride=stride if block_index == 0 else 1,
                        rng=rng,
                    )
                )
                channels = width
            stages.append(Sequential(*blocks))
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(channels, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem_relu(self.stem_bn(self.stem_conv(x)))
        out = self.stages(out)
        out = self.pool(out)
        return self.fc(out)


def resnet18(
    num_classes: int,
    base_width: int = 64,
    *,
    rng: np.random.Generator,
) -> ResNet:
    """The paper's evaluation model: ResNet-18 = BasicBlock x [2, 2, 2, 2].

    ``base_width`` scales every stage uniformly; 64 reproduces the standard
    11M-parameter model, smaller values give CPU-trainable variants with the
    same topology.
    """
    return ResNet([2, 2, 2, 2], num_classes, base_width=base_width, rng=rng)


def small_cnn(
    num_classes: int,
    in_channels: int = 3,
    *,
    rng: np.random.Generator,
) -> Module:
    """A compact conv net (16 then 32 channels) for fast integration tests."""
    return Sequential(
        Conv2d(in_channels, 16, 3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(16, 32, 3, padding=1, rng=rng),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(32, num_classes, rng=rng),
    )
