"""Neural-network library: modules, layers, models, losses, optimizers."""

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    MLP,
    ReLU,
    Sequential,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.resnet import BasicBlock, ResNet, resnet18, small_cnn

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "Identity",
    "Flatten",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Sequential",
    "MLP",
    "CrossEntropyLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "BasicBlock",
    "ResNet",
    "resnet18",
    "small_cnn",
]
