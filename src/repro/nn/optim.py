"""Optimizers: SGD (with momentum) and Adam (with decoupled-style weight decay).

Table I of the paper trains ResNet-18 with Adam (lr 1e-3, weight decay 1e-5
for ImageNet, 1e-2 for CIFAR100); the FL server update of Eq. 1 is plain SGD
on averaged gradients.

Both optimizers are dual-mode (see :mod:`repro.tensor.backend`): the fused
mode performs every step with ``out=`` ufuncs into per-parameter scratch
buffers allocated once and reused for the life of the optimizer, replacing
the reference mode's per-step temporaries (``grad + wd*param``, ``m_hat``,
``v_hat``, the update product).  ``out=`` ufuncs round identically to their
allocating forms and the op *order* is replayed exactly, so a training
trajectory is bit-identical across modes (gated by the equivalence suite).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

import repro.tensor.backend as backend
from repro.nn.module import Parameter

#: Adam's moment decay rates and denominator epsilon (Kingma & Ba's
#: defaults, which Table I's training uses).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Optimizer:
    """Base class: holds the parameter list and the zero_grad/step protocol."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and L2 weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: list[np.ndarray | None] = [None] * len(self.parameters)

    def step(self) -> None:
        if not backend.FUSED:
            self._step_reference()
            return
        for i, (param, velocity) in enumerate(zip(self.parameters, self._velocity)):
            if param.grad is None:
                continue
            buf = self._scratch[i]
            if buf is None:
                buf = self._scratch[i] = np.empty_like(param.data)
            grad = param.grad
            if self.weight_decay:
                # Reference order: grad + weight_decay * param.data.
                np.multiply(param.data, self.weight_decay, out=buf)
                np.add(grad, buf, out=buf)
                grad = buf
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            np.multiply(grad, self.lr, out=buf)
            np.subtract(param.data, buf, out=param.data)

    def _step_reference(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) with L2 weight decay folded into the gradient."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: list[tuple[np.ndarray, np.ndarray] | None] = (
            [None] * len(self.parameters)
        )

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - ADAM_BETA1 ** self._step
        bias2 = 1.0 - ADAM_BETA2 ** self._step
        if not backend.FUSED:
            self._step_reference(bias1, bias2)
            return
        for i, (param, m, v) in enumerate(zip(self.parameters, self._m, self._v)):
            if param.grad is None:
                continue
            pair = self._scratch[i]
            if pair is None:
                pair = self._scratch[i] = (
                    np.empty_like(param.data), np.empty_like(param.data)
                )
            a, b = pair
            grad = param.grad
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=a)
                np.add(grad, a, out=a)
                grad = a
            # m = beta1*m + (1-beta1)*grad, replayed in reference op order.
            m *= ADAM_BETA1
            np.multiply(grad, 1.0 - ADAM_BETA1, out=b)
            np.add(m, b, out=m)
            # v = beta2*v + (1-beta2)*grad*grad.
            v *= ADAM_BETA2
            np.multiply(grad, 1.0 - ADAM_BETA2, out=b)
            np.multiply(b, grad, out=b)
            np.add(v, b, out=v)
            # param -= lr*m_hat / (sqrt(v_hat) + eps), same op order as the
            # reference allocating chain.
            np.divide(m, bias1, out=a)
            np.multiply(a, self.lr, out=a)
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            np.add(b, ADAM_EPS, out=b)
            np.divide(a, b, out=a)
            np.subtract(param.data, a, out=param.data)

    def _step_reference(self, bias1: float, bias2: float) -> None:
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
