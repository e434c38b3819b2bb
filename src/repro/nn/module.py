"""Module/Parameter abstractions mirroring ``torch.nn``.

Modules own named :class:`Parameter` leaves and named buffers (non-trainable
state such as batch-norm running statistics).  The federated-learning
simulator serializes models through :meth:`Module.state_dict` /
:meth:`Module.load_state_dict`, so both must round-trip exactly; a client
binds a received state zero-copy with :meth:`Module.bind_state_dict`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable leaf of a module."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


# Structure generation counter: bumped on every Parameter/Module
# registration anywhere in the process.  Each module's flattened
# named-parameter list is cached against this stamp, so the traversal
# (rebuilt string prefixes, nested generators) runs once per *structure*,
# not once per zero_grad/grad_dict call in the training hot loop —
# while any structural edit, even to a nested child, invalidates every
# ancestor's cache at the next lookup.
_STRUCTURE_GENERATION = 0


def _bump_structure_generation() -> None:
    """Invalidate every module's flattened-parameter cache.

    Call after mutating ``_parameters``/``_modules`` directly instead of
    through ``__setattr__`` (e.g. ``Sequential.insert``'s re-keying).
    """
    global _STRUCTURE_GENERATION
    _STRUCTURE_GENERATION += 1


def _read_only_view(value: np.ndarray, dtype) -> np.ndarray:
    view = np.asarray(value, dtype=dtype, order="C").view()
    view.flags.writeable = False
    return view


class Module:
    """Base class for all neural-network components.

    Subclasses assign :class:`Parameter`, :class:`Module` and numpy-array
    buffers as attributes; registration is automatic via ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_flat_parameters", None)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        global _STRUCTURE_GENERATION
        if isinstance(value, Parameter):
            _STRUCTURE_GENERATION += 1
            self._parameters[name] = value
        elif isinstance(value, Module):
            _STRUCTURE_GENERATION += 1
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable persistent state (e.g. running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        return iter(self._flat_named_parameters())

    def _flat_named_parameters(self) -> list[tuple[str, Parameter]]:
        cached = self._flat_parameters
        if cached is not None and cached[0] == _STRUCTURE_GENERATION:
            return cached[1]
        flat: list[tuple[str, Parameter]] = []
        for name, param in self._parameters.items():
            flat.append((name, param))
        for name, module in self._modules.items():
            flat.extend(
                (name + "." + child_name, param)
                for child_name, param in module._flat_named_parameters()
            )
        object.__setattr__(
            self, "_flat_parameters", (_STRUCTURE_GENERATION, flat)
        )
        return flat

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self._flat_named_parameters():
            yield param

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            # Read through the attribute so in-place replacement is visible.
            yield name, getattr(self, name)
        for name, module in self._modules.items():
            for child_name, buffer in module.named_buffers():
                yield name + "." + child_name, buffer

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization (used by the FL server/client message exchange)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, buffer in self.named_buffers():
            state[name] = buffer.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the module: nothing aliases the caller's arrays."""
        self._assign_state(
            state, lambda value, dtype: np.asarray(value, dtype=dtype).copy()
        )

    def bind_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Rebind every parameter to a read-only view of ``state``'s array.

        The zero-copy counterpart of :meth:`load_state_dict`: a C-contiguous
        array of the parameter's dtype is shared, not copied (any other
        input binds a contiguous cast copy), and the view's read-only flag
        makes an in-place write to the weights raise instead of corrupting
        the caller's state.  Buffers are still copied in place, so they
        stay the module's own.  Unknown names raise ``KeyError``.
        """
        self._assign_state(state, _read_only_view)

    def _assign_state(self, state: dict[str, np.ndarray], as_param) -> None:
        params = dict(self.named_parameters())
        missing = []
        for name, value in state.items():
            if name in params:
                params[name].data = as_param(value, params[name].data.dtype)
            elif not self._load_buffer(name, value):
                missing.append(name)
        if missing:
            raise KeyError(f"state entries not found in module: {missing}")

    def _load_buffer(self, dotted: str, value: np.ndarray) -> bool:
        parts = dotted.split(".")
        module: Module = self
        for part in parts[:-1]:
            if part not in module._modules:
                return False
            module = module._modules[part]
        leaf = parts[-1]
        if leaf not in module._buffers:
            return False
        buffer = getattr(module, leaf)
        np.copyto(buffer, value)
        return True

    def grad_dict(self, transfer: bool = False) -> dict[str, np.ndarray]:
        """Return a name -> gradient mapping (zeros when grad is absent).

        ``transfer=True`` moves gradient ownership to the caller instead of
        copying: a parameter whose gradient is an exclusively-owned buffer
        (see ``Tensor._accumulate``) hands over the array itself and drops
        its own reference, which both skips the copy and keeps the buffer
        out of the pool at the next ``zero_grad()``; the FL engine returns
        it to the pool once the update is packed.  Values are identical
        either way; use it when the model's gradients are consumed exactly
        once per backward (the FL client-update chokepoint).
        """
        grads = {}
        for name, param in self.named_parameters():
            if param.grad is None:
                grads[name] = np.zeros_like(param.data)
            elif transfer and param._grad_owned:
                grads[name] = param.grad
                param.grad = None
                param._grad_owned = False
            else:
                grads[name] = param.grad.copy()
        return grads

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
