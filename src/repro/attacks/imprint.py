"""Imprint-layer machinery shared by the active reconstruction attacks.

The threat model (paper Sec. III-A): a dishonest server inserts a malicious
fully-connected layer of ``n`` attacked neurons *directly after the input*
of the global model before dispatching it.  The client trains honestly on
the modified model; the gradients of the malicious layer then memorize
training inputs, recoverable by gradient inversion (Eq. 6):

    x_t = (dL/db_i)^(-1) * (dL/dW_i)

for any neuron ``i`` activated by exactly one sample ``x_t``.

:class:`ImprintedModel` is the modified global model: flatten -> malicious
Linear(d, n) -> ReLU -> fixed decoder Linear(n, d) -> classifier head.  The
decoder's rows are *identical*, which makes the backpropagated coefficient
``dL/dz_i`` equal across attacked neurons for a given sample — the property
the RTF successive-difference disaggregation relies on (and which holds in
the original attack's pass-through construction).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor

IMPRINT_WEIGHT = "imprint.weight"
IMPRINT_BIAS = "imprint.bias"


class ImprintedModel(Module):
    """A global model carrying a malicious imprint layer after the input.

    Parameters
    ----------
    input_shape:
        (C, H, W) of the client images; flattened dimension is the attack
        surface ``d``.
    num_neurons:
        Number of attacked neurons ``n``.
    num_classes:
        Output classes of the (innocuous-looking) classifier head.
    rng:
        Generator for the head/decoder initialization.
    """

    def __init__(
        self,
        input_shape: tuple[int, int, int],
        num_neurons: int,
        num_classes: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.input_shape = tuple(input_shape)
        flat_dim = int(np.prod(input_shape))
        self.flat_dim = flat_dim
        self.num_neurons = num_neurons
        self.imprint = Linear(flat_dim, num_neurons, rng=rng)
        self.decoder = Linear(num_neurons, flat_dim, rng=rng)
        self.head = Linear(flat_dim, num_classes, rng=rng)
        self._install_passthrough_decoder(rng)

    def _install_passthrough_decoder(self, rng: np.random.Generator) -> None:
        """Give the decoder identical columns so every attacked neuron feeds
        the downstream identically (equal backprop coefficients per sample)."""
        direction = rng.standard_normal(self.flat_dim)
        direction /= np.linalg.norm(direction)
        # Linear computes x @ W.T: W has shape (flat_dim, num_neurons) here,
        # so identical *columns* across neurons means W[:, i] == direction.
        self.decoder.weight.data = np.tile(
            direction[:, None],
            (1, self.num_neurons),
        )
        self.decoder.bias.data = np.zeros_like(self.decoder.bias.data)

    def forward(self, x: Tensor) -> Tensor:
        flat = x.flatten(1) if x.ndim > 2 else x
        hidden = self.imprint(flat).relu()
        decoded = self.decoder(hidden)
        return self.head(decoded)

    # ------------------------------------------------------------------
    # Attack surface accessors
    # ------------------------------------------------------------------
    def set_imprint_parameters(self, weight: np.ndarray, bias: np.ndarray) -> None:
        """Overwrite the malicious layer (the server-side manipulation)."""
        if weight.shape != self.imprint.weight.shape:
            raise ValueError(
                f"weight shape {weight.shape} != {self.imprint.weight.shape}"
            )
        if bias.shape != self.imprint.bias.shape:
            raise ValueError(f"bias shape {bias.shape} != {self.imprint.bias.shape}")
        self.imprint.weight.data = np.array(weight, dtype=np.float64, order="C")
        self.imprint.bias.data = np.array(bias, dtype=np.float64, order="C")

    def imprint_parameters(self) -> tuple[np.ndarray, np.ndarray]:
        return self.imprint.weight.data, self.imprint.bias.data


def extract_imprint_gradients(
    gradients: dict[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Pull (dL/dW, dL/db) of the malicious layer out of a client update."""
    try:
        return gradients[IMPRINT_WEIGHT], gradients[IMPRINT_BIAS]
    except KeyError as error:
        raise KeyError(
            "client update does not contain imprint-layer gradients; "
            f"expected keys {IMPRINT_WEIGHT!r}, {IMPRINT_BIAS!r}"
        ) from error


def activation_matrix(
    weight: np.ndarray, bias: np.ndarray, flat_images: np.ndarray
) -> np.ndarray:
    """Boolean (num_images, num_neurons) matrix of ReLU activations.

    Used by the Proposition 1 analysis: two images are mutually protected
    when their activation rows are identical.
    """
    preactivation = flat_images @ weight.T + bias
    return preactivation > 0.0
