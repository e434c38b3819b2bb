"""An FL client: local data, optional client-side defense, honest training.

Clients are *honest* in the paper's threat model — they faithfully train
whatever model the server sends.  Their only protection is local batch
preprocessing (OASIS, transform-replace) or gradient post-processing (DP,
pruning), applied through a pluggable
:class:`~repro.defense.ClientDefense` — a single defense or a composed
:class:`~repro.defense.DefensePipeline`; build one from a registry spec
string like ``"MR>dpsgd"`` with :func:`repro.defense.make_defense`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.synthetic import SyntheticImageDataset
from repro.defense.base import ClientDefense, NoDefense
from repro.fl.gradients import compute_defended_update
from repro.fl.messages import GradientUpdate, ModelBroadcast
from repro.nn.module import Module


class Client:
    """One federated participant with a private local dataset.

    ``model`` is scratch state, not owned state: a federation hands every
    client the same instance, and :meth:`local_update` rebinds it in full
    before reading it, so no parameter or buffer survives from one client
    to the next.  Parameters are bound zero-copy as read-only views of the
    broadcast's arrays (:meth:`~repro.nn.module.Module.bind_state_dict`):
    a client computes gradients and never writes weights, and any
    in-place write raises instead of corrupting the broadcast the rest of
    the cohort reads.  Buffers are copied in.  What a client owns is its
    shard, its defense and its RNG stream.

    Its updates are ``poolable`` (the engine recycles their packed
    arrays) when the defense's class overrides neither gradient hook: a
    defense with a gradient hook may keep what it returns.
    """

    def __init__(
        self,
        client_id: int,
        dataset: SyntheticImageDataset,
        model: Module,
        loss_fn: Module,
        batch_size: int,
        defense: Optional[ClientDefense] = None,
        seed: int = 0,
    ) -> None:
        self.client_id = client_id
        self.dataset = dataset
        self.model = model
        self.loss_fn = loss_fn
        self.batch_size = min(batch_size, len(dataset))
        if defense is None:
            defense = NoDefense()
        self.defense = defense
        hooks = type(defense)
        self._poolable = (
            hooks.process_gradients is ClientDefense.process_gradients
            and hooks.finalize_update is ClientDefense.finalize_update
        )
        self._rng = np.random.default_rng((seed, client_id))
        self.last_batch: Optional[tuple[np.ndarray, np.ndarray]] = None

    def local_update(self, broadcast: ModelBroadcast) -> GradientUpdate:
        """One round of honest local training on the received model.

        Binds the (possibly malicious) global state read-only, samples a
        private batch, applies the defense's batch hook, computes
        gradients, applies the defense's gradient hook, and uploads.
        """
        self.model.bind_state_dict(broadcast.state)
        images, labels = self.dataset.sample_batch(self.batch_size, self._rng)
        self.last_batch = (images.copy(), labels.copy())
        gradients, loss, num_examples, _ = compute_defended_update(
            self.model, self.loss_fn, images, labels, self.defense, self._rng
        )
        return GradientUpdate(
            client_id=self.client_id,
            round_index=broadcast.round_index,
            num_examples=num_examples,
            gradients=gradients,
            loss=loss,
            poolable=self._poolable,
        )
