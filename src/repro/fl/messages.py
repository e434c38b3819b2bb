"""Protocol messages exchanged between the FL server and clients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np


@dataclass
class ModelBroadcast:
    """Server -> client: the global model for the current round.

    A dishonest server may have manipulated ``state`` before sending
    (paper threat model, Sec. III-A); clients cannot tell.
    """

    round_index: int
    state: dict[str, np.ndarray]


@dataclass(slots=True)
class GradientUpdate:
    """Client -> server: gradients computed on the local batch (Eq. 1).

    Slotted: a fleet round creates one per arrival, and a slotted
    instance carries no ``__dict__`` for the cyclic collector to walk.
    The round engine sets ``gradients`` to ``None`` once it packed them,
    first pooling the arrays if ``poolable`` says nothing else holds them.
    """

    client_id: int
    round_index: int
    num_examples: int
    gradients: Optional[Mapping[str, np.ndarray]]
    loss: float = 0.0
    poolable: bool = False


@dataclass
class KeyAdvertisement:
    """Client -> server -> all: a client's public key for this round.

    First message of a Bonawitz-style round; every pair of committed
    clients derives its pairwise mask seed from the two advertisements.
    """

    client_id: int
    round_index: int
    public_key: int


@dataclass
class MaskedUpload:
    """Client -> server: the masked quantized update.

    ``payload`` is uniformly random on its own — in the ``uint64`` ring
    for the Bonawitz-style protocol, in GF(2**61 - 1) for the one-shot
    recovery protocol.  The server learns an individual update only by
    breaking the masking, never from this message.  A protocol round
    makes ``payload`` a row view of an array it borrowed from the tensor
    buffer pool, valid until the round releases its buffers
    (``CommittedRound.release_buffers``, which the protocol aggregators
    call once the sum is recovered); copy it to keep it.
    """

    client_id: int
    round_index: int
    num_examples: int
    payload: np.ndarray
    loss: float = 0.0


@dataclass
class UnmaskRequest:
    """Server -> survivors: the round's survivor/dropped split.

    Asks each survivor for the shares the server needs: self-mask shares
    for the survivors, secret-key shares for the dropped.
    """

    round_index: int
    survivor_ids: list[int]
    dropped_ids: list[int]


@dataclass
class UnmaskResponse:
    """Survivor -> server: the shares answering an :class:`UnmaskRequest`.

    ``self_mask_shares`` holds this survivor's shares of the survivors'
    self-mask seeds, one ``uint64`` field element per id of the
    request's sorted ``survivor_ids``; ``seed_shares`` its shares of the
    dropped clients' secret keys, one per id of ``dropped_ids``.  Both
    are rows (views) of the round's share arrays.  A client never
    reveals both kinds of share for the same sender — that would hand
    the server everything needed to unmask a live upload.
    """

    client_id: int
    round_index: int
    share_x: int
    self_mask_shares: np.ndarray
    seed_shares: np.ndarray


@dataclass
class AggregatedMaskSegment:
    """Survivor -> server: the one-shot recovery message.

    The survivor sums the encoded segments it holds *for the survivor
    set* and sends that single aggregate; ``threshold`` such messages let
    the server interpolate the summed mask directly — one round-trip,
    regardless of how many clients dropped.
    """

    client_id: int
    round_index: int
    segment: np.ndarray


@dataclass
class RoundRecord:
    """Bookkeeping for one completed FL round.

    ``participant_ids`` lists the clients whose updates actually entered
    the aggregate (survivors plus any stale stragglers folded in this
    round); the scenario fields break the selection down further:
    ``selected_ids`` is the server's per-round sample, ``dropped_ids`` the
    clients that failed before uploading, ``straggler_ids`` the clients
    whose updates missed the round deadline, and ``stale_ids`` the late
    updates from a *previous* round aggregated now (only when the server
    runs with ``accept_stale=True``).

    ``weighting`` records the weighting that was actually applied —
    ``"weighted"`` only when the server passed example-count weights *and*
    the aggregation rule honours weights, else ``"uniform"`` — so sweeps
    cannot misreport a weighted run through an unweighted rule.
    ``secagg`` is ``None`` outside protocol rounds; under a secure-
    aggregation protocol it carries the round's protocol metadata
    (committed/survivor counts, threshold, recovered dropouts, or the
    abort reason when survivors fell below threshold).

    ``timing`` is the event engine's virtual-clock annotation when the
    federation runs a real arrival process or a non-default cutoff:
    ``opened_at`` / ``closed_at`` ticks, the ``cutoff`` policy
    (``"time"`` or ``"count"``), the ``unavailable`` ids, and flat int
    lists in completion order — ``arrival_ids`` with their
    ``arrival_ticks`` for the on-time arrivals, ``late_ids`` with their
    ``late_ticks`` for the completions after the cutoff (so
    ``zip(timing["arrival_ids"], timing["arrival_ticks"])`` gives the
    ``(client id, tick)`` pairs).  Flat lists keep a 10k-arrival record
    at a handful of container objects.  It stays
    ``None`` in the legacy-compatible configuration, so records produced
    by the event engine's degenerate count cutoff compare equal to
    pre-engine records field-for-field.
    """

    round_index: int
    participant_ids: list[int]
    mean_loss: float
    attack_events: list[dict] = field(default_factory=list)
    selected_ids: list[int] = field(default_factory=list)
    dropped_ids: list[int] = field(default_factory=list)
    straggler_ids: list[int] = field(default_factory=list)
    stale_ids: list[int] = field(default_factory=list)
    aggregator: str = "fedavg"
    weighting: str = "uniform"
    secagg: dict | None = None
    timing: dict | None = None

    @property
    def num_selected(self) -> int:
        """How many clients the server sampled for this round."""
        return len(self.selected_ids)
