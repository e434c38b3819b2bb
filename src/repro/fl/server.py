"""FL servers: the honest coordinator and the actively dishonest attacker.

:class:`Server` implements the paper's Sec. II-A protocol: per round,
sample ``M`` of ``N`` clients, broadcast the global parameters, aggregate
the returned gradients, and take a gradient step (Eq. 1).  The server
owns the *protocol* — selection, aggregation, secure-aggregation
commitment windows, dishonest hooks — and delegates *time* to the
event-driven :class:`~repro.fl.engine.RoundEngine`: clients are
dispatched through a pluggable :class:`~repro.fl.arrivals.ArrivalProcess`,
updates ingest into the round buffer in completion order on the
virtual clock, and the configured cutoff decides when the round
closes.  Under the default configuration (rate-based
:class:`~repro.fl.arrivals.InstantArrivals` + count cutoff) the engine
reproduces the legacy synchronous loop's round records byte-for-byte; a
trace-driven arrival process makes dropout an emergent timing outcome,
and a :class:`~repro.fl.engine.TimeCutoff` is what makes a client late.

Clients live in a :class:`~repro.fl.fleet.Fleet`, the only client
container a server accepts: registering 10k–1M users costs a factory
and a count, and a ``Client`` object (with its shard and RNG stream;
the model it trains on is shared scratch) only materializes when the
engine actually dispatches that id.

:class:`DishonestServer` additionally manipulates the global model before
broadcasting (the paper's threat model) and runs gradient inversion on a
targeted client's update.  It still performs the normal aggregation so the
protocol looks honest from the outside.
"""

from __future__ import annotations

import operator
from typing import Optional

import numpy as np

import repro.tensor.buffers as buffers
from repro.attacks.base import ActiveReconstructionAttack, ReconstructionResult
from repro.fl.aggregators import (
    Aggregator,
    make_aggregator,
    unflatten_vector,
)
from repro.fl.arrivals import ArrivalProcess, make_arrivals
from repro.fl.client import Client
from repro.fl.engine import (
    CountCutoff,
    RoundEngine,
    RoundLedger,
    TimeCutoff,
    VirtualClock,
    release_gradients,
)
from repro.fl.fleet import Fleet
from repro.fl.messages import GradientUpdate, ModelBroadcast, RoundRecord
from repro.fl.secagg.base import BelowThresholdError
from repro.nn.module import Module


class Server:
    """Honest FL coordinator implementing gradient-averaged FedSGD (Eq. 1).

    Scenario knobs:

    - ``clients_per_round``: per-round uniform sampling of the fleet; an
      integer of at least 1 (capped at the fleet size), ``None`` for the
      whole fleet.
    - ``dropout_rate``: the rate-based dropout model of the default
      ``"instant"`` arrival process — a selected client fails before
      uploading with this probability, and the aggregate is taken over
      the survivors.
    - ``arrivals``: an arrival-process spec (``"instant"``,
      ``"uniform"``, ``"tiered"``, with knobs in the spec, e.g.
      ``"uniform(low_s=0.2)"``) or an
      :class:`~repro.fl.arrivals.ArrivalProcess` instance.  Under
      trace-driven processes ``dropout_rate`` must stay zero — failure
      comes from the timing traces — and so must it with an instance,
      which carries its own configuration.
    - ``cutoff``: the default :class:`~repro.fl.engine.CountCutoff` waits
      for every dispatched client; a :class:`~repro.fl.engine.TimeCutoff`
      closes at a deadline, and whoever lands later is a straggler.  Late
      updates are dropped unless ``accept_stale=True``, in which case
      they fold into the *next* round's aggregate.
    - ``aggregator``: an :class:`~repro.fl.aggregators.Aggregator`
      instance or registry spec (``"fedavg"``, ``"median"``,
      ``"trimmed_mean"``, ``"masked_sum"``, and the secure-aggregation
      protocol rules ``"secagg"`` / ``"secagg_oneshot"``, which run
      commit-then-drop rounds — see :mod:`repro.fl.secagg`).
    - ``weight_by_examples``: weight the aggregate by each update's
      ``num_examples`` instead of uniformly (only meaningful for rules
      that honour weights, i.e. FedAvg).

    ``fleet`` must be a :class:`~repro.fl.fleet.Fleet`; the server only
    materializes the clients it actually dispatches.  Wrap a hand-built
    client list (ids ``0..n-1``) as ``Fleet(len(clients),
    clients.__getitem__)``.
    """

    def __init__(
        self,
        model: Module,
        fleet: Fleet,
        learning_rate: float = 0.1,
        clients_per_round: Optional[int] = None,
        aggregator: "str | Aggregator" = "fedavg",
        dropout_rate: float = 0.0,
        accept_stale: bool = False,
        weight_by_examples: bool = False,
        seed: int = 0,
        arrivals: "str | ArrivalProcess" = "instant",
        cutoff: "CountCutoff | TimeCutoff" = CountCutoff(),
    ) -> None:
        if not isinstance(fleet, Fleet):
            raise TypeError(
                f"fleet must be a Fleet, got {type(fleet).__name__}; wrap a "
                "client list as Fleet(len(clients), clients.__getitem__)"
            )
        self.fleet = fleet
        self.model = model
        self.learning_rate = learning_rate
        if clients_per_round is None:
            clients_per_round = len(self.fleet)
        try:
            clients_per_round = operator.index(clients_per_round)
        except TypeError:
            raise TypeError(
                f"clients_per_round must be an integer, got {clients_per_round!r}"
            ) from None
        if clients_per_round < 1:
            raise ValueError(f"clients_per_round must be >= 1, got {clients_per_round}")
        self.clients_per_round = min(clients_per_round, len(self.fleet))
        self.aggregator = make_aggregator(aggregator)
        self.dropout_rate = dropout_rate
        self.accept_stale = accept_stale
        self.weight_by_examples = weight_by_examples
        self._rng = np.random.default_rng(seed)
        self.clock = VirtualClock()
        self.arrivals = make_arrivals(arrivals, dropout_rate=dropout_rate, seed=seed)
        self.cutoff = cutoff
        self.engine = RoundEngine(self.clock, self.arrivals, self.cutoff)
        self.round_index = 0
        self.history: list[RoundRecord] = []
        self.last_aggregate: Optional[dict[str, np.ndarray]] = None
        self._stale_updates: list[GradientUpdate] = []

    # ------------------------------------------------------------------
    # Hooks a dishonest subclass overrides
    # ------------------------------------------------------------------
    def prepare_broadcast(self) -> ModelBroadcast:
        """Build the round's broadcast; honest servers send the true state."""
        return ModelBroadcast(
            round_index=self.round_index, state=self.model.state_dict()
        )

    def inspect_updates(self, updates: list[GradientUpdate], gradients: list) -> list[dict]:
        """Hook called with the round's arrivals; honest servers do nothing.

        ``gradients[i]`` holds ``updates[i]``'s gradients as read-only
        views of its row in the round matrix, valid only during the call:
        copy what must outlive it.
        """
        return []

    def broadcast_to(
        self, client: Client, broadcast: ModelBroadcast
    ) -> ModelBroadcast:
        """Per-client broadcast hook; honest servers send everyone the same
        state.  A dishonest subclass can substitute client-customized
        parameters here (the LOKI-style per-client model manipulation)."""
        return broadcast

    def inspect_aggregate(
        self, aggregated: dict[str, np.ndarray]
    ) -> list[dict]:
        """Hook called with the round's aggregate; honest servers do nothing."""
        return []

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def select_client_ids(self) -> list[int]:
        """Uniformly sample this round's ``clients_per_round`` participant ids.

        Selection is by id, so sampling a cohort from a million-user
        fleet materializes nothing.
        """
        indices = self._rng.choice(
            len(self.fleet), size=self.clients_per_round, replace=False
        )
        return indices.tolist()

    def apply_aggregate(self, aggregated: dict[str, np.ndarray]) -> None:
        """w_{t+1} = w_t - eta * aggregated gradient (Eq. 1).

        The ``eta * gradient`` step goes through a pooled scratch buffer
        and is subtracted in place, bit for bit ``data -= eta * gradient``
        without a full-size temporary per parameter.
        """
        params = dict(self.model.named_parameters())
        for name, gradient in aggregated.items():
            if name in params:
                step = buffers.acquire(
                    gradient.shape, np.result_type(gradient, self.learning_rate)
                )
                np.multiply(gradient, self.learning_rate, out=step)
                data = params[name].data
                np.subtract(data, step, out=data)
                buffers.release(step)

    def _inspect_rows(self, ledger: RoundLedger) -> list[dict]:
        """Run :meth:`inspect_updates` over the round's packed rows.

        An overridden hook gets one gradient-free :class:`GradientUpdate`
        per row, rebuilt from the ledger's columns, and read-only views of
        each row (an in-place write raises instead of corrupting the
        aggregate); the honest no-op builds neither.
        """
        if type(self).inspect_updates is Server.inspect_updates:
            return []
        updates, gradients = [], []
        if ledger.client_ids:
            buffer = ledger.buffer
            rows = buffer.matrix
            rows.flags.writeable = False
            gradients = [unflatten_vector(row, buffer.spec) for row in rows]
            updates = [
                GradientUpdate(client_id, round_index, examples, None, loss)
                for client_id, round_index, examples, loss in zip(
                    ledger.client_ids,
                    ledger.round_indices,
                    ledger.num_examples,
                    ledger.losses,
                )
            ]
        return self.inspect_updates(updates, gradients)

    def run_round(self) -> RoundRecord:
        """One full protocol round under the configured scenario.

        The engine owns the round's timeline: it schedules the selected
        cohort through the arrival process, sorts the completions into
        virtual-time order, packs each on-time update into the round
        buffer as it lands (and the stale arrivals after them), and
        closes the round at the configured cutoff.  Everything after the
        ledger — hooks, aggregation, the model step — is protocol and
        stays here.
        Every rule aggregates through one ``aggregator.aggregate`` call
        given the arrivals' ids and the selected set; only protocol rules
        read the ids.

        A round always completes: if no update arrives at all (or a
        secure-aggregation round aborts below its recovery threshold),
        the model is simply left unchanged and the record shows an empty
        participant list with ``mean_loss = nan``.  ``mean_loss``
        averages over every update that entered the aggregate, stale
        arrivals included.

        Under a protocol aggregator (``requires_commitment``) the round
        takes the commit-then-recover shape: every *selected* client
        commits mask material before uploads exist, so clients lost to
        dropout or lateness after that point are recovered through the
        protocol's unmasking phase rather than resampled.  Late uploads
        are discarded outright — a stale masked payload carries mask
        material of a finished round and can never be unmasked later —
        and :meth:`inspect_updates` is skipped entirely because the
        server only ever sees masked payloads (aggregate-level hooks
        still fire; whether aggregate-inversion attacks survive real
        secure aggregation is exactly the question the secagg sweeps
        ask).
        """
        protocol_mode = self.aggregator.requires_commitment
        broadcast = self.prepare_broadcast()
        selected_ids = self.select_client_ids()
        stale = self._stale_updates if self.accept_stale else []
        get, deliver = self.fleet.get, self.broadcast_to

        def compute(client_id: int) -> GradientUpdate:
            client = get(client_id)
            return client.local_update(deliver(client, broadcast))

        ledger = self.engine.run_round(
            selected_ids,
            self.round_index,
            self._rng,
            compute,
            compute_late=not protocol_mode,
            stale=stale,
        )
        if self.accept_stale:
            self._stale_updates = ledger.late
        else:
            # Nothing will read a late update again: pool its arrays now.
            self._stale_updates = []
            for update in ledger.late:
                release_gradients(update)
        # The ledger's columns are in buffer row order: fresh, then stale.
        # Inspect updates in the round they are *aggregated*: fresh ones
        # now, late ones only if/when they re-enter as stale arrivals —
        # inspecting the late list here would attribute next round's
        # aggregate members to this round's record (and count discarded
        # updates when accept_stale is off).
        attack_events = [] if protocol_mode else self._inspect_rows(ledger)
        participant_ids = ledger.client_ids
        secagg_meta: dict | None = None
        weights = (
            ledger.num_examples
            if (self.weight_by_examples and participant_ids)
            else None
        )
        aggregated = None
        if participant_ids:
            try:
                aggregated = self.aggregator.aggregate(
                    ledger.buffer,
                    weights,
                    self.round_index,
                    ids=participant_ids,
                    committed_ids=selected_ids,
                )
                if protocol_mode:
                    secagg_meta = dict(self.aggregator.last_metadata)
            except BelowThresholdError as error:
                secagg_meta = {
                    "protocol": self.aggregator.name,
                    "aborted": True,
                    "survivors": error.survivors,
                    "threshold": error.threshold,
                }
                participant_ids = []
        if aggregated is not None:
            self.apply_aggregate(aggregated)
            self.last_aggregate = aggregated
            attack_events = attack_events + self.inspect_aggregate(aggregated)
        else:
            self.last_aggregate = None
        record = RoundRecord(
            round_index=self.round_index,
            participant_ids=participant_ids,
            mean_loss=(
                float(np.mean(ledger.losses))
                if participant_ids
                else float("nan")
            ),
            attack_events=attack_events,
            selected_ids=list(selected_ids),
            dropped_ids=list(ledger.dropped_ids),
            straggler_ids=list(ledger.straggler_ids),
            stale_ids=[u.client_id for u in stale],
            aggregator=self.aggregator.name,
            weighting=self.aggregator.effective_weighting(weights),
            secagg=secagg_meta,
            timing=ledger.timing,
        )
        self.history.append(record)
        self.round_index += 1
        return record

    def run(self, num_rounds: int) -> list[RoundRecord]:
        """Run ``num_rounds`` consecutive protocol rounds."""
        return [self.run_round() for _ in range(num_rounds)]


class DishonestServer(Server):
    """An actively dishonest server running a reconstruction attack.

    Before each broadcast it lets ``attack.craft`` overwrite the malicious
    layer of the global model; after collecting updates it inverts the
    targeted client's gradients.  Reconstructions are stored in
    :attr:`reconstructions` keyed by ``(round_index, client_id)`` — keying
    by round alone would let a later client's result silently clobber an
    earlier one when every client is targeted (``target_client_id=None``),
    exactly the multi-victim regime large-scale attacks operate in.  Use
    :meth:`round_reconstructions` for everything captured in one round.
    ``target_client_id`` must be ``None`` or an id in ``fleet``: an id
    outside it would match no update, and every round would record no
    attack event, so it raises at construction.  All honest-server
    scenario knobs (sampling, dropout, aggregator, arrival processes,
    cutoffs) pass through ``**server_kwargs``.

    Large-scale attacks opt into two further hooks through class
    attributes on the attack object:

    - ``per_client_crafting`` — the attack's :meth:`craft_for_client` is
      called per participant, so each client receives its own manipulated
      parameters (LOKI's per-client-disjoint neuron blocks).  When the
      attack's ``num_neurons`` cover the whole fleet, its ids are handed
      to ``attack.assign_clients`` once, at construction — ids only, so
      even a million-user fleet materializes nothing here.  A larger
      fleet is assigned each round's selected cohort instead, before the
      first per-client craft; a cohort larger than the budget raises.
    - ``reconstructs_from_aggregate`` — per-update inversion is skipped
      and the attack inverts the round's FedAvg *aggregate* instead
      (``reconstruct_per_client``), the regime where secure aggregation
      alone does not protect individual updates.
    """

    def __init__(
        self,
        model: Module,
        fleet: Fleet,
        attack: ActiveReconstructionAttack,
        target_client_id: Optional[int] = None,
        **server_kwargs,
    ) -> None:
        super().__init__(model, fleet, **server_kwargs)
        if target_client_id is not None and target_client_id not in self.fleet:
            raise ValueError(
                f"target_client_id {target_client_id} is outside the fleet "
                f"of {len(self.fleet)} clients"
            )
        self.attack = attack
        self.target_client_id = target_client_id
        self.reconstructions: dict[tuple[int, int], ReconstructionResult] = {}
        assigns = hasattr(attack, "assign_clients")
        self._assign_per_round = assigns and len(self.fleet) > attack.num_neurons
        if assigns and not self._assign_per_round:
            attack.assign_clients(list(self.fleet.client_ids))

    def select_client_ids(self) -> list[int]:
        """Sample the cohort, and hand it blocks if the fleet outgrows them."""
        selected = super().select_client_ids()
        if self._assign_per_round:
            self.attack.assign_clients(selected)
        return selected

    def prepare_broadcast(self) -> ModelBroadcast:
        """Craft the malicious model, then broadcast it as if honest.

        Per-client-crafting attacks skip the shared craft entirely: every
        delivered broadcast is rebuilt in :meth:`broadcast_to`, so a union
        craft here would be paid each round and then discarded.
        """
        if not getattr(self.attack, "per_client_crafting", False):
            self.attack.craft(self.model)
        return ModelBroadcast(
            round_index=self.round_index, state=self.model.state_dict()
        )

    def broadcast_to(
        self, client: Client, broadcast: ModelBroadcast
    ) -> ModelBroadcast:
        """Substitute client-customized parameters when the attack asks.

        ``state_dict`` snapshots copies, so re-crafting the server model
        for the next client never mutates an already-dispatched broadcast.
        The engine computes completions in deterministic virtual-time order,
        so the per-client craft sequence is as reproducible as the legacy
        selection-order loop.
        """
        if not getattr(self.attack, "per_client_crafting", False):
            return broadcast
        self.attack.craft_for_client(self.model, client.client_id)
        return ModelBroadcast(
            round_index=broadcast.round_index, state=self.model.state_dict()
        )

    def inspect_updates(self, updates: list[GradientUpdate], gradients: list) -> list[dict]:
        """Invert every targeted update that reaches the server this round.

        Aggregate-reconstructing attacks skip this path entirely: their
        whole point is that the server never needs the individual updates
        (it may not even see them under secure aggregation).
        """
        if getattr(self.attack, "reconstructs_from_aggregate", False):
            return []
        events = []
        for update, update_gradients in zip(updates, gradients):
            targeted = (
                self.target_client_id is None
                or update.client_id == self.target_client_id
            )
            if not targeted:
                continue
            result = self.attack.reconstruct(update_gradients)
            self.reconstructions[(update.round_index, update.client_id)] = result
            events.append(
                {
                    "round": update.round_index,
                    "client_id": update.client_id,
                    "num_reconstructions": len(result),
                    "attack": self.attack.name,
                }
            )
        return events

    def inspect_aggregate(
        self, aggregated: dict[str, np.ndarray]
    ) -> list[dict]:
        """Invert the round's aggregate for attacks that reconstruct there."""
        if not getattr(self.attack, "reconstructs_from_aggregate", False):
            return []
        events = []
        per_client = self.attack.reconstruct_per_client(aggregated)
        for client_id in sorted(per_client):
            targeted = (
                self.target_client_id is None
                or client_id == self.target_client_id
            )
            if not targeted:
                continue
            result = per_client[client_id]
            self.reconstructions[(self.round_index, client_id)] = result
            events.append(
                {
                    "round": self.round_index,
                    "client_id": client_id,
                    "num_reconstructions": len(result),
                    "attack": self.attack.name,
                    "from_aggregate": True,
                }
            )
        return events

    def round_reconstructions(
        self, round_index: int
    ) -> list[tuple[int, ReconstructionResult]]:
        """All ``(client_id, result)`` pairs captured in ``round_index``.

        Pairs come back in arrival order (insertion order of the round's
        inversions), so multi-victim rounds keep every client's result.
        """
        return [
            (client_id, result)
            for (captured_round, client_id), result in self.reconstructions.items()
            if captured_round == round_index
        ]
