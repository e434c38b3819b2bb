"""High-level federated simulation: partitioning, assembly, evaluation.

Convenience layer that turns a dataset + model factory + defense into a
running federation, so examples and experiments stay short.  Scenarios are
described declaratively through :class:`FederationConfig`: IID or Dirichlet
label-skewed partitioning, per-round client sampling, the dropout rate,
arrival processes and round cutoffs for the event engine, and the
server-side aggregation rule.  Every federation's clients live in a lazy
:class:`~repro.fl.fleet.Fleet`: a client (shard, RNG stream) materializes
only when sampled, and all of them train on one scratch model, so a
100k-user registration (``fleet_size``) costs a closure, not 100k objects.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.data.synthetic import SyntheticImageDataset
from repro.defense.base import ClientDefense
from repro.fl.aggregators import Aggregator
from repro.fl.arrivals import ArrivalProcess
from repro.fl.client import Client
from repro.fl.engine import CountCutoff, TimeCutoff, make_cutoff
from repro.fl.fleet import Fleet
from repro.fl.server import DishonestServer, Server
from repro.metrics.accuracy import model_accuracy
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.utils.rng import seed_sequence_for


def partition_dataset(
    dataset: SyntheticImageDataset,
    num_clients: int,
    seed: int = 0,
) -> list[SyntheticImageDataset]:
    """IID partition of a dataset into ``num_clients`` equal shards."""
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if len(dataset) < num_clients:
        raise ValueError("fewer samples than clients")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    shards = np.array_split(order, num_clients)
    return [dataset.subset(shard) for shard in shards]


def dirichlet_partition_indices(
    labels: np.ndarray,
    num_clients: int,
    alpha: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Dirichlet label-skew assignment of sample indices to clients.

    For each class, client shares are drawn from ``Dirichlet(alpha)`` and
    the class's (shuffled) samples are split at the cumulative-share
    boundaries, so every sample lands on exactly one client for any
    ``alpha > 0``.  Small ``alpha`` concentrates each class on few clients
    (strong non-IID); large ``alpha`` approaches IID.
    """
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    labels = np.asarray(labels)
    # One stable sort groups every class's indices, ascending, so each
    # class's shuffle runs in place on its own slice.  The RNG sees the
    # per-class calls in class order: shuffle, then the Dirichlet draw.
    order = np.argsort(labels, kind="stable")
    counts = np.unique(labels, return_counts=True)[1]
    ends = np.cumsum(counts)
    concentration = np.full(num_clients, alpha)
    shares = np.empty((len(counts), num_clients))
    for cls, (start, end) in enumerate(zip(ends - counts, ends)):
        rng.shuffle(order[start:end])
        shares[cls] = rng.dirichlet(concentration)
    # Each class's split points at its cumulative shares, all classes at once.
    sizes = counts[:, None]
    bounds = np.floor(np.cumsum(shares, axis=1) * sizes).astype(np.int64)
    bounds = np.maximum.accumulate(np.clip(bounds, 0, sizes), axis=1)
    bounds[:, -1] = counts
    per_client = np.diff(bounds, axis=1, prepend=0)
    owner = np.repeat(np.tile(np.arange(num_clients), len(counts)), per_client.ravel())
    shards = order[np.lexsort((order, owner))]
    return np.split(shards, np.cumsum(per_client.sum(axis=0))[:-1])


def rebalance_min_per_client(
    assignments: list[np.ndarray],
    labels: np.ndarray,
    min_per_client: int,
) -> list[np.ndarray]:
    """Move samples from surplus shards until every shard has the minimum.

    One vectorized deterministic pass.  Donors are the shards holding
    more than ``min_per_client``, drained richest-first; each donor gives
    away its most-abundant labels first, so topping up a starved client
    flattens the donor's label skew as little as possible — unlike the
    old pop-from-largest loop, which moved whatever sample happened to
    sit at the end of the donor's list, one sample per O(num_clients)
    scan.

    Deterministic by construction: donees are visited in index order
    (most-starved first), donations are ordered by ``np.lexsort`` over
    (donor label count descending, index), and no RNG is consumed —
    callers' random streams are untouched by rebalancing.
    """
    if min_per_client <= 0:
        return assignments
    labels = np.asarray(labels)
    sizes = np.asarray([len(a) for a in assignments], dtype=np.int64)
    deficits = np.maximum(min_per_client - sizes, 0)
    if not deficits.any():
        return assignments
    surpluses = np.maximum(sizes - min_per_client, 0)
    if deficits.sum() > surpluses.sum():
        raise ValueError("not enough samples to satisfy min_per_client")

    # Each donor's give-away queue: its own samples ordered so that the
    # most-abundant label's samples leave first (ties broken by index for
    # determinism).  Built once, consumed by slicing.
    donations: dict[int, list[int]] = {}
    for donor in np.flatnonzero(surpluses):
        shard = np.asarray(assignments[donor], dtype=np.int64)
        shard_labels = labels[shard]
        _, inverse, counts = np.unique(
            shard_labels, return_inverse=True, return_counts=True
        )
        order = np.lexsort((shard, -counts[inverse]))
        donations[donor] = shard[order][: surpluses[donor]].tolist()

    # Richest donors drain first; donees fill in index order.  Both
    # orders are pure functions of the shard sizes, never of dict or
    # insertion order.
    donor_order = sorted(donations, key=lambda i: (-surpluses[i], i))
    rebalanced = [list(a) for a in assignments]
    taken: dict[int, int] = {donor: 0 for donor in donor_order}
    cursor = 0
    for donee in np.flatnonzero(deficits):
        need = int(deficits[donee])
        while need > 0:
            donor = donor_order[cursor]
            available = donations[donor][taken[donor] :]
            if not available:
                cursor += 1
                continue
            grabbed = available[:need]
            taken[donor] += len(grabbed)
            need -= len(grabbed)
            moved = set(grabbed)
            rebalanced[donor] = [
                index for index in rebalanced[donor] if index not in moved
            ]
            rebalanced[donee].extend(grabbed)
    return [np.asarray(sorted(a), dtype=np.int64) for a in rebalanced]


def partition_dataset_dirichlet(
    dataset: SyntheticImageDataset,
    num_clients: int,
    alpha: float = 0.5,
    seed: int = 0,
    min_per_client: int = 0,
) -> list[SyntheticImageDataset]:
    """Non-IID partition with Dirichlet(alpha) label skew per class.

    When ``min_per_client`` is positive, samples are reassigned from
    surplus shards until every client owns at least that many (Dirichlet
    draws with small ``alpha`` routinely starve some clients entirely,
    which a federation cannot train with) — see
    :func:`rebalance_min_per_client` for the deterministic donor policy.
    The result always covers the dataset exactly once.
    """
    if min_per_client * num_clients > len(dataset):
        raise ValueError("fewer samples than clients require")
    rng = np.random.default_rng(seed)
    assignments = dirichlet_partition_indices(
        dataset.labels, num_clients, alpha, rng
    )
    assignments = rebalance_min_per_client(
        assignments, dataset.labels, min_per_client
    )
    return [dataset.subset(a) for a in assignments]


@dataclass(frozen=True)
class FederationConfig:
    """Declarative description of a federation scenario.

    Beyond the seed's sizing knobs it selects the data partition
    (``partition``: ``"iid"`` or ``"dirichlet"`` with ``dirichlet_alpha``
    label skew), the participation scenario (``clients_per_round``
    sampling, ``dropout_rate``, ``accept_stale``), and the server-side
    ``aggregator`` (registry spec or instance — see
    :func:`repro.fl.aggregators.make_aggregator`).  Knobs ride in the
    spec: ``aggregator="secagg(threshold=8)"`` pins a SecAgg
    reconstruction threshold instead of the default strict majority.

    Event-engine knobs (all default to the legacy-compatible behaviour):

    - ``arrivals``: an arrival-process spec (``"instant"``, the
      rate-driven default, ``"uniform"`` or ``"tiered"``, knobs in the
      spec) or an :class:`~repro.fl.arrivals.ArrivalProcess` instance.
    - ``round_duration_s`` / ``min_arrivals``: a positive duration closes
      each round on a :class:`~repro.fl.engine.TimeCutoff` after that
      many simulated seconds (with an optional grace floor), and an
      update landing later is a straggler; zero keeps the count cutoff.
    - ``fleet_size``: a positive ``fleet_size`` registers that many users
      instead of partitioning ``num_clients`` shards; each materialized
      client samples a ``batch_size`` private shard keyed by its id, so
      any cohort is reproducible without touching the rest of the fleet.

    ``name`` labels the config as one scenario of a sweep grid
    (:class:`~repro.experiments.SweepRunner`); a federation ignores it.
    A sweep sets ``batch_size`` and ``seed`` itself, cell by cell, and
    fingerprints every other field into the cell's store key (see
    :func:`repro.experiments.sweep.scenario_to_dict`), so a scenario
    names its aggregator and arrival process by registry spec.
    """

    name: str = ""
    num_clients: int = 10
    clients_per_round: Optional[int] = None
    batch_size: int = 8
    learning_rate: float = 0.1
    seed: int = 0
    partition: str = "iid"
    dirichlet_alpha: float = 0.5
    dropout_rate: float = 0.0
    accept_stale: bool = False
    aggregator: "str | Aggregator" = "fedavg"
    weight_by_examples: bool = False
    arrivals: "str | ArrivalProcess" = "instant"
    round_duration_s: float = 0.0
    min_arrivals: int = 0
    fleet_size: int = 0

    def make_cutoff(self) -> "CountCutoff | TimeCutoff":
        """Resolve the configured round-close policy."""
        return make_cutoff(
            round_duration_s=self.round_duration_s or None,
            min_arrivals=self.min_arrivals,
        )

    def make_shards(
        self, dataset: SyntheticImageDataset
    ) -> list[SyntheticImageDataset]:
        """Partition ``dataset`` per the configured scheme, one shard per client."""
        if self.partition == "iid":
            return partition_dataset(dataset, self.num_clients, seed=self.seed)
        if self.partition == "dirichlet":
            return partition_dataset_dirichlet(
                dataset,
                self.num_clients,
                alpha=self.dirichlet_alpha,
                seed=self.seed,
                min_per_client=1,
            )
        raise ValueError(
            f"unknown partition {self.partition!r}; choose 'iid' or 'dirichlet'"
        )


def make_lazy_fleet(
    dataset: SyntheticImageDataset,
    model: Module,
    config: FederationConfig,
    defense: Optional[ClientDefense] = None,
) -> Fleet:
    """The federation's client registry, materializing clients on demand.

    The shard source follows the config.  A positive ``fleet_size``
    registers that many users, each holding a ``batch_size`` sample of the
    dataset keyed by ``(seed, "fleet-shard", client_id)`` — a pure
    function of the id, so whichever cohort the server happens to
    dispatch sees the same data in any run, on any worker, regardless of
    who else materialized.  Otherwise the fleet holds ``num_clients``
    clients over :meth:`FederationConfig.make_shards`, indexed by id.

    Every client trains on one scratch model: a structural copy of
    ``model`` (the federation's global model) that shares its parameter
    arrays, so the copy owns no parameter memory.  Buffers, such as
    batch-norm running statistics, are the scratch model's own.  Nothing
    reads the scratch before a client binds its broadcast into it
    (:meth:`Client.local_update`), and binding only rebinds parameters,
    so ``model``'s arrays are never written through the copy.
    """
    if config.fleet_size > 0:
        size = config.fleet_size
        if config.batch_size > len(dataset):
            raise ValueError("batch_size cannot exceed the dataset in a fleet")

        def shard(client_id: int) -> SyntheticImageDataset:
            shard_rng = np.random.default_rng(
                seed_sequence_for(config.seed, "fleet-shard", str(client_id))
            )
            indices = shard_rng.choice(
                len(dataset), size=config.batch_size, replace=False
            )
            return dataset.subset(np.sort(indices))

    else:
        shards = config.make_shards(dataset)
        size = len(shards)
        shard = shards.__getitem__
    shared = {id(param.data): param.data for param in model.parameters()}
    scratch = copy.deepcopy(model, memo=shared)
    loss_fn = CrossEntropyLoss()

    def factory(client_id: int) -> Client:
        return Client(
            client_id=client_id,
            dataset=shard(client_id),
            model=scratch,
            loss_fn=loss_fn,
            batch_size=config.batch_size,
            defense=defense,
            seed=config.seed,
        )

    return Fleet(size, factory)


class FederatedSimulation:
    """A ready-to-run federation over one dataset.

    ``model_factory`` runs once per federation, whatever the fleet size,
    to build the global model.  The scratch model every client trains on
    borrows the global model's parameter arrays (see
    :func:`make_lazy_fleet`), so a federation's parameters exist only in
    the global model and the broadcasts the server sends.
    """

    def __init__(
        self,
        dataset: SyntheticImageDataset,
        model_factory: Callable[[], Module],
        config: FederationConfig,
        defense: Optional[ClientDefense] = None,
        attack=None,
        target_client_id: Optional[int] = None,
    ) -> None:
        self.config = config
        global_model = model_factory()
        self.fleet = make_lazy_fleet(dataset, global_model, config, defense)
        server_kwargs = dict(
            learning_rate=config.learning_rate,
            clients_per_round=config.clients_per_round,
            aggregator=config.aggregator,
            dropout_rate=config.dropout_rate,
            accept_stale=config.accept_stale,
            weight_by_examples=config.weight_by_examples,
            seed=config.seed,
            arrivals=config.arrivals,
            cutoff=config.make_cutoff(),
        )
        if attack is None:
            self.server: Server = Server(global_model, self.fleet, **server_kwargs)
        else:
            self.server = DishonestServer(
                global_model,
                self.fleet,
                attack=attack,
                target_client_id=target_client_id,
                **server_kwargs,
            )

    def run(self, num_rounds: int):
        """Run the federation for ``num_rounds`` and return the records."""
        return self.server.run(num_rounds)

    def evaluate(self, dataset: SyntheticImageDataset) -> float:
        """Top-1 accuracy of the current global model on ``dataset``."""
        return model_accuracy(self.server.model, dataset, 64)
