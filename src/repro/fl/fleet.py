"""Lazy client registries: million-user fleets without million-object cost.

A :class:`Fleet` maps client ids to :class:`~repro.fl.client.Client`
objects (shard, defense, RNG stream), but only builds the objects that
are actually sampled into a round.  Registration is O(1) in fleet size —
the registry holds a factory and a count, not a list — so a 1M-user
federation costs nothing until the server samples its first cohort, and
then costs exactly the cohort.

The factory contract is ``factory(i).client_id == i`` for every ``i`` in
``range(size)``: a client's shard, loss, and RNG stream must be pure
functions of its id so that materialization order (which depends on
sampling, not registration) can never change behaviour.  Materialized
clients are cached — a client sampled in rounds 3 and 7 is the same
object, preserving its local RNG stream continuity across rounds.  A
cached client pins its shard and RNG stream, not a model: every client of
a federation trains on one shared scratch model (see
:func:`repro.fl.simulator.make_lazy_fleet`).

A fleet is the only client container a :class:`~repro.fl.server.Server`
accepts; an eagerly-built list ``clients`` whose ids are ``0..n-1`` is
wrapped as ``Fleet(len(clients), clients.__getitem__)``.
"""

from __future__ import annotations

import operator
from typing import Callable

from repro.fl.client import Client


class Fleet:
    """A lazily-materializing registry of ``size`` federated clients.

    ``size`` must be a positive Python or numpy integer; a float or a
    string raises :class:`TypeError` rather than truncating.
    """

    def __init__(self, size: int, factory: Callable[[int], Client]) -> None:
        size = operator.index(size)
        if size <= 0:
            raise ValueError("fleet size must be positive")
        self.size = size
        self._factory = factory
        self._cache: dict[int, Client] = {}

    def __len__(self) -> int:
        return self.size

    def __contains__(self, client_id: int) -> bool:
        return 0 <= operator.index(client_id) < self.size

    @property
    def client_ids(self) -> range:
        """Every registered id — no materialization."""
        return range(self.size)

    @property
    def materialized_count(self) -> int:
        """How many Client objects actually exist right now."""
        return len(self._cache)

    def get(self, client_id: int) -> Client:
        """Materialize (or fetch the cached) client for ``client_id``.

        ``client_id`` must be a Python or numpy integer; a float or a
        string raises :class:`TypeError` rather than truncating to some
        client.  It is converted before the cache lookup, where ``3.0``
        would hit client 3.  Only a cache miss checks the range.
        """
        client_id = operator.index(client_id)
        client = self._cache.get(client_id)
        if client is None:
            if not 0 <= client_id < self.size:
                raise KeyError(
                    f"client_id {client_id} outside fleet of {self.size}"
                )
            client = self._factory(client_id)
            if client.client_id != client_id:
                raise ValueError(
                    f"fleet factory returned client_id {client.client_id} "
                    f"for requested id {client_id}"
                )
            self._cache[client_id] = client
        return client

    def __repr__(self) -> str:
        return (
            f"Fleet(size={self.size}, "
            f"materialized={self.materialized_count})"
        )
