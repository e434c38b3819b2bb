"""Pluggable client arrival processes: who completes a round, and when.

An :class:`ArrivalProcess` turns the server's selected client set into a
:class:`~repro.fl.engine.RoundPlan` — per-client completion ticks on the
virtual clock, plus the clients that never start at all.  The engine
sorts those completions into time order; the round cutoff then *derives*
straggling from the timeline: a late arrival is one whose tick lands
past a :class:`~repro.fl.engine.TimeCutoff`, never a coin flip.

Three processes ship with the engine:

- :class:`InstantArrivals` — the default: rate-based dropout, the
  paper's survivors-only threat model.  It consumes the server's RNG
  with the same coin flips the pre-engine synchronous loop drew, then
  synthesizes one-tick-apart completion times in selection order, so
  under the default count cutoff every survivor is on time and the
  event engine is byte-identical to that loop.
- :class:`UniformArrivals` — every client's round latency is uniform on
  ``[low_s, high_s]`` simulated seconds, keyed by ``(seed, client_id,
  round)``.  The minimal genuinely-timed process; with a time cutoff,
  stragglers emerge wherever the draw lands past the deadline.
- :class:`TieredArrivals` — per-client latency/compute traces.  Each
  client is pinned to a :class:`HardwareTier` (flagship/mid/budget/IoT by
  fleet share), draws per-round compute time around the tier's mean with
  lognormal jitter plus network latency, and can fail mid-round with the
  tier's failure rate.

Each trace is one vectorized :func:`~repro.utils.rng.keyed_uniforms`
draw over the whole cohort, keyed by ``(seed, label, client, round)``:
completion times are pure functions of configuration, invariant to
registration order, worker count, and which other clients exist — the
same discipline the sweep engine's byte-identity rests on.
:data:`TRACE_STREAM_VERSION` names that keying scheme; sweep fingerprints
fold it in, so a store never mixes plans drawn under two schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.engine import TICKS_PER_SECOND, RoundPlan
from repro.registry import Registry
from repro.utils.rng import keyed_uniforms

#: Version of the keyed random streams the trace-driven processes draw.
TRACE_STREAM_VERSION = "keyed-v2"


def _delay_ticks(seconds: np.ndarray) -> np.ndarray:
    """Durations in simulated seconds as whole ticks, never below one."""
    return np.maximum(np.rint(seconds * TICKS_PER_SECOND).astype(np.int64), 1)


class ArrivalProcess:
    """Base class: schedules the completion timeline of one round.

    ``synthesizes_time`` marks processes whose ticks are bookkeeping
    artifacts (the compat layer) rather than modeled durations; the
    engine omits the timing annotation from round records for those so
    legacy records stay byte-identical.
    """

    name = "base"
    synthesizes_time = False

    def plan_round(
        self,
        selected_ids: list[int],
        round_index: int,
        opened_at: int,
        server_rng: np.random.Generator,
    ) -> RoundPlan:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InstantArrivals(ArrivalProcess):
    """Rate-based dropout as a degenerate arrival process.

    Consumes ``server_rng`` exactly as the synchronous loop's
    ``simulate_participation`` did — one dropout draw per selected
    client, then one more per survivor, zero draws when the rate is zero
    — so federations configured through ``dropout_rate`` reproduce the
    seed's RNG stream bit-for-bit.  Completion ticks are synthesized one
    tick apart in selection order.
    """

    name = "instant"
    synthesizes_time = True

    def __init__(self, dropout_rate: float = 0.0) -> None:
        if not 0.0 <= dropout_rate <= 1.0:
            raise ValueError("dropout_rate must be in [0, 1]")
        self.dropout_rate = dropout_rate

    def plan_round(
        self,
        selected_ids: list[int],
        round_index: int,
        opened_at: int,
        server_rng: np.random.Generator,
    ) -> RoundPlan:
        if self.dropout_rate == 0.0:
            active, dropped = list(selected_ids), []
        else:
            active, dropped = [], []
            for client_id in selected_ids:
                if server_rng.random() < self.dropout_rate:
                    dropped.append(client_id)
                else:
                    # The retired straggler coin: stored cells were seeded
                    # with it in the stream, so it is still drawn.
                    server_rng.random()
                    active.append(client_id)
        return RoundPlan(
            client_ids=active,
            times=opened_at + 1 + np.arange(len(active)),
            unavailable=dropped,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dropout_rate={self.dropout_rate})"


class UniformArrivals(ArrivalProcess):
    """Round latency uniform on ``[low_s, high_s]`` simulated seconds."""

    name = "uniform"

    def __init__(
        self, low_s: float = 0.1, high_s: float = 1.0, seed: int = 0
    ) -> None:
        if not 0 < low_s <= high_s:
            raise ValueError("need 0 < low_s <= high_s")
        self.low_s = low_s
        self.high_s = high_s
        self.seed = seed

    def plan_round(
        self,
        selected_ids: list[int],
        round_index: int,
        opened_at: int,
        server_rng: np.random.Generator,
    ) -> RoundPlan:
        draw = keyed_uniforms(
            self.seed, "uniform-latency", selected_ids, round_index
        )[:, 0]
        latency = self.low_s + (self.high_s - self.low_s) * draw
        return RoundPlan(
            client_ids=selected_ids, times=opened_at + _delay_ticks(latency)
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(low_s={self.low_s}, high_s={self.high_s})"
        )


@dataclass(frozen=True)
class HardwareTier:
    """One device class of a heterogeneous fleet.

    ``compute_s`` is the mean local-training duration in simulated
    seconds, ``network_s`` the mean one-way upload latency, and
    ``failure_rate`` the per-round probability the device starts but
    never reports (battery died, app evicted).  ``weight`` is the tier's
    share of the fleet.
    """

    name: str
    compute_s: float
    network_s: float
    weight: float
    failure_rate: float = 0.0


#: Sigma of the lognormal factor on every tier's per-round compute time.
TIER_JITTER = 0.35

#: A cross-device census loosely following published FL system papers:
#: a fast minority, a broad middle, a long budget tail, and a sliver of
#: embedded devices an order of magnitude slower.
DEFAULT_TIERS: tuple[HardwareTier, ...] = (
    HardwareTier("flagship", compute_s=0.12, network_s=0.03, weight=0.15),
    HardwareTier("mid", compute_s=0.30, network_s=0.05, weight=0.55),
    HardwareTier(
        "budget", compute_s=0.90, network_s=0.10, failure_rate=0.02, weight=0.25
    ),
    HardwareTier(
        "iot", compute_s=2.50, network_s=0.20, failure_rate=0.05, weight=0.05
    ),
)


class TieredArrivals(ArrivalProcess):
    """Per-client latency/compute traces over heterogeneous hardware tiers.

    Every client runs on one of the :data:`DEFAULT_TIERS`.  A client's
    tier assignment is permanent (keyed by id alone); its per-round
    duration is ``(compute_s * lognormal(TIER_JITTER) + network_s *
    Exp(1))`` seconds, keyed by ``(client, round)``.  Tier failure draws
    decide who never completes.  All of it is deterministic per seed —
    nothing depends on the order clients were registered or scheduled.
    """

    name = "tiered"
    tiers = DEFAULT_TIERS

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        weights = np.asarray([tier.weight for tier in self.tiers])
        self._edges = np.cumsum(weights / weights.sum())[:-1]
        self._compute_s, self._network_s, self._failure_rate = (
            np.asarray([getattr(tier, name) for tier in self.tiers])
            for name in ("compute_s", "network_s", "failure_rate")
        )

    def tier_indices(self, client_ids) -> np.ndarray:
        """Each client's permanent tier, as an index into :attr:`tiers`.

        Keyed by id alone and drawn in proportion to the tier weights.
        """
        draw = keyed_uniforms(self.seed, "hardware-tier", client_ids)[:, 0]
        return np.searchsorted(self._edges, draw, side="right")

    def completion_delays(self, client_ids, round_index: int) -> np.ndarray:
        """Ticks from dispatch to completion per client in one round.

        ``0`` marks a device that fails mid-round; every completing
        device takes at least one tick.
        """
        tier = self.tier_indices(client_ids)
        draw = keyed_uniforms(
            self.seed, "tier-trace", client_ids, round_index, k=4
        )
        # Box–Muller: two uniforms give the lognormal's standard normal.
        normal = np.sqrt(-2.0 * np.log(draw[:, 1])) * np.cos(
            2.0 * np.pi * draw[:, 2]
        )
        compute = self._compute_s[tier] * np.exp(TIER_JITTER * normal)
        network = self._network_s[tier] * -np.log(draw[:, 3])
        delays = _delay_ticks(compute + network)
        return np.where(draw[:, 0] < self._failure_rate[tier], 0, delays)

    def plan_round(
        self,
        selected_ids: list[int],
        round_index: int,
        opened_at: int,
        server_rng: np.random.Generator,
    ) -> RoundPlan:
        ids = np.asarray(selected_ids, dtype=np.int64)
        delays = self.completion_delays(ids, round_index)
        starts = delays > 0
        return RoundPlan(
            client_ids=ids[starts],
            times=opened_at + delays[starts],
            unavailable=ids[~starts].tolist(),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"


# --------------------------------------------------------------------------
# Registry.
# --------------------------------------------------------------------------

ARRIVALS = Registry("arrival process")
ARRIVALS.register("instant", InstantArrivals)
ARRIVALS.register("uniform", UniformArrivals)
ARRIVALS.register("tiered", TieredArrivals)


def make_arrivals(
    spec: "str | ArrivalProcess", dropout_rate: float = 0.0, seed: int = 0
) -> ArrivalProcess:
    """Resolve an arrival process from a registry spec or an instance.

    ``"instant"`` is the rate-driven default.  The trace-driven processes
    refuse a nonzero ``dropout_rate``: under them dropout is an emergent
    timing outcome, and silently layering coin flips on top would make
    the scenario lie about its own semantics.  Knobs ride in the spec
    (``"uniform(low_s=0.2, high_s=0.5)"``); a process instance is already
    configured, so it refuses the rate knob.
    """
    if isinstance(spec, ArrivalProcess):
        if dropout_rate:
            raise ValueError(
                "cannot pass nonzero rate knobs with a process instance; "
                "configure the instance itself"
            )
        return spec
    process = ARRIVALS.build(spec, dropout_rate=dropout_rate, seed=seed)
    if dropout_rate and not isinstance(process, InstantArrivals):
        raise ValueError(
            f"arrival process {spec!r} derives dropout from timing traces; "
            "rate knobs must stay zero under it"
        )
    return process
