"""Pluggable client arrival processes: who completes a round, and when.

An :class:`ArrivalProcess` turns the server's selected client set into a
:class:`~repro.fl.engine.RoundPlan` — per-client completion ticks on the
virtual clock, plus the clients that never start at all.  The engine
sorts those completions into time order; the round cutoff then *derives*
dropout and straggling from the timeline instead of drawing them from
rates.

Three processes ship with the engine:

- :class:`InstantArrivals` — the compatibility layer.  Reproduces the
  legacy rate-based scenario semantics exactly: it consumes the server's
  RNG with the same dropout/straggler coin flips the synchronous loop
  drew, then synthesizes one-tick-apart completion times that replay the
  legacy arrival order (survivors in selection order, then stragglers).
  Under the default count cutoff this makes the event engine
  byte-identical to the pre-engine loop.
- :class:`UniformArrivals` — every client's round latency is uniform on
  ``[low_s, high_s]`` simulated seconds, keyed by ``(seed, client_id,
  round)``.  The minimal genuinely-timed process; with a time cutoff,
  stragglers emerge wherever the draw lands past the deadline.
- :class:`TieredArrivals` — per-client latency/compute traces.  Each
  client is pinned to a :class:`HardwareTier` (flagship/mid/budget/IoT by
  fleet share), draws per-round compute time around the tier's mean with
  lognormal jitter plus network latency, can fail mid-round with the
  tier's failure rate, and — when a :class:`DiurnalCycle` is attached —
  is simply offline for part of every simulated day.

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
from typing import Optional, Sequence

import numpy as np

from repro.fl.engine import TICKS_PER_SECOND, RoundPlan, ticks
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
    """Legacy rate-based participation as a degenerate arrival process.

    Consumes ``server_rng`` exactly as the synchronous loop's
    ``simulate_participation`` did — one dropout draw per selected
    client, one straggler draw per survivor, zero draws when both rates
    are zero — so federations configured through the rate knobs reproduce
    the seed's RNG stream bit-for-bit.  Completion ticks are synthesized
    one tick apart in the legacy computation order: survivors first (in
    selection order), stragglers after every survivor.
    """

    name = "instant"
    synthesizes_time = True

    def __init__(
        self, dropout_rate: float = 0.0, straggler_rate: float = 0.0
    ) -> None:
        for rate, label in (
            (dropout_rate, "dropout_rate"),
            (straggler_rate, "straggler_rate"),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        self.dropout_rate = dropout_rate
        self.straggler_rate = straggler_rate

    def plan_round(
        self,
        selected_ids: list[int],
        round_index: int,
        opened_at: int,
        server_rng: np.random.Generator,
    ) -> RoundPlan:
        if self.dropout_rate == 0.0 and self.straggler_rate == 0.0:
            active = list(selected_ids)
            dropped: list[int] = []
            stragglers: list[int] = []
        else:
            active, dropped, stragglers = [], [], []
            for client_id in selected_ids:
                if server_rng.random() < self.dropout_rate:
                    dropped.append(client_id)
                elif server_rng.random() < self.straggler_rate:
                    stragglers.append(client_id)
                else:
                    active.append(client_id)
        scheduled = active + stragglers
        return RoundPlan(
            client_ids=scheduled,
            times=opened_at + 1 + np.arange(len(scheduled)),
            unavailable=dropped,
            expected_fresh=len(active),
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dropout_rate={self.dropout_rate}, "
            f"straggler_rate={self.straggler_rate})"
        )


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
    seconds, ``jitter`` the sigma of the lognormal factor applied per
    round, ``network_s`` the mean one-way upload latency, and
    ``failure_rate`` the per-round probability the device starts but
    never reports (battery died, app evicted).  ``weight`` is the tier's
    share of the fleet.
    """

    name: str
    compute_s: float
    network_s: float = 0.05
    jitter: float = 0.35
    failure_rate: float = 0.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.compute_s <= 0 or self.network_s < 0:
            raise ValueError("tier durations must be positive")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if self.weight <= 0:
            raise ValueError("tier weight must be positive")


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


@dataclass(frozen=True)
class DiurnalCycle:
    """Availability window repeating every ``period_s`` simulated seconds.

    Each client's phase offset within the cycle is keyed by its id, so at
    any instant roughly ``duty_cycle`` of the fleet is reachable and the
    reachable set rotates as virtual time advances — the compressed-day
    model of devices that are only eligible while idle and charging.
    """

    period_s: float = 60.0
    duty_cycle: float = 0.5

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in (0, 1]")

    def available(self, client_ids, tick: int, seed: int) -> np.ndarray:
        """Which of ``client_ids`` are inside their window at ``tick``."""
        period = ticks(self.period_s)
        window = int(round(period * self.duty_cycle))
        phase = keyed_uniforms(seed, "diurnal-phase", client_ids)[:, 0]
        return (tick + (phase * period).astype(np.int64)) % period < window


class TieredArrivals(ArrivalProcess):
    """Per-client latency/compute traces over heterogeneous hardware tiers.

    A client's tier assignment is permanent (keyed by id alone); its
    per-round duration is ``(compute_s * lognormal(jitter) + network_s *
    Exp(1))`` seconds, keyed by ``(client, round)``.  Tier failure draws
    and the optional :class:`DiurnalCycle` availability check decide who
    never completes.  All of it is deterministic per configuration —
    nothing depends on the order clients were registered or scheduled.
    """

    name = "tiered"

    def __init__(
        self,
        tiers: Sequence[HardwareTier] = DEFAULT_TIERS,
        seed: int = 0,
        diurnal: Optional[DiurnalCycle] = None,
    ) -> None:
        if not tiers:
            raise ValueError("need at least one hardware tier")
        self.tiers = tuple(tiers)
        self.seed = seed
        self.diurnal = diurnal
        weights = np.asarray([tier.weight for tier in self.tiers])
        self._edges = np.cumsum(weights / weights.sum())[:-1]
        self._compute_s, self._network_s, self._jitter, self._failure_rate = (
            np.asarray([getattr(tier, name) for tier in self.tiers])
            for name in ("compute_s", "network_s", "jitter", "failure_rate")
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
        compute = self._compute_s[tier] * np.exp(self._jitter[tier] * normal)
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
        if self.diurnal is not None:
            starts &= self.diurnal.available(ids, opened_at, self.seed)
        return RoundPlan(
            client_ids=ids[starts],
            times=opened_at + delays[starts],
            unavailable=ids[~starts].tolist(),
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(tiers={[t.name for t in self.tiers]}, "
            f"diurnal={self.diurnal})"
        )


# --------------------------------------------------------------------------
# Registry.
# --------------------------------------------------------------------------

def _tiered_diurnal(
    tiers: Sequence[HardwareTier] = DEFAULT_TIERS,
    seed: int = 0,
    diurnal: Optional[DiurnalCycle] = DiurnalCycle(),
) -> TieredArrivals:
    """Tiered arrivals with the default day/night availability cycle."""
    return TieredArrivals(tiers, seed=seed, diurnal=diurnal)


ARRIVALS = Registry("arrival process")
ARRIVALS.register("instant", InstantArrivals)
ARRIVALS.register("uniform", UniformArrivals)
ARRIVALS.register("tiered", TieredArrivals)
ARRIVALS.register("tiered-diurnal", _tiered_diurnal)


def make_arrivals(
    spec: "str | ArrivalProcess | None",
    dropout_rate: float = 0.0,
    straggler_rate: float = 0.0,
    seed: int = 0,
) -> ArrivalProcess:
    """Resolve an arrival process from a name, instance, or ``None``.

    ``None`` (and ``"instant"``) selects the legacy-compatible process
    driven by the rate knobs.  The trace-driven processes refuse nonzero
    dropout/straggler rates: under them those phenomena are emergent
    timing outcomes, and silently layering coin flips on top would make
    the scenario lie about its own semantics.  Knobs ride in the spec
    (``"uniform(low_s=0.2, high_s=0.5)"``); a process instance is already
    configured, so it refuses the rate knobs.
    """
    if isinstance(spec, ArrivalProcess):
        if dropout_rate or straggler_rate:
            raise ValueError(
                "cannot pass nonzero rate knobs with a process instance; "
                "configure the instance itself"
            )
        return spec
    process = ARRIVALS.build(
        "instant" if spec is None else spec,
        dropout_rate=dropout_rate,
        straggler_rate=straggler_rate,
        seed=seed,
    )
    if (dropout_rate or straggler_rate) and not isinstance(process, InstantArrivals):
        raise ValueError(
            f"arrival process {spec!r} derives dropout and straggling from "
            "timing traces; rate knobs must stay zero under it"
        )
    return process
