"""Event-driven round engine: virtual clock, completion timeline, cutoffs.

The synchronous seed drove every selected client inline from
``Server.run_round`` — fine at 10 clients, hopeless at fleet scale, and
structurally unable to express the timing phenomena cross-device attacks
assume (stragglers, heterogeneous hardware).  This module replaces that
loop with a small discrete-event simulation:

- :class:`VirtualClock` — deterministic integer-tick simulated time
  (microsecond resolution).  Nothing in :mod:`repro.fl` ever reads the
  wall clock (enforced by the ``no-sim-wallclock`` lint rule); all timing
  derives from this clock, so two runs of the same federation are
  tick-for-tick identical on any host.
- :class:`RoundPlan` — every completion tick of a round is known when the
  round is planned, so its timeline is one sort on ``(tick, client_id)``:
  a pure function of the plan's completions, never of the order clients
  were registered or listed.  Registering clients in a different order
  cannot reorder the simulation — the property the hypothesis suite pins.
- :class:`CountCutoff` / :class:`TimeCutoff` — round-close policies.  A
  count cutoff closes the round once every dispatched completion has
  landed (the degenerate case that reproduces the legacy synchronous loop
  byte-for-byte); a time cutoff closes at ``opened_at + duration`` and
  whatever lands later *is* a straggler.  The time cutoff is the only
  source of late arrivals: lateness is a timing outcome, never a coin
  flip.
- :class:`RoundEngine` — runs one round: dispatches the selected clients
  through an :class:`~repro.fl.arrivals.ArrivalProcess`, splits the
  sorted timeline at the cutoff, ingests each on-time update into the
  :class:`~repro.fl.aggregators.RoundBuffer` in arrival order, and
  classifies dropouts (never complete) and stragglers (complete after the
  cutoff) from the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

import repro.tensor.buffers as buffers
from repro.fl.aggregators import FlatSpec, RoundBuffer, flat_spec
from repro.fl.messages import GradientUpdate

#: Virtual-clock resolution: one tick is one simulated microsecond.
TICKS_PER_SECOND = 1_000_000


def ticks(seconds: float) -> int:
    """Convert simulated seconds to integer clock ticks (deterministic)."""
    return int(round(float(seconds) * TICKS_PER_SECOND))


class VirtualClock:
    """Deterministic simulated time, counted in integer ticks.

    Integer ticks (not floats) so event ordering never depends on
    floating-point rounding, and so two federations advancing through the
    same events read identical times on every platform.
    """

    def __init__(self, start: int = 0) -> None:
        self._now = int(start)

    @property
    def now(self) -> int:
        """The current simulated time in ticks."""
        return self._now

    def advance_to(self, tick: int) -> int:
        """Move time forward to ``tick``; moving backwards is a bug."""
        tick = int(tick)
        if tick < self._now:
            raise ValueError(
                f"virtual clock cannot run backwards ({tick} < {self._now})"
            )
        self._now = tick
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now})"


# --------------------------------------------------------------------------
# Round cutoffs.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CountCutoff:
    """Close the round once every dispatched completion has landed.

    With the instant arrival process this is exactly the legacy
    synchronous behaviour (wait for every survivor), which is why the
    count-cutoff engine reproduces the seed's round records byte-for-byte.
    """

    def close(self, times: np.ndarray, opened_at: int) -> tuple[int, int]:
        """Split completion-ordered ``times`` at the cutoff.

        Returns ``(on_time, closed_at)``: the first ``on_time``
        completions land before the round closes at tick ``closed_at``,
        the rest are late.  Here every completion is on time, and the
        round closes when the last one landed.
        """
        return len(times), int(times[-1]) if len(times) else opened_at


@dataclass(frozen=True)
class TimeCutoff:
    """Close the round ``duration`` ticks after it opens.

    Every completion landing at ``opened_at + duration`` or earlier is an
    on-time arrival; anything later is a straggler *by timing*, not by
    coin flip.  ``min_arrivals`` optionally keeps the round open past the
    deadline until that many updates have landed (a grace floor so a
    too-tight deadline degrades instead of producing empty rounds).
    """

    duration: int
    min_arrivals: int = 0

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("time cutoff duration must be >= 1 tick")
        if self.min_arrivals < 0:
            raise ValueError("min_arrivals must be non-negative")

    def close(self, times: np.ndarray, opened_at: int) -> tuple[int, int]:
        """Split completion-ordered ``times`` at the deadline.

        Returns ``(on_time, closed_at)`` like :meth:`CountCutoff.close`.
        A completion landing exactly at the deadline is on time.  When
        fewer than ``min_arrivals`` made it and more are still due, the
        round stays open until the ``min_arrivals``-th lands (or the last
        one, if fewer are due).
        """
        deadline = opened_at + self.duration
        on_time = int(np.searchsorted(times, deadline, side="right"))
        if on_time >= self.min_arrivals or on_time == len(times):
            return on_time, deadline
        on_time = min(self.min_arrivals, len(times))
        return on_time, int(times[on_time - 1])


def make_cutoff(
    round_duration_s: Optional[float] = None, min_arrivals: int = 0
) -> "CountCutoff | TimeCutoff":
    """Resolve the configured cutoff policy.

    A positive ``round_duration_s`` selects a :class:`TimeCutoff`;
    otherwise the legacy wait-for-everyone :class:`CountCutoff`.
    ``min_arrivals`` is the time cutoff's grace floor, so a nonzero one
    without a positive ``round_duration_s`` raises :class:`ValueError`.
    """
    if round_duration_s is not None and round_duration_s > 0:
        return TimeCutoff(ticks(round_duration_s), min_arrivals=min_arrivals)
    if min_arrivals:
        raise ValueError("min_arrivals needs a positive round_duration_s")
    return CountCutoff()


def release_gradients(update: GradientUpdate) -> None:
    """Drop ``update``'s gradients, first pooling them if it is ``poolable``.

    A poolable update's arrays are owned by nothing else, so they go back
    to the tensor buffer pool for the next client's backward pass.
    """
    if update.poolable:
        for array in update.gradients.values():
            buffers.release(array)
    update.gradients = None


# --------------------------------------------------------------------------
# Arrival plans (produced by repro.fl.arrivals, consumed by the engine).
# --------------------------------------------------------------------------


@dataclass
class RoundPlan:
    """An arrival process's timeline for one round.

    ``client_ids`` lists the dispatched clients that will eventually
    complete and ``times`` their completion ticks, aligned and in any
    order; ``unavailable`` the selected clients that never start (dropped
    at dispatch, failed mid-round) — the engine records them as dropped.
    """

    client_ids: np.ndarray
    times: np.ndarray
    unavailable: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.client_ids = np.asarray(self.client_ids, dtype=np.int64)
        self.times = np.asarray(self.times, dtype=np.int64)
        if self.client_ids.shape != self.times.shape:
            raise ValueError("every dispatched client needs one completion tick")

    def timeline(self) -> tuple[np.ndarray, np.ndarray]:
        """Dispatched ids and their ticks in completion order.

        One sort on ``(tick, client_id)``: ties at a tick break by client
        id, so the order is a pure function of the plan's completions.
        """
        order = np.lexsort((self.client_ids, self.times))
        return self.client_ids[order], self.times[order]


@dataclass
class RoundLedger:
    """Everything the engine observed while running one round's events.

    The packed rows are described column by column, in ``buffer`` row
    order (the on-time arrivals, then the round's stale rows):
    ``client_ids``, ``round_indices``, ``num_examples`` and ``losses``
    hold one entry per row, copied from each update as it is packed, so
    no per-arrival object outlives ingest.  ``late`` holds the updates
    that completed after the cutoff, gradients and all (computed so they
    can fold into the next round as stale arrivals; empty under
    commitment protocols, whose late uploads are undecryptable and
    discarded uncomputed).  ``buffer`` is ``None`` when the round packed
    no row; otherwise it is the engine's own buffer, valid until the
    engine runs its next round.  Its capacity is one row per selected
    client plus one per stale update, and its length the rows packed.
    """

    opened_at: int
    closed_at: int
    client_ids: list[int]
    round_indices: list[int]
    num_examples: list[int]
    losses: list[float]
    late: list[GradientUpdate]
    dropped_ids: list[int]
    straggler_ids: list[int]
    buffer: Optional[RoundBuffer]
    timing: Optional[dict] = None


class RoundEngine:
    """Drives one round's virtual-time timeline for the server.

    The server hands over the selected client ids, a ``compute`` callable
    (materialize the client, deliver the broadcast, collect its update —
    all protocol semantics stay server-side), and the round's bookkeeping
    knobs; the engine owns *time*: it builds the arrival plan, sorts its
    completions, ingests on-time updates into the round buffer in arrival
    order, and classifies dropout and straggling from the timeline.

    The engine also owns every packed gradient and the round matrix: one
    :class:`RoundBuffer`, re-armed each round that fits it and replaced
    only when a round needs more rows or a different ``dim``.
    """

    def __init__(self, clock: VirtualClock, arrivals, cutoff) -> None:
        self.clock = clock
        self.arrivals = arrivals
        self.cutoff = cutoff
        self._buffer: Optional[RoundBuffer] = None

    @property
    def records_timing(self) -> bool:
        """Whether round records should carry the timing annotation.

        The compat configuration (rank-synthesized arrival times closing
        on the count cutoff) records ``None`` so its round records are
        byte-identical to the pre-engine synchronous loop; any real
        arrival process or a time cutoff records the timeline.
        """
        synthetic = getattr(self.arrivals, "synthesizes_time", False)
        return not (synthetic and isinstance(self.cutoff, CountCutoff))

    def _round_buffer(self, capacity: int, spec: FlatSpec) -> RoundBuffer:
        """This round's buffer: the pooled one if the round fits it."""
        buffer = self._buffer
        if buffer is not None and buffer.fits(capacity, spec):
            buffer.rearm(capacity, spec)
        else:
            buffer = self._buffer = RoundBuffer(capacity, spec)
        return buffer

    def run_round(
        self,
        selected_ids: Sequence[int],
        round_index: int,
        server_rng,
        compute: Callable[[int], GradientUpdate],
        compute_late: bool = True,
        stale: Sequence[GradientUpdate] = (),
    ) -> RoundLedger:
        """Run one round's timeline and return the observed ledger.

        ``compute(client_id)`` is invoked in completion order — on-time
        arrivals first, late ones after (skipped entirely when
        ``compute_late`` is false, the commitment-protocol case).
        ``stale`` (the server's late updates from a previous round) pack
        after the on-time rows, even when nothing arrived on time.

        Right after an update's row is copied, ``update.gradients``
        becomes ``None`` (:func:`release_gradients`), its
        ``client_id``, ``round_index``, ``num_examples`` and ``loss`` are
        appended to the ledger's columns, and the engine lets go of it:
        a 10k-arrival round holds one matrix and four flat lists, not 10k
        updates.  Late updates keep their gradients until they fold in as
        stale.

        The ledger's ``buffer`` is the engine's own: it re-arms the
        previous round's matrix whenever this round's capacity (one row
        per selected client, plus one per stale update) fits it at the
        same ``dim``, so the buffer is valid only until the next
        ``run_round``.  Sizing by the cohort rather than by the plan's
        completions keeps a round with fewer unavailable clients than
        the last from re-allocating the matrix.  A round that packs no
        row leaves it untouched.
        """
        opened_at = self.clock.now
        plan = self.arrivals.plan_round(
            list(selected_ids), round_index, opened_at, server_rng
        )
        ids, times = plan.timeline()
        on_time, closed_at = self.cutoff.close(times, opened_at)
        ids, times = ids.tolist(), times.tolist()

        # Fresh rows as they are computed, then the stale ones.  Each
        # update leaves four scalars in the ledger's columns and is then
        # dropped, so nothing per arrival outlives the gen-0 collector.
        client_ids: list[int] = []
        round_indices: list[int] = []
        num_examples: list[int] = []
        losses: list[float] = []
        add_id, add_round = client_ids.append, round_indices.append
        add_examples, add_loss = num_examples.append, losses.append
        buffer: Optional[RoundBuffer] = None
        release = release_gradients
        for update in chain(map(compute, ids[:on_time]), stale):
            gradients = update.gradients
            if buffer is None:
                capacity = len(selected_ids) + len(stale)
                buffer = self._round_buffer(capacity, flat_spec(gradients))
                add = buffer.add
            add(gradients)
            release(update)
            add_id(update.client_id)
            add_round(update.round_index)
            add_examples(update.num_examples)
            add_loss(update.loss)
        straggler_ids = ids[on_time:]
        late = [compute(cid) for cid in straggler_ids] if compute_late else []

        closed_at = max(closed_at, opened_at)
        self.clock.advance_to(closed_at)
        timing = None
        if self.records_timing:
            timing = {
                "opened_at": opened_at,
                "closed_at": closed_at,
                "cutoff": (
                    "time" if isinstance(self.cutoff, TimeCutoff) else "count"
                ),
                "arrival_ids": ids[:on_time],
                "arrival_ticks": times[:on_time],
                "late_ids": straggler_ids,
                "late_ticks": times[on_time:],
                "unavailable": list(plan.unavailable),
            }
        return RoundLedger(
            opened_at=opened_at,
            closed_at=closed_at,
            client_ids=client_ids,
            round_indices=round_indices,
            num_examples=num_examples,
            losses=losses,
            late=late,
            dropped_ids=list(plan.unavailable),
            straggler_ids=straggler_ids,
            buffer=buffer,
            timing=timing,
        )
