"""Event-engine tests: legacy byte-identity, clock/timeline determinism, cutoffs.

The load-bearing suite here is :class:`TestLegacyByteIdentity`: a verbatim
copy of the pre-engine synchronous ``run_round`` loop (as
:class:`LegacyRoundMixin`) runs side by side with the event engine's
degenerate count-cutoff configuration, and every ``RoundRecord`` field,
every aggregate, and the final model state must match exactly — the
acceptance criterion that lets the engine replace the loop without
invalidating a single golden value.
"""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest

import repro.tensor.buffers as tensor_buffers
from repro.data import make_synthetic_dataset
from repro.defense.base import ClientDefense
from repro.fl import (
    AGGREGATORS,
    Client,
    DishonestServer,
    FederationConfig,
    Fleet,
    GradientUpdate,
    RoundBuffer,
    Server,
    partition_dataset,
)
from repro.fl.engine import (
    CountCutoff,
    RoundEngine,
    RoundPlan,
    TimeCutoff,
    VirtualClock,
    make_cutoff,
    ticks,
)
from repro.fl.arrivals import (
    InstantArrivals,
    TieredArrivals,
    UniformArrivals,
    make_arrivals,
)
from repro.fl.messages import ModelBroadcast
from repro.fl.secagg.base import BelowThresholdError
from repro.nn import MLP, CrossEntropyLoss
from repro.nn.module import Module

DIM = 4


class StubClient:
    """Deterministic fake client: every gradient entry equals its id."""

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id

    def local_update(self, broadcast) -> GradientUpdate:
        return GradientUpdate(
            client_id=self.client_id,
            round_index=broadcast.round_index,
            num_examples=1,
            gradients={"w": np.full(DIM, float(self.client_id))},
            loss=float(self.client_id),
        )


class LegacyRoundMixin:
    """The pre-engine synchronous round loop, verbatim.

    Drives every selected client inline in selection order, draws
    dropout/straggler coin flips from the server RNG itself, and builds
    the round buffer only after all updates exist — the exact code the
    event engine replaced, kept here as the byte-identity reference.
    The server has no straggler rate any more; the loop still draws its
    coin at the one rate every stored scenario used.
    """

    straggler_rate = 0.0

    def _legacy_select_clients(self):
        indices = self._rng.choice(
            len(self.fleet), size=self.clients_per_round, replace=False
        )
        return [self.fleet.get(int(i)) for i in indices]

    def _legacy_simulate_participation(self, participants):
        if self.dropout_rate == 0.0 and self.straggler_rate == 0.0:
            return list(participants), [], []
        active, dropped, stragglers = [], [], []
        for client in participants:
            if self._rng.random() < self.dropout_rate:
                dropped.append(client)
            elif self._rng.random() < self.straggler_rate:
                stragglers.append(client)
            else:
                active.append(client)
        return active, dropped, stragglers

    def run_round(self):
        from repro.fl.messages import RoundRecord

        protocol_mode = getattr(self.aggregator, "requires_commitment", False)
        broadcast = self.prepare_broadcast()
        selected = self._legacy_select_clients()
        active, dropped, stragglers = self._legacy_simulate_participation(
            selected
        )
        updates = [
            client.local_update(self.broadcast_to(client, broadcast))
            for client in active
        ]
        late = (
            []
            if protocol_mode
            else [
                client.local_update(self.broadcast_to(client, broadcast))
                for client in stragglers
            ]
        )
        stale = self._stale_updates if self.accept_stale else []
        self._stale_updates = late
        attack_events = (
            []
            if protocol_mode
            else self.inspect_updates(
                updates + stale, [u.gradients for u in updates + stale]
            )
        )
        arrivals = updates + stale
        secagg_meta = None
        weights = (
            [u.num_examples for u in arrivals]
            if (self.weight_by_examples and arrivals)
            else None
        )
        aggregated = None
        if arrivals:
            buffer = RoundBuffer.for_updates([u.gradients for u in arrivals])
            if protocol_mode:
                try:
                    aggregated = self.aggregator.aggregate(
                        buffer,
                        ids=[u.client_id for u in arrivals],
                        committed_ids=[c.client_id for c in selected],
                        round_index=self.round_index,
                        weights=weights,
                    )
                    secagg_meta = dict(self.aggregator.last_metadata)
                except BelowThresholdError as error:
                    secagg_meta = {
                        "protocol": self.aggregator.name,
                        "aborted": True,
                        "survivors": error.survivors,
                        "threshold": error.threshold,
                    }
                    arrivals = []
            else:
                aggregated = self.aggregator.aggregate(
                    buffer, weights, round_index=self.round_index
                )
        if aggregated is not None:
            self.apply_aggregate(aggregated)
            self.last_aggregate = aggregated
            attack_events = attack_events + self.inspect_aggregate(aggregated)
        else:
            self.last_aggregate = None
        record = RoundRecord(
            round_index=self.round_index,
            participant_ids=[u.client_id for u in arrivals],
            mean_loss=(
                float(np.mean([u.loss for u in arrivals]))
                if arrivals
                else float("nan")
            ),
            attack_events=attack_events,
            selected_ids=[c.client_id for c in selected],
            dropped_ids=[c.client_id for c in dropped],
            straggler_ids=[c.client_id for c in stragglers],
            stale_ids=[u.client_id for u in stale],
            aggregator=self.aggregator.name,
            weighting=self.aggregator.effective_weighting(weights),
            secagg=secagg_meta,
        )
        self.history.append(record)
        self.round_index += 1
        return record


class LegacyServer(LegacyRoundMixin, Server):
    pass


class LegacyDishonestServer(LegacyRoundMixin, DishonestServer):
    pass


# Late arrivals through the real timeline: latencies uniform on 0.1-1.0 s
# against a 0.6 s deadline leave about four clients in ten late.
LATE_ARRIVALS = dict(
    arrivals="uniform(low_s=0.1, high_s=1.0)",
    cutoff=TimeCutoff(ticks(0.6), min_arrivals=1),
)


def assert_records_identical(engine_records, legacy_records):
    """Field-for-field RoundRecord equality (nan-aware on mean_loss)."""
    assert len(engine_records) == len(legacy_records)
    for ours, reference in zip(engine_records, legacy_records):
        ours = dataclasses.asdict(ours)
        reference = dataclasses.asdict(reference)
        ours_loss = ours.pop("mean_loss")
        reference_loss = reference.pop("mean_loss")
        if np.isnan(reference_loss):
            assert np.isnan(ours_loss)
        else:
            assert ours_loss == reference_loss
        assert ours == reference


# Every rate-based participation regime the server supports.
IDENTITY_SCENARIOS = [
    dict(),
    dict(clients_per_round=5),
    dict(dropout_rate=0.3),
    dict(dropout_rate=0.4),
    dict(dropout_rate=0.2),
    dict(dropout_rate=0.2, accept_stale=True),
    dict(dropout_rate=1.0),
    dict(accept_stale=True),
    dict(clients_per_round=6, dropout_rate=0.25, aggregator="median"),
    dict(weight_by_examples=True),
    dict(aggregator="masked_sum", dropout_rate=0.25),
]


class TestLegacyByteIdentity:
    @pytest.mark.parametrize("kwargs", IDENTITY_SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_records_match_legacy_loop(self, kwargs, seed):
        engine = Server(
            Module(), Fleet(10, StubClient), seed=seed, **kwargs
        )
        legacy = LegacyServer(
            Module(), Fleet(10, StubClient), seed=seed, **kwargs
        )
        assert_records_identical(engine.run(6), legacy.run(6))
        if engine.last_aggregate is None:
            assert legacy.last_aggregate is None
        else:
            np.testing.assert_array_equal(
                engine.last_aggregate["w"], legacy.last_aggregate["w"]
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(aggregator="secagg"),
            dict(aggregator="secagg", dropout_rate=0.25),
            dict(aggregator="secagg_oneshot", dropout_rate=0.25),
            dict(aggregator="secagg", dropout_rate=0.6),  # abort regime
        ],
    )
    def test_secagg_commit_then_drop_matches_legacy(self, kwargs):
        engine = Server(
            Module(), Fleet(8, StubClient), seed=7, **kwargs
        )
        legacy = LegacyServer(
            Module(), Fleet(8, StubClient), seed=7, **kwargs
        )
        assert_records_identical(engine.run(4), legacy.run(4))

    def test_dishonest_server_matches_legacy(self):
        class RecordingAttack:
            name = "recording"

            def craft(self, model):
                pass

            def reconstruct(self, gradients):
                # The reconstruction payload is the gradient itself, so a
                # compute-order difference would change stored results.
                return [gradients["w"].copy()]

        engine = DishonestServer(
            Module(),
            Fleet(12, StubClient),
            RecordingAttack(),
            dropout_rate=0.2,
            accept_stale=True,
            seed=11,
        )
        legacy = LegacyDishonestServer(
            Module(),
            Fleet(12, StubClient),
            RecordingAttack(),
            dropout_rate=0.2,
            accept_stale=True,
            seed=11,
        )
        assert_records_identical(engine.run(5), legacy.run(5))
        assert engine.reconstructions.keys() == legacy.reconstructions.keys()
        for key, results in engine.reconstructions.items():
            for ours, reference in zip(results, legacy.reconstructions[key]):
                np.testing.assert_array_equal(ours, reference)

    def test_compat_records_carry_no_timing(self):
        server = Server(Module(), Fleet(4, StubClient), seed=0)
        assert server.run_round().timing is None

    def test_engine_rounds_are_deterministic(self):
        def run():
            server = Server(
                Module(),
                Fleet(10, StubClient),
                accept_stale=True,
                seed=5,
                **LATE_ARRIVALS,
            )
            return server.run(5)

        records = run()
        assert any(record.stale_ids for record in records)
        assert_records_identical(records, run())


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now == 0
        clock.advance_to(ticks(1.5))
        assert clock.now == 1_500_000

    def test_never_runs_backwards(self):
        clock = VirtualClock(start=10)
        with pytest.raises(ValueError):
            clock.advance_to(9)


class TestRoundTimeline:
    def test_completion_order_is_tick_then_client_id(self):
        plan = RoundPlan(client_ids=[2, 1, 9, 4], times=[5, 5, 3, 7])
        ids, times = plan.timeline()
        assert ids.tolist() == [9, 1, 2, 4]
        assert times.tolist() == [3, 5, 5, 7]

    def test_completions_at_the_deadline_are_on_time(self):
        on_time, closed_at = TimeCutoff(5).close(np.array([3, 5, 5, 6]), 0)
        assert (on_time, closed_at) == (3, 5)

    def test_misaligned_plan_rejected(self):
        with pytest.raises(ValueError):
            RoundPlan(client_ids=[1, 2], times=[3])


class TestCutoffs:
    def test_make_cutoff_resolves_policies(self):
        assert make_cutoff() == CountCutoff()
        timed = make_cutoff(round_duration_s=0.5, min_arrivals=2)
        assert timed == TimeCutoff(ticks(0.5), min_arrivals=2)

    def test_min_arrivals_needs_a_round_duration(self):
        for duration in (None, 0.0):
            with pytest.raises(ValueError, match="min_arrivals"):
                make_cutoff(round_duration_s=duration, min_arrivals=5)
        with pytest.raises(ValueError, match="min_arrivals"):
            FederationConfig(min_arrivals=5).make_cutoff()

    def test_invalid_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            TimeCutoff(0)
        with pytest.raises(ValueError):
            TimeCutoff(10, min_arrivals=-1)

    def test_time_cutoff_produces_emergent_stragglers(self):
        server = Server(
            Module(),
            Fleet(8, StubClient),
            arrivals="uniform(low_s=0.1, high_s=1.0)",
            cutoff=TimeCutoff(ticks(0.5)),
            seed=2,
        )
        records = server.run(4)
        assert any(r.straggler_ids for r in records), (
            "a 0.5s cutoff over 0.1-1.0s latencies must strand someone"
        )
        for record in records:
            assert record.timing is not None
            assert record.timing["cutoff"] == "time"
            timing = record.timing
            deadline = timing["opened_at"] + ticks(0.5)
            assert timing["arrival_ids"] == record.participant_ids
            assert timing["late_ids"] == record.straggler_ids
            assert len(timing["arrival_ticks"]) == len(timing["arrival_ids"])
            assert len(timing["late_ticks"]) == len(timing["late_ids"])
            assert all(tick <= deadline for tick in timing["arrival_ticks"])
            assert all(tick > deadline for tick in timing["late_ticks"])
            assert timing["arrival_ticks"] == sorted(timing["arrival_ticks"])

    def test_time_cutoff_min_arrivals_floor(self):
        # Deadline far below every possible latency: the grace floor must
        # hold the round open until one update lands.
        server = Server(
            Module(),
            Fleet(6, StubClient),
            arrivals="uniform(low_s=1.0, high_s=2.0)",
            cutoff=TimeCutoff(ticks(0.01), min_arrivals=1),
            seed=0,
        )
        record = server.run_round()
        assert len(record.participant_ids) == 1
        assert len(record.straggler_ids) == 5

    def test_virtual_clock_advances_across_rounds(self):
        server = Server(
            Module(),
            Fleet(4, StubClient),
            arrivals="uniform",
            cutoff=TimeCutoff(ticks(0.5), min_arrivals=1),
            seed=0,
        )
        opened = []
        for _ in range(3):
            record = server.run_round()
            opened.append(record.timing["opened_at"])
        assert opened == sorted(opened)
        assert server.clock.now >= opened[-1]


class TestArrivalProcesses:
    def test_instant_reproduces_rate_draws(self):
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        process = InstantArrivals(dropout_rate=0.3)
        plan = process.plan_round(list(range(32)), 0, 0, rng_a)
        # Reference: the legacy per-client coin flips, at straggler rate 0.
        active, dropped = [], []
        for client_id in range(32):
            if rng_b.random() < 0.3:
                dropped.append(client_id)
            else:
                rng_b.random()  # the straggler coin, never below 0.0
                active.append(client_id)
        assert plan.unavailable == dropped
        assert plan.client_ids.tolist() == active
        times = plan.times.tolist()
        assert times == sorted(times) and len(set(times)) == len(times)

    @pytest.mark.parametrize("dropout_rate", [0.25, 0.6, 1.0])
    def test_instant_draws_once_more_per_survivor(self, dropout_rate):
        # The retired straggler coin is still drawn once per survivor:
        # stored cells were seeded with it, so dropping it moves them.
        selected = list(range(40))
        rng = np.random.default_rng(7)
        plan = InstantArrivals(dropout_rate).plan_round(selected, 0, 0, rng)
        reference = np.random.default_rng(7)
        for _ in range(len(selected) + len(plan.client_ids)):
            reference.random()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_instant_zero_rates_draws_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        InstantArrivals().plan_round(list(range(8)), 0, 0, rng)
        assert rng.bit_generator.state == before

    def test_trace_processes_reject_rate_knobs(self):
        with pytest.raises(ValueError, match="rate knobs"):
            make_arrivals("tiered", dropout_rate=0.1)
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_arrivals("bursty")

    @pytest.mark.parametrize(
        "process", [UniformArrivals(), InstantArrivals()], ids=["uniform", "instant"]
    )
    def test_instances_reject_rate_knobs(self, process):
        # An instance used to come back with the rate silently dropped.
        with pytest.raises(ValueError, match="rate knobs"):
            make_arrivals(process, dropout_rate=0.3)
        with pytest.raises(ValueError, match="rate knobs"):
            Server(Module(), Fleet(4, StubClient), arrivals=process, dropout_rate=0.3)
        assert make_arrivals(process) is process

    def test_uniform_latency_is_order_invariant(self):
        process = UniformArrivals(seed=9)
        rng = np.random.default_rng(0)
        forward = process.plan_round([1, 2, 3, 4], 5, 100, rng)
        backward = process.plan_round([4, 3, 2, 1], 5, 100, rng)
        assert dict(zip(forward.client_ids.tolist(), forward.times.tolist())) == (
            dict(zip(backward.client_ids.tolist(), backward.times.tolist()))
        )

    def test_tiered_assignment_is_stable_and_weighted(self):
        process = TieredArrivals(seed=0)
        tiers = process.tier_indices(np.arange(2000))
        np.testing.assert_array_equal(tiers, process.tier_indices(np.arange(2000)))
        counts = np.bincount(tiers, minlength=len(process.tiers))
        # The mid tier holds 55% of the fleet; it must dominate.
        assert process.tiers[int(np.argmax(counts))].name == "mid"
        assert (counts > 0).all()

    def test_tiered_slow_tiers_straggle(self):
        process = TieredArrivals(seed=3)
        ids = np.arange(500)
        delays = process.completion_delays(ids, 0)
        names = np.array([t.name for t in process.tiers])[process.tier_indices(ids)]
        iot = delays[(delays > 0) & (names == "iot")]
        flagship = delays[(delays > 0) & (names == "flagship")]
        assert iot.mean() > flagship.mean()


# --------------------------------------------------------------------------
# The engine-owned round matrix and the ingest path.
# --------------------------------------------------------------------------


class FreshBufferServer(Server):
    """Allocates a new round matrix every round: the pooling reference."""

    def run_round(self):
        self.engine._buffer = None
        return super().run_round()


class ScriptedArrivals:
    """Hands the engine a fixed sequence of round plans."""

    synthesizes_time = False

    def __init__(self, plans) -> None:
        self._plans = iter(plans)

    def plan_round(self, selected_ids, round_index, opened_at, rng):
        return next(self._plans)


def _stub_compute(client_id: int) -> GradientUpdate:
    return StubClient(client_id).local_update(ModelBroadcast(0, {}))


def _run_cohorts(server_class, kwargs, cohorts) -> dict:
    """Run one round per entry of ``cohorts`` (``None`` keeps the size)."""
    server = server_class(
        Module(), Fleet(40, StubClient), seed=9, **kwargs
    )
    records, aggregates, buffers = [], [], []
    for cohort in cohorts:
        if cohort is not None:
            server.clients_per_round = cohort
        records.append(server.run_round())
        aggregate = server.last_aggregate
        aggregates.append(None if aggregate is None else aggregate["w"].tobytes())
        buffers.append((server.engine._buffer._matrix, server.engine._buffer.capacity))
    return {"records": records, "aggregates": aggregates, "buffers": buffers}


POOLING_SCENARIOS = {
    "tiered-stragglers": dict(
        clients_per_round=12,
        arrivals="tiered",
        cutoff=TimeCutoff(ticks(1.0), min_arrivals=1),
    ),
    "tiered-stale": dict(
        clients_per_round=12,
        arrivals="tiered",
        cutoff=TimeCutoff(ticks(1.0), min_arrivals=1),
        accept_stale=True,
    ),
    "uniform-stale": dict(
        clients_per_round=8, accept_stale=True, **LATE_ARRIVALS
    ),
}


class TestPooledRoundBuffer:
    @pytest.mark.parametrize(
        "kwargs", POOLING_SCENARIOS.values(), ids=POOLING_SCENARIOS
    )
    def test_pooled_rounds_match_fresh_buffers(self, kwargs):
        # The cohort grows in round 3, past what the pooled matrix holds,
        # then shrinks back into the larger matrix.
        cohorts = [None, None, None, 20, kwargs["clients_per_round"], None]
        pooled = _run_cohorts(Server, kwargs, cohorts)
        fresh = _run_cohorts(FreshBufferServer, kwargs, cohorts)
        assert_records_identical(pooled["records"], fresh["records"])
        for ours, reference in zip(pooled["aggregates"], fresh["aggregates"]):
            assert ours == reference
        reused = grown = 0
        for previous, (matrix, capacity) in zip(
            pooled["buffers"], pooled["buffers"][1:]
        ):
            if matrix is previous[0]:
                reused += 1
            else:
                # A new matrix only when the round outgrew the pooled one.
                assert capacity > len(previous[0])
                grown += 1
        assert reused and grown
        if "arrivals" in kwargs:
            assert any(r.straggler_ids for r in pooled["records"])
        if kwargs.get("accept_stale"):
            assert any(r.stale_ids for r in pooled["records"])

    @pytest.mark.parametrize("name", AGGREGATORS.names())
    def test_aggregates_never_view_the_round_matrix(self, name):
        server = Server(
            Module(), Fleet(6, StubClient), aggregator=name, seed=0
        )
        for cohort in (5, 1):
            server.clients_per_round = cohort
            server.run_round()
            matrix = server.engine._buffer._matrix
            assert server.last_aggregate is not None
            for value in server.last_aggregate.values():
                assert not np.shares_memory(value, matrix)

    def test_empty_round_leaves_the_pooled_matrix_untouched(self):
        engine = RoundEngine(
            VirtualClock(),
            ScriptedArrivals([
                RoundPlan([3, 1, 2], [30, 10, 20]),
                RoundPlan([], [], unavailable=[4, 5]),
                RoundPlan([6, 7], [40, 50]),
            ]),
            CountCutoff(),
        )
        first = engine.run_round([1, 2, 3], 0, None, _stub_compute)
        pooled = first.buffer
        snapshot = pooled.matrix.copy()
        empty = engine.run_round([4, 5], 1, None, _stub_compute)
        assert empty.buffer is None and empty.client_ids == []
        assert engine._buffer is pooled and len(pooled) == 3
        np.testing.assert_array_equal(pooled.matrix, snapshot)
        third = engine.run_round([6, 7], 2, None, _stub_compute)
        assert third.buffer is pooled
        np.testing.assert_array_equal(pooled.matrix[:, 0], [6.0, 7.0])

    def test_round_with_more_completions_reuses_the_matrix(self):
        # The matrix is sized by the selected cohort, not by the round's
        # completions, so a round where fewer of the same cohort were
        # unavailable still fits the previous round's matrix.
        engine = RoundEngine(
            VirtualClock(),
            ScriptedArrivals([
                RoundPlan([2, 1], [20, 10], unavailable=[3, 4]),
                RoundPlan([1, 2, 3, 4], [30, 40, 50, 60]),
            ]),
            CountCutoff(),
        )
        first = engine.run_round([1, 2, 3, 4], 0, None, _stub_compute)
        matrix = first.buffer._matrix
        assert len(first.buffer) == 2 and first.buffer.capacity == 4
        second = engine.run_round([1, 2, 3, 4], 1, None, _stub_compute)
        assert second.buffer is first.buffer
        assert second.buffer._matrix is matrix
        np.testing.assert_array_equal(second.buffer.matrix[:, 0], [1.0, 2.0, 3.0, 4.0])

    def test_rearmed_buffer_keeps_its_checks(self):
        buffer = RoundBuffer(4, [("w", (DIM,), DIM)])
        buffer.rearm(2, [("v", (2, 2), DIM)])
        assert buffer.capacity == 2 and buffer.spec == [("v", (2, 2), DIM)]
        with pytest.raises(KeyError, match="mismatched"):
            buffer.add({"w": np.zeros(DIM)})
        buffer.add({"v": np.ones((2, 2))})
        buffer.add({"v": np.ones((2, 2))})
        with pytest.raises(ValueError, match="full"):
            buffer.add({"v": np.ones((2, 2))})
        assert not buffer.fits(5, buffer.spec)
        assert not buffer.fits(2, [("w", (DIM + 1,), DIM + 1)])
        with pytest.raises(ValueError, match="does not fit"):
            buffer.rearm(5, buffer.spec)

    def test_packed_updates_drop_their_gradients(self):
        engine = RoundEngine(
            VirtualClock(),
            ScriptedArrivals([RoundPlan([0, 1, 2, 3], [10, 20, 30, 90])]),
            TimeCutoff(50),
        )
        computed = []

        def compute(client_id):
            computed.append(_stub_compute(client_id))
            return computed[-1]

        stale = [_stub_compute(9)]
        ledger = engine.run_round([0, 1, 2, 3], 0, None, compute, stale=stale)
        # The ledger keeps columns in row order (fresh, then stale), not
        # the packed updates, whose gradients are gone.
        assert ledger.client_ids == [0, 1, 2, 9]
        assert ledger.round_indices == [0, 0, 0, 0]
        assert ledger.num_examples == [1, 1, 1, 1]
        assert ledger.losses == [0.0, 1.0, 2.0, 9.0]
        for update in computed[:3] + stale:
            assert update.gradients is None
        # Late updates keep their gradients: they may fold in as stale rows.
        assert ledger.late == computed[3:]
        assert list(ledger.late[0].gradients) == ["w"]
        assert not hasattr(ledger.late[0], "__dict__")
        assert not any(
            isinstance(value, GradientUpdate)
            for value in vars(ledger).values()
        )

    def test_stale_only_round_packs_into_the_pooled_buffer(self):
        server = _training_server(num_clients=2, accept_stale=True)
        server.engine.arrivals = ScriptedArrivals([
            RoundPlan([0, 1], [10, 20]),
            RoundPlan([0, 1], [30, 40]),
            RoundPlan([], [], unavailable=[0, 1]),
        ])
        # Each of the first two rounds has one completion past its deadline.
        server.engine.cutoff = TimeCutoff(15)
        server.run(2)
        pooled = server.engine._buffer
        (stale,) = server._stale_updates
        expected = {name: array.copy() for name, array in stale.gradients.items()}
        misses = tensor_buffers.stats()["misses"]
        record = server.run_round()
        assert record.participant_ids == record.stale_ids == [stale.client_id]
        for name, array in expected.items():
            assert server.last_aggregate[name].tobytes() == array.tobytes()
        # The stale row went into the engine's own re-armed buffer.
        assert server.engine._buffer is pooled and len(pooled) == 1
        np.testing.assert_array_equal(
            pooled.matrix[0],
            np.concatenate([array.ravel() for array in expected.values()]),
        )
        assert tensor_buffers.stats()["misses"] == misses
        assert stale.gradients is None


# --------------------------------------------------------------------------
# Packed gradient arrays go back to the tensor buffer pool.
# --------------------------------------------------------------------------


class KeepingDefense(ClientDefense):
    """Keeps what its gradient hook returns: the whole dict, or one array."""

    name = "keeping"

    def __init__(self, keep_dict: bool) -> None:
        self.keep_dict = keep_dict
        self.kept: list = []

    def process_gradients(self, gradients, rng):
        self.kept.append(gradients if self.keep_dict else gradients["body.0.weight"])
        return gradients


def _training_server(defense=None, num_clients=2, **kwargs) -> Server:
    """A server over real clients training one shared scratch MLP."""
    dataset = make_synthetic_dataset(4, 12, image_size=8, seed=3, name="pool")

    def mlp(seed):
        return MLP([dataset.flat_dim, 16, dataset.num_classes],
                   rng=np.random.default_rng(seed))

    scratch = mlp(1)
    clients = [
        Client(i, shard, scratch, CrossEntropyLoss(), batch_size=3,
               defense=defense, seed=2)
        for i, shard in enumerate(partition_dataset(dataset, num_clients))
    ]
    return Server(mlp(0), Fleet(len(clients), clients.__getitem__), seed=4, **kwargs)


class TestGradientRecycling:
    def test_engine_pools_only_poolable_updates(self):
        tensor_buffers.clear()
        owned, kept = np.full(DIM, 7.0), np.full(DIM, 8.0)
        table = np.ones((2, DIM))
        updates = {
            0: GradientUpdate(0, 0, 1, {"w": owned}, poolable=True),
            1: GradientUpdate(1, 0, 1, {"w": table[0]}, poolable=True),
            2: GradientUpdate(2, 0, 1, {"w": kept}),
        }
        engine = RoundEngine(
            VirtualClock(),
            ScriptedArrivals([RoundPlan([0, 1, 2], [10, 20, 30])]),
            CountCutoff(),
        )
        ledger = engine.run_round([0, 1, 2], 0, None, updates.__getitem__)
        np.testing.assert_array_equal(ledger.buffer.matrix[:, 0], [7.0, 1.0, 8.0])
        assert all(update.gradients is None for update in updates.values())
        # Only the poolable update's own array is pooled: a view is not,
        # nor is the array of an update that is not poolable.
        assert tensor_buffers.stats()["free_arrays"] == 1
        assert tensor_buffers.acquire((DIM,), np.float64) is owned

    def test_steady_state_update_and_ingest_allocate_nothing(self):
        server = _training_server()
        server.run_round()
        misses = tensor_buffers.stats()["misses"]
        server.run_round()
        assert tensor_buffers.stats()["misses"] == misses

    def test_stale_arrivals_are_recycled_too(self):
        server = _training_server(
            num_clients=4, accept_stale=True, **LATE_ARRIVALS
        )
        records = server.run(4)
        assert any(record.stale_ids for record in records)
        misses = tensor_buffers.stats()["misses"]
        for record in server.run(2):
            assert record.participant_ids
        assert tensor_buffers.stats()["misses"] == misses

    @pytest.mark.parametrize("keep_dict", [True, False], ids=["dict", "array"])
    def test_arrays_a_defense_keeps_are_never_pooled(self, keep_dict):
        defense = KeepingDefense(keep_dict)
        server = _training_server(defense=defense)
        server.run_round()
        kept = list(defense.kept)
        kept_arrays = [
            array
            for item in kept
            for array in (item.values() if keep_dict else [item])
        ]
        snapshot = [array.copy() for array in kept_arrays]
        server.run(2)
        for array, before in zip(kept_arrays, snapshot):
            np.testing.assert_array_equal(array, before)
            drawn = [
                tensor_buffers.acquire(array.shape, array.dtype)
                for _ in range(tensor_buffers.MAX_PER_KEY)
            ]
            assert all(other is not array for other in drawn)
            for other in drawn:
                tensor_buffers.release(other)

    def test_refused_late_updates_are_released_at_once(self):
        class OwningClient(StubClient):
            """Hands over a fresh array it keeps no reference to."""

            def local_update(self, broadcast):
                update = super().local_update(broadcast)
                update.gradients = {"w": np.full(DIM + 3, float(self.client_id))}
                update.poolable = True
                return update

        server = Server(
            Module(),
            Fleet(6, OwningClient),
            arrivals="uniform(low_s=0.1, high_s=1.0)",
            cutoff=TimeCutoff(ticks(0.5)),
            seed=2,
        )
        for _ in range(4):
            tensor_buffers.clear()
            record = server.run_round()
            assert server._stale_updates == []
            # Every computed update's array is back in the pool, the
            # refused late ones' too.
            computed = len(record.participant_ids) + len(record.straggler_ids)
            assert tensor_buffers.stats()["free_arrays"] == computed
        assert any(record.straggler_ids for record in server.history)

    def test_apply_aggregate_matches_the_allocating_step(self):
        server = _training_server()
        before = server.model.state_dict()
        aggregate = {
            name: np.random.default_rng(5).standard_normal(value.shape)
            for name, value in before.items()
        }
        server.apply_aggregate(aggregate)
        for name, value in server.model.state_dict().items():
            expected = before[name].copy()
            expected -= server.learning_rate * aggregate[name]
            assert value.tobytes() == expected.tobytes()


# --------------------------------------------------------------------------
# Timed rounds pinned by digest: records, aggregates, events and ticks.
# --------------------------------------------------------------------------


class TableClient:
    """A stub whose examples, loss and two-parameter gradient vary by id."""

    table = np.random.default_rng(17).standard_normal((13, 10))

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id

    def local_update(self, broadcast) -> GradientUpdate:
        row = self.table[self.client_id % len(self.table)] * (1 + self.client_id % 7)
        return GradientUpdate(
            client_id=self.client_id,
            round_index=broadcast.round_index,
            num_examples=1 + self.client_id % 5,
            gradients={"a": row[:6].reshape(2, 3), "b": row[6:]},
            loss=self.client_id / 7.0,
        )


class SignAttack:
    """Reconstructs each positive 2-entry block: the count and bytes depend
    on which row the server hands over for which update."""

    name = "sign"

    def craft(self, model):
        pass

    def reconstruct(self, gradients):
        flat = np.concatenate([gradients["a"].ravel(), gradients["b"]])
        return [pair.copy() for pair in flat.reshape(-1, 2) if pair.sum() > 0]


def _tick_pairs(timing) -> list:
    """Every ``(client id, tick)`` the timing lists: on time, then late."""
    return [pair for kind in ("arrival", "late") for pair in zip(timing[f"{kind}_ids"], timing[f"{kind}_ticks"])]


def _timed_round_digests(dishonest: bool) -> dict:
    """sha256 of six timed rounds of a 2k-user fleet, one per output kind."""
    import hashlib

    kwargs = dict(
        clients_per_round=300,
        arrivals="tiered",
        cutoff=TimeCutoff(ticks(1.5), min_arrivals=20),
        accept_stale=True,
        weight_by_examples=True,
        seed=23,
    )
    fleet = Fleet(2_000, TableClient)
    server = (
        DishonestServer(Module(), fleet, SignAttack(), **kwargs)
        if dishonest
        else Server(Module(), fleet, **kwargs)
    )
    hashes = {
        kind: hashlib.sha256()
        for kind in ("records", "aggregates", "events", "ticks", "reconstructions")
    }
    for record in server.run(6):
        fields = dataclasses.asdict(record)
        timing = fields.pop("timing")
        events = fields.pop("attack_events")
        fields["mean_loss"] = np.float64(fields["mean_loss"]).tobytes().hex()
        hashes["records"].update(repr(sorted(fields.items())).encode())
        hashes["events"].update(repr(events).encode())
        hashes["ticks"].update(repr(_tick_pairs(timing)).encode())
        hashes["ticks"].update(repr(
            [timing[key] for key in ("opened_at", "closed_at", "cutoff", "unavailable")]
        ).encode())
        for name, value in sorted(server.last_aggregate.items()):
            hashes["aggregates"].update(name.encode() + value.tobytes())
    for key, results in getattr(server, "reconstructions", {}).items():
        hashes["reconstructions"].update(repr(key).encode())
        for pair in results:
            hashes["reconstructions"].update(pair.tobytes())
    return {kind: hasher.hexdigest() for kind, hasher in hashes.items()}


# Computed before the round ledger went columnar; a change to how rounds
# are ingested or recorded must leave every one of them unchanged.
TIMED_ROUND_DIGESTS = {
    "honest": {
        "records": "16b09b12de1285a2244286fb07ec05a9c01272bdd1022d6f2af9bc45e2b618c5",
        "aggregates": "b09ad58da69f0d50a7d834e12e93e092c346a41289979e9ef5a45285f1a9d1bf",
        "events": "10e94164e6b09b7a2ceb16ce6808fefefe99bda73846bfdc3aa443360fd19459",
        "ticks": "7055dfb325706af0480d194617128c219a8df50faed26062378ae10c71dc2b31",
        "reconstructions": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "dishonest": {
        "records": "16b09b12de1285a2244286fb07ec05a9c01272bdd1022d6f2af9bc45e2b618c5",
        "aggregates": "b09ad58da69f0d50a7d834e12e93e092c346a41289979e9ef5a45285f1a9d1bf",
        "events": "88b7820d1293beeef299217a35a23c6f6a554cb6d66a09f3b2b930b699b9e6a4",
        "ticks": "7055dfb325706af0480d194617128c219a8df50faed26062378ae10c71dc2b31",
        "reconstructions": "784d20d80d7ff3107862b8af42dd46b99a48ce71b9eb656e64ac26a17e97dc34",
    },
}


class TestTimedRoundDigests:
    @pytest.mark.parametrize("kind", ["honest", "dishonest"])
    def test_timed_rounds_match_their_digests(self, kind):
        assert _timed_round_digests(kind == "dishonest") == TIMED_ROUND_DIGESTS[kind]


# --------------------------------------------------------------------------
# A round keeps nothing per arrival past ingest.
# --------------------------------------------------------------------------


def _tracked_growth(num_clients: int) -> dict:
    """Collector-tracked objects that three timed rounds leave behind.

    Every client is materialized first, so the fleet's cache does not
    grow; the collector is off, so nothing that stays alive is hidden.
    """
    fleet = Fleet(num_clients, StubClient)
    for client_id in fleet.client_ids:
        fleet.get(client_id)
    server = Server(
        Module(),
        fleet,
        arrivals="uniform(low_s=0.1, high_s=1.0)",
        cutoff=TimeCutoff(ticks(0.8)),
        accept_stale=True,
        seed=5,
    )
    server.run_round()
    gc.collect()
    gc.disable()
    try:
        stale_before = len(server._stale_updates)
        before = len(gc.get_objects())
        records = server.run(3)
        growth = len(gc.get_objects()) - before
        alive = {
            id(obj) for obj in gc.get_objects() if isinstance(obj, GradientUpdate)
        }
    finally:
        gc.enable()
    return {
        "arrivals": sum(len(record.participant_ids) for record in records),
        # A stale update is one tracked object: its gradient dict holds
        # only arrays, which the collector does not track.
        "growth": growth - (len(server._stale_updates) - stale_before),
        "alive": alive,
        "stale": {id(update) for update in server._stale_updates},
    }


class TestColumnarLedger:
    def test_rounds_leave_no_per_arrival_objects(self):
        _tracked_growth(200)  # lazy imports and first-call caches
        small = _tracked_growth(200)
        large = _tracked_growth(2_000)
        assert large["arrivals"] >= 3 * 1_500
        # A 10x larger cohort leaves the same handful of round objects.
        assert large["growth"] <= small["growth"] + 4
        for run in (small, large):
            assert run["stale"] and run["alive"] == run["stale"]


# --------------------------------------------------------------------------
# Rate-driven rounds pinned by digest: every aggregator, dropout regime and
# stale setting of the instant arrival process.
# --------------------------------------------------------------------------


RATE_AGGREGATORS = ("fedavg", "median", "masked_sum", "secagg", "secagg_oneshot")
RATE_DROPOUTS = (0.0, 0.25, 0.6, 1.0)


def _rate_round_digest(dishonest: bool = False, **kwargs) -> str:
    """sha256 of six rate-driven rounds: every record and every aggregate."""
    import hashlib

    fleet = Fleet(16, TableClient)
    kwargs = dict(clients_per_round=12, seed=31, **kwargs)
    server = (
        DishonestServer(Module(), fleet, SignAttack(), **kwargs)
        if dishonest
        else Server(Module(), fleet, **kwargs)
    )
    digest = hashlib.sha256()
    for record in server.run(6):
        fields = dataclasses.asdict(record)
        fields["mean_loss"] = np.float64(fields["mean_loss"]).tobytes().hex()
        digest.update(repr(sorted(fields.items())).encode())
        aggregate = server.last_aggregate
        if aggregate is None:
            digest.update(b"no aggregate")
            continue
        for name, value in sorted(aggregate.items()):
            digest.update(name.encode() + value.tobytes())
    for key, results in getattr(server, "reconstructions", {}).items():
        digest.update(repr(key).encode())
        for pair in results:
            digest.update(pair.tobytes())
    return digest.hexdigest()


# Computed before the straggler coin left the federation layer.  A round
# without late arrivals is the same with and without ``accept_stale``, so
# both settings must reproduce one digest.
RATE_ROUND_DIGESTS = {
    "fedavg-0.0": "d30ff02b460640b72e37e8ad4702591d97a2bf73233123283f025f030e13cea2",
    "fedavg-0.25": "497e314979f245ff0bb1fa8c0074c2fc7b785533306e840d8336394c010a13d1",
    "fedavg-0.6": "4cdd8ece2ef784e924c5cf34683b9a45ad2e72dafc00d8255e831cbcc804e7e6",
    "fedavg-1.0": "1e139f9e6e5a8e0f706a56c5c016bc6027e1ffb6c7c9849b3ad7d58098fcd940",
    "median-0.0": "d7dd62494c9f31df76150220fd80e5014fc8d09d057ce132762946845b471ae7",
    "median-0.25": "af7ecb56bee80fa5ce692b2ab3195713c88efd94d6260e292c303aae89065d09",
    "median-0.6": "e1e0e5eccd59ec5f375985af870b53f91d6aa463bd91a8fa160cb7d19bfe1348",
    "median-1.0": "1536cea9b89e2b1829061ad2eac0db9c51c877ea2260abd53bdafe914270aed1",
    "masked_sum-0.0": "235bd2faa749db041e60e5827c441d98faaf9757a3a08ae7b6063827ac47ecc2",
    "masked_sum-0.25": "95740e3fbb04e2f034bd414c5129902fb3ecb0d07597e3034f07f4948f4682f6",
    "masked_sum-0.6": "f2b181ea1fe020eb2c07f24107dfbf3152398d5471b1a788b797c890c7d6607f",
    "masked_sum-1.0": "a760cff23030c9ad473cc36ed816cc64081a9004b6d555a4df5d561046c76d96",
    "secagg-0.0": "8a133b3f5cc8ad88fc43de4a264a20a7576a115b375fc91392b706ca9096a855",
    "secagg-0.25": "54d504803c9dfc3966489fefdb52669d33b910ff4d6e82c883ce3d0b866f1385",
    "secagg-0.6": "9582e47038a2430327ce3f7342dae538fb96fe96367d1318f731cd1185293e98",
    "secagg-1.0": "62fabfc02c4eb524e6edfc2319045ddc4807e83cf7131a6081009d016bf8edce",
    "secagg_oneshot-0.0": "0aec7a4d26ad217c5f973275e35cedd10c2ed83fbcdc037816f37d9363bbe0c7",
    "secagg_oneshot-0.25": "a23665b158d147404b9dcf33ca7a33d93e355af4f9a60c850424a52bedde1d5a",
    "secagg_oneshot-0.6": "0ae6051928c286d05259c7f7bad84d46994d747e19ff5855d828cc742de27e20",
    "secagg_oneshot-1.0": "a34d6597b070775d0d14a172ecf22b6adedcd726ab662eb997c15ce790bc4b3b",
    "dishonest": "d99d3c630b7cb888c0e846d1f27166a2f0303ff1d61aedd03b7b83e3bb36563a",
}


class TestRateRoundDigests:
    @pytest.mark.parametrize("accept_stale", [False, True], ids=["fresh", "stale"])
    @pytest.mark.parametrize("dropout_rate", RATE_DROPOUTS)
    @pytest.mark.parametrize("aggregator", RATE_AGGREGATORS)
    def test_rate_rounds_match_their_digests(
        self, aggregator, dropout_rate, accept_stale
    ):
        digest = _rate_round_digest(
            aggregator=aggregator,
            dropout_rate=dropout_rate,
            accept_stale=accept_stale,
        )
        assert digest == RATE_ROUND_DIGESTS[f"{aggregator}-{dropout_rate}"]

    def test_dishonest_rate_rounds_match_their_digest(self):
        digest = _rate_round_digest(
            dishonest=True, dropout_rate=0.25, accept_stale=True
        )
        assert digest == RATE_ROUND_DIGESTS["dishonest"]
