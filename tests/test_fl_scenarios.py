"""Protocol-level scenario tests: sampling, dropout, stragglers, non-IID.

Uses stub clients whose gradient is a known function of their id, so the
round aggregate can be recomputed exactly from the participation record.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_synthetic_dataset
from repro.fl import (
    FederatedSimulation,
    FederationConfig,
    Fleet,
    GradientUpdate,
    Server,
    dirichlet_partition_indices,
    partition_dataset_dirichlet,
    rebalance_min_per_client,
)
from repro.fl.engine import TimeCutoff, ticks
from repro.nn import MLP
from repro.nn.module import Module

DIM = 4
# Late arrivals through the real timeline: latencies uniform on 0.1-1.0 s
# against a 0.6 s deadline leave about four clients in ten late.
LATE_ARRIVALS = dict(
    arrivals="uniform(low_s=0.1, high_s=1.0)", cutoff=TimeCutoff(ticks(0.6))
)


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


def make_stub_server(num_clients, **kwargs):
    return Server(Module(), Fleet(num_clients, StubClient), **kwargs)


SCENARIOS = [(8, 0.0), (32, 0.1), (32, 0.3)]


class TestDropoutScenarios:
    @pytest.mark.parametrize("num_clients,dropout_rate", SCENARIOS)
    def test_round_completes(self, num_clients, dropout_rate):
        server = make_stub_server(num_clients, dropout_rate=dropout_rate, seed=42)
        record = server.run_round()
        assert server.round_index == 1
        assert server.history == [record]
        assert record.round_index == 0

    @pytest.mark.parametrize("num_clients,dropout_rate", SCENARIOS)
    def test_aggregate_is_mean_over_survivors_only(self, num_clients, dropout_rate):
        server = make_stub_server(num_clients, dropout_rate=dropout_rate, seed=42)
        record = server.run_round()
        survivors = record.participant_ids
        assert survivors, "seeded scenario should keep at least one survivor"
        expected = np.full(DIM, np.mean(survivors))
        np.testing.assert_allclose(server.last_aggregate["w"], expected, atol=1e-12)
        # Dropped clients must not leak into the aggregate: recompute with
        # every selected client and check it differs whenever any dropped.
        if record.dropped_ids:
            with_everyone = np.mean(record.selected_ids)
            assert not np.isclose(with_everyone, np.mean(survivors))

    @pytest.mark.parametrize("num_clients,dropout_rate", SCENARIOS)
    def test_round_record_reports_participation(self, num_clients, dropout_rate):
        server = make_stub_server(num_clients, dropout_rate=dropout_rate, seed=42)
        record = server.run_round()
        assert sorted(record.selected_ids) == list(range(num_clients))
        assert sorted(record.participant_ids + record.dropped_ids) == sorted(
            record.selected_ids
        )
        assert set(record.participant_ids).isdisjoint(record.dropped_ids)
        assert not record.straggler_ids and not record.stale_ids
        assert record.num_selected == num_clients
        if dropout_rate == 0.0:
            assert not record.dropped_ids
        else:
            # Seed 42 was chosen so each lossy scenario actually drops someone.
            assert record.dropped_ids
        assert record.mean_loss == pytest.approx(np.mean(record.participant_ids))

    def test_dropout_rates_respected_over_many_rounds(self):
        server = make_stub_server(32, dropout_rate=0.3, seed=0)
        records = server.run(50)
        rates = [len(r.participant_ids) / len(r.selected_ids) for r in records]
        assert 0.6 < np.mean(rates) < 0.8  # ~= 1 - dropout_rate

    def test_full_dropout_round_still_completes(self):
        server = make_stub_server(8, dropout_rate=1.0, seed=0)
        record = server.run_round()
        assert record.participant_ids == []
        assert sorted(record.dropped_ids) == list(range(8))
        assert np.isnan(record.mean_loss)
        assert server.last_aggregate is None
        assert server.round_index == 1

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            make_stub_server(4, dropout_rate=1.5)
        with pytest.raises(ValueError):
            make_stub_server(4, dropout_rate=-0.1)


class TestAllAggregatorsUnderDropout:
    @pytest.mark.parametrize(
        "name", ["fedavg", "median", "trimmed_mean", "masked_sum"]
    )
    def test_round_survives_30pct_dropout(self, name):
        server = make_stub_server(
            32, dropout_rate=0.3, aggregator=name, seed=42
        )
        record = server.run_round()
        survivors = record.participant_ids
        assert survivors and record.aggregator in (name, "fedavg", "median")
        aggregate = server.last_aggregate["w"]
        assert np.all(np.isfinite(aggregate))
        # Every rule must land inside the survivors' convex hull.
        assert np.all(aggregate >= min(survivors) - 1e-6)
        assert np.all(aggregate <= max(survivors) + 1e-6)

    def test_fedavg_and_masked_sum_agree_under_dropout(self):
        fedavg = make_stub_server(32, dropout_rate=0.3, aggregator="fedavg", seed=42)
        masked = make_stub_server(32, dropout_rate=0.3, aggregator="masked_sum", seed=42)
        a = fedavg.run_round()
        b = masked.run_round()
        assert a.participant_ids == b.participant_ids  # same RNG stream
        np.testing.assert_allclose(
            fedavg.last_aggregate["w"], masked.last_aggregate["w"], atol=1e-4
        )


class TestSamplingAndStragglers:
    def test_sampling_composes_with_dropout(self):
        server = make_stub_server(
            32, clients_per_round=16, dropout_rate=0.3, seed=1
        )
        record = server.run_round()
        assert record.num_selected == 16
        assert len(record.participant_ids) + len(record.dropped_ids) == 16

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_cohort_rejected(self, bad):
        with pytest.raises(ValueError, match="clients_per_round"):
            make_stub_server(8, clients_per_round=bad)

    def test_non_integral_cohort_rejected(self):
        with pytest.raises(TypeError, match="clients_per_round"):
            make_stub_server(8, clients_per_round=2.5)

    def test_cohort_accepts_numpy_ints_and_caps_at_fleet(self):
        server = make_stub_server(8, clients_per_round=np.int64(3), seed=0)
        assert type(server.clients_per_round) is int
        assert server.run_round().num_selected == 3
        assert make_stub_server(8, clients_per_round=20).clients_per_round == 8
        assert make_stub_server(8).clients_per_round == 8

    def test_stragglers_excluded_by_default(self):
        server = make_stub_server(16, seed=3, **LATE_ARRIVALS)
        record = server.run_round()
        assert record.straggler_ids, "seeded scenario should produce stragglers"
        assert set(record.participant_ids).isdisjoint(record.straggler_ids)
        expected = np.full(DIM, np.mean(record.participant_ids))
        np.testing.assert_allclose(server.last_aggregate["w"], expected, atol=1e-12)

    def test_stale_straggler_updates_fold_into_next_round(self):
        server = make_stub_server(16, accept_stale=True, seed=3, **LATE_ARRIVALS)
        first = server.run_round()
        assert first.straggler_ids and not first.stale_ids
        second = server.run_round()
        assert sorted(second.stale_ids) == sorted(first.straggler_ids)
        # The stale arrivals entered round two's aggregate alongside fresh ones.
        expected = np.full(DIM, np.mean(second.participant_ids))
        np.testing.assert_allclose(server.last_aggregate["w"], expected, atol=1e-12)
        assert set(second.stale_ids) <= set(second.participant_ids)
        # mean_loss covers everything aggregated, stale arrivals included.
        assert second.mean_loss == pytest.approx(np.mean(second.participant_ids))

    def test_straggler_inspection_deferred_to_aggregation_round(self):
        # Regression: late updates used to be inspected in the round they
        # *arrived*, attributing their attack events to a record whose
        # aggregate (and participant_ids) they were not part of.  They
        # must be inspected in the round they are aggregated as stale.
        from repro.fl import DishonestServer

        class RecordingAttack:
            name = "recording"

            def craft(self, model):
                pass

            def reconstruct(self, gradients):
                return []

        server = DishonestServer(
            Module(),
            Fleet(16, StubClient),
            RecordingAttack(),
            accept_stale=True,
            seed=3,
            **LATE_ARRIVALS,
        )
        first = server.run_round()
        assert first.straggler_ids, "seeded scenario should produce stragglers"
        first_event_ids = sorted(e["client_id"] for e in first.attack_events)
        assert first_event_ids == sorted(first.participant_ids)
        assert set(first_event_ids).isdisjoint(first.straggler_ids)
        second = server.run_round()
        # Round 1's stragglers fold in as stale now — and only now are
        # their updates inspected, in the record they actually joined.
        second_event_ids = sorted(e["client_id"] for e in second.attack_events)
        assert second_event_ids == sorted(second.participant_ids)
        assert set(first.straggler_ids) <= set(second_event_ids)

    def test_discarded_stragglers_never_inspected(self):
        from repro.fl import DishonestServer

        class RecordingAttack:
            name = "recording"

            def craft(self, model):
                pass

            def reconstruct(self, gradients):
                return []

        server = DishonestServer(
            Module(),
            Fleet(16, StubClient),
            RecordingAttack(),
            accept_stale=False,
            seed=3,
            **LATE_ARRIVALS,
        )
        record = server.run_round()
        assert record.straggler_ids
        # Late updates never enter any aggregate, so the attack must not
        # receive them in any round.
        inspected = {e["client_id"] for e in record.attack_events}
        assert inspected.isdisjoint(record.straggler_ids)
        second = server.run_round()
        inspected_second = {e["client_id"] for e in second.attack_events}
        assert inspected_second == set(second.participant_ids)

    def test_weight_by_examples(self):
        class Weighted(StubClient):
            """Stub whose num_examples is 1 for even ids, 3 for odd ids."""

            def local_update(self, broadcast):
                update = super().local_update(broadcast)
                update.num_examples = 1 if self.client_id % 2 == 0 else 3
                return update

        server = Server(
            Module(), Fleet(4, Weighted), weight_by_examples=True
        )
        record = server.run_round()
        # ids 0..3 with weights [1, 3, 1, 3] -> (0 + 3 + 2 + 9) / 8
        np.testing.assert_allclose(
            server.last_aggregate["w"], np.full(DIM, 14.0 / 8.0), atol=1e-12
        )
        assert record.weighting == "weighted"

    def test_unweighted_rule_records_uniform_weighting(self):
        # weight_by_examples through a rule that cannot honour weights
        # must warn and record what actually happened: uniform.
        server = make_stub_server(
            4, aggregator="median", weight_by_examples=True
        )
        with pytest.warns(RuntimeWarning, match="cannot honour"):
            record = server.run_round()
        assert record.weighting == "uniform"
        assert record.aggregator == "median"


class TestNonIIDFederation:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_synthetic_dataset(4, 16, image_size=8, seed=21, name="noniid")

    def test_dirichlet_shards_cover_dataset(self, dataset):
        shards = partition_dataset_dirichlet(dataset, 6, alpha=0.2, seed=0,
                                             min_per_client=1)
        assert sum(len(s) for s in shards) == len(dataset)
        assert all(len(s) >= 1 for s in shards)

    def test_low_alpha_skews_labels(self, dataset):
        shards = partition_dataset_dirichlet(dataset, 4, alpha=0.05, seed=2,
                                             min_per_client=1)
        skewed = [s for s in shards if len(s) >= 4]
        assert skewed, "alpha=0.05 should concentrate classes onto few clients"
        # At least one well-populated shard should be dominated by one class.
        dominance = max(
            np.bincount(s.labels, minlength=4).max() / len(s) for s in skewed
        )
        assert dominance > 0.5

    def test_rebalance_pins_exact_assignment(self, dataset):
        # Regression pin for the vectorized min_per_client rebalancing:
        # alpha=0.1 at seed 7 starves shard 3 entirely (sizes
        # [7, 29, 19, 0, 1, 8]) and the deterministic donor pass must
        # reproduce this exact reassignment forever.  Donors drain
        # richest-first (shard 1), giving away their most-abundant
        # labels first; no RNG is consumed.
        labels = dataset.labels
        raw = dirichlet_partition_indices(
            labels, 6, 0.1, np.random.default_rng(7)
        )
        assert [len(a) for a in raw] == [7, 29, 19, 0, 1, 8]
        balanced = rebalance_min_per_client(raw, labels, 4)
        expected = [
            [0, 4, 6, 26, 28, 30, 33],
            [11, 13, 14, 19, 21, 23, 27, 32, 35, 36, 37, 39, 41, 42, 46,
             47, 49, 53, 54, 59, 60, 62],
            [12, 15, 16, 20, 22, 29, 34, 38, 43, 44, 48, 50, 52, 55, 56,
             57, 58, 61, 63],
            [1, 2, 5, 7],
            [8, 9, 10, 18],
            [3, 17, 24, 25, 31, 40, 45, 51],
        ]
        assert [sorted(a.tolist()) for a in balanced] == expected

    def test_rebalance_preserves_coverage_and_consumes_no_rng(self, dataset):
        labels = dataset.labels
        rng = np.random.default_rng(7)
        raw = dirichlet_partition_indices(labels, 6, 0.1, rng)
        state_before = rng.bit_generator.state
        balanced = rebalance_min_per_client(raw, labels, 4)
        assert rng.bit_generator.state == state_before
        assert all(len(a) >= 4 for a in balanced)
        merged = np.sort(np.concatenate(balanced))
        np.testing.assert_array_equal(merged, np.arange(len(labels)))

    def test_rebalance_rejects_impossible_minimum(self, dataset):
        raw = dirichlet_partition_indices(
            dataset.labels, 6, 0.5, np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="not enough samples"):
            rebalance_min_per_client(raw, dataset.labels, len(dataset))

    def test_validates_inputs(self, dataset):
        with pytest.raises(ValueError):
            partition_dataset_dirichlet(dataset, 4, alpha=0.0)
        with pytest.raises(ValueError):
            partition_dataset_dirichlet(dataset, 0, alpha=1.0)
        with pytest.raises(ValueError):
            partition_dataset_dirichlet(
                dataset, len(dataset) + 1, alpha=1.0, min_per_client=1
            )

    def test_full_scenario_simulation(self, dataset):
        config = FederationConfig(
            num_clients=6,
            clients_per_round=4,
            batch_size=2,
            partition="dirichlet",
            dirichlet_alpha=0.3,
            dropout_rate=0.2,
            aggregator="trimmed_mean",
            seed=4,
        )
        sim = FederatedSimulation(
            dataset,
            lambda: MLP([dataset.flat_dim, 8, dataset.num_classes],
                        rng=np.random.default_rng(0)),
            config,
        )
        records = sim.run(4)
        assert len(records) == 4
        for record in records:
            assert record.num_selected == 4
            assert record.aggregator == "trimmed_mean"
        assert 0.0 <= sim.evaluate(dataset) <= 1.0

    def test_unknown_partition_rejected(self, dataset):
        config = FederationConfig(num_clients=2, partition="sorted")
        with pytest.raises(ValueError):
            FederatedSimulation(
                dataset,
                lambda: MLP([dataset.flat_dim, 4, dataset.num_classes],
                            rng=np.random.default_rng(0)),
                config,
            )


@pytest.mark.slow
class TestScale:
    """Scale-oriented protocol tests, excluded from tier-1 by the slow marker."""

    def test_hundred_client_federation_round(self):
        dataset = make_synthetic_dataset(4, 50, image_size=8, seed=31, name="scale")
        config = FederationConfig(
            num_clients=100,
            clients_per_round=64,
            batch_size=2,
            dropout_rate=0.1,
            seed=0,
        )
        sim = FederatedSimulation(
            dataset,
            lambda: MLP([dataset.flat_dim, 16, dataset.num_classes],
                        rng=np.random.default_rng(0)),
            config,
        )
        records = sim.run(3)
        assert all(r.num_selected == 64 for r in records)
        assert all(np.isfinite(r.mean_loss) for r in records)

    def test_stub_scale_all_aggregators(self):
        for name in ("fedavg", "median", "trimmed_mean", "masked_sum"):
            server = make_stub_server(100, dropout_rate=0.3,
                                      aggregator=name, seed=8)
            record = server.run_round()
            assert record.participant_ids
            assert np.all(np.isfinite(server.last_aggregate["w"]))
