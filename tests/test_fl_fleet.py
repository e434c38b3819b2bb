"""Lazy-fleet tests: O(cohort) materialization, factory contract, soak.

The fleet is what makes 100k–1M registered users affordable: registration
stores a factory and a count, and a ``Client`` (shard, RNG stream) exists
only once the engine dispatches its id; every client trains on the
federation's one scratch model.  These tests pin the laziness itself
(materialized counts, one model build per federation, a scratch model
that borrows the global arrays and binds each broadcast read-only), the purity
contract that makes laziness sound (``factory(i).client_id == i``, same
client object across rounds), and — behind the ``fleet_scale`` marker —
the sustained multi-round soak at 1k active clients from a 100k-user
registry that the CI ``fleet-scale`` job runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_synthetic_dataset
from repro.fl import (
    DishonestServer,
    FederationConfig,
    FederatedSimulation,
    Fleet,
    GradientUpdate,
    Server,
    TimeCutoff,
    make_lazy_fleet,
)
from repro.fl.engine import ticks
from repro.nn import MLP, BatchNorm2d, Conv2d, Flatten, Linear, ReLU, Sequential
from repro.nn.module import Module

DIM = 4


def bn_net(dataset):
    rng = np.random.default_rng(0)
    channels, height, width = dataset.image_shape
    return Sequential(
        Conv2d(channels, 4, 3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        Flatten(),
        Linear(4 * height * width, dataset.num_classes, rng=rng),
    )


class StubClient:
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


class TestFleetRegistry:
    def test_registration_is_lazy(self):
        built = []

        def factory(client_id: int) -> StubClient:
            built.append(client_id)
            return StubClient(client_id)

        fleet = Fleet(100_000, factory)
        assert len(fleet) == 100_000
        assert fleet.materialized_count == 0
        assert built == []
        assert fleet.client_ids == range(100_000)

    def test_materialization_caches(self):
        calls = []
        fleet = Fleet(10, lambda i: (calls.append(i), StubClient(i))[1])
        first = fleet.get(7)
        again = fleet.get(7)
        assert first is again
        assert calls == [7]
        assert fleet.materialized_count == 1

    def test_factory_contract_enforced(self):
        fleet = Fleet(10, lambda i: StubClient(i + 1))
        with pytest.raises(ValueError, match="factory returned client_id"):
            fleet.get(0)

    def test_out_of_range_rejected(self):
        fleet = Fleet(5, StubClient)
        with pytest.raises(KeyError):
            fleet.get(5)
        with pytest.raises(KeyError):
            fleet.get(-1)
        assert 4 in fleet and 5 not in fleet

    def test_numpy_integer_ids_accepted(self):
        fleet = Fleet(5, StubClient)
        client = fleet.get(np.int64(3))
        assert client.client_id == 3 and type(client.client_id) is int
        assert fleet.get(3) is client
        assert np.int32(4) in fleet and np.int64(5) not in fleet

    @pytest.mark.parametrize("bad_id", [3.7, 3.0, "5", None])
    def test_non_integral_ids_raise_type_error(self, bad_id):
        fleet = Fleet(10, StubClient)
        with pytest.raises(TypeError):
            fleet.get(bad_id)
        with pytest.raises(TypeError):
            bad_id in fleet
        assert fleet.materialized_count == 0

    def test_float_id_does_not_hit_the_cache(self):
        # 3.0 hashes equal to 3: the id must be converted before the
        # cache lookup, or a cached client 3 would answer for it.
        fleet = Fleet(10, StubClient)
        fleet.get(3)
        with pytest.raises(TypeError):
            fleet.get(3.0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Fleet(0, StubClient)

    @pytest.mark.parametrize("size", [0.5, 2.9, "3"], ids=["0.5", "2.9", "str"])
    def test_non_integer_size_rejected(self, size):
        # int() used to truncate: 0.5 built an empty fleet, 2.9 two clients.
        with pytest.raises(TypeError):
            Fleet(size, StubClient)

    def test_numpy_integer_size_accepted(self):
        fleet = Fleet(np.int64(3), StubClient)
        assert len(fleet) == 3 and type(fleet.size) is int
        assert list(fleet.client_ids) == [0, 1, 2]


class TestServerOverLazyFleet:
    def test_server_materializes_only_dispatched_clients(self):
        fleet = Fleet(10_000, StubClient)
        server = Server(Module(), fleet, clients_per_round=16, seed=0)
        record = server.run_round()
        assert len(record.participant_ids) == 16
        assert fleet.materialized_count == 16

    def test_sampling_identical_to_eager_fleet(self):
        # The engine draws selection from fleet *size*, so a lazy fleet
        # and a fleet over an eager roster of the same size share the RNG
        # stream.
        roster = [StubClient(i) for i in range(64)]
        lazy = Server(Module(), Fleet(64, StubClient), clients_per_round=8, seed=5)
        eager = Server(
            Module(), Fleet(64, roster.__getitem__), clients_per_round=8, seed=5
        )
        for _ in range(4):
            a, b = lazy.run_round(), eager.run_round()
            assert a.selected_ids == b.selected_ids
            assert a.participant_ids == b.participant_ids
        assert lazy.fleet.materialized_count <= 32

    def test_sampled_client_is_same_object_across_rounds(self):
        fleet = Fleet(4, StubClient)
        server = Server(Module(), fleet, seed=0)
        server.run(2)
        assert fleet.materialized_count == 4
        assert fleet.get(0) is fleet.get(0)

    @pytest.mark.parametrize(
        "target,error", [(99, ValueError), (-1, ValueError), (2.5, TypeError)]
    )
    def test_dishonest_target_must_be_in_fleet(self, target, error):
        # An id outside the fleet matches no update, so every round would
        # record no attack event and read like a defense that worked.
        knob = "target_client_id" if error is ValueError else None
        with pytest.raises(error, match=knob):
            DishonestServer(
                Module(), Fleet(10, StubClient), object(), target_client_id=target
            )

    @pytest.mark.parametrize("target", [None, 0, 9, np.int64(9)])
    def test_dishonest_target_in_fleet_accepted(self, target):
        server = DishonestServer(
            Module(), Fleet(10, StubClient), object(), target_client_id=target
        )
        assert server.target_client_id == target


class TestLazySimulation:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_synthetic_dataset(4, 24, image_size=8, seed=13, name="fleet")

    def make_config(self, fleet_size, **kwargs):
        return FederationConfig(
            batch_size=2,
            seed=3,
            fleet_size=fleet_size,
            **kwargs,
        )

    def test_shards_are_pure_functions_of_client_id(self, dataset):
        config = self.make_config(1000)
        model = MLP(
            [dataset.flat_dim, 4, dataset.num_classes],
            rng=np.random.default_rng(0),
        )
        one = make_lazy_fleet(dataset, model, config)
        other = make_lazy_fleet(dataset, model, config)
        # Materialize in different orders; shards must match per id.
        for cid in (977, 3, 500):
            np.testing.assert_array_equal(
                one.get(cid).dataset.images, other.get(cid).dataset.images
            )
        assert one.materialized_count == 3

    def test_simulation_over_lazy_fleet_runs(self, dataset):
        config = self.make_config(
            500,
            clients_per_round=8,
            arrivals="tiered",
            round_duration_s=1.0,
            min_arrivals=1,
        )
        sim = FederatedSimulation(
            dataset,
            lambda: MLP(
                [dataset.flat_dim, 4, dataset.num_classes],
                rng=np.random.default_rng(0),
            ),
            config,
        )
        records = sim.run(3)
        assert sim.fleet.materialized_count <= 3 * 8
        assert any(np.isfinite(r.mean_loss) for r in records)
        for record in records:
            assert record.timing is not None

    def test_lazy_fleet_validates_inputs(self, dataset):
        # fleet_size=0 selects the partitioned shards: num_clients ids,
        # client i holding shard i, none materialized until dispatched.
        config = self.make_config(0, num_clients=6)
        fleet = make_lazy_fleet(dataset, Module(), config)
        assert len(fleet) == 6
        assert fleet.materialized_count == 0
        shards = config.make_shards(dataset)
        np.testing.assert_array_equal(
            fleet.get(4).dataset.images, shards[4].images
        )
        with pytest.raises(ValueError, match="batch_size"):
            make_lazy_fleet(
                dataset,
                Module(),
                FederationConfig(batch_size=10_000, fleet_size=10),
            )

    @pytest.mark.parametrize(
        "sizing",
        [{"num_clients": 4}, {"fleet_size": 64}],
        ids=["partitioned", "keyed"],
    )
    def test_model_factory_runs_once_per_federation(self, dataset, sizing):
        # One global model, whatever the fleet size; the one scratch model
        # every client shares is a copy that borrows its arrays.
        built = []

        def factory():
            built.append(None)
            return MLP(
                [dataset.flat_dim, 4, dataset.num_classes],
                rng=np.random.default_rng(0),
            )

        config = FederationConfig(batch_size=2, seed=3, **sizing)
        sim = FederatedSimulation(dataset, factory, config)
        sim.run(2)
        assert len(built) == 1
        scratch = {id(sim.fleet.get(i).model) for i in range(3)}
        assert len(scratch) == 1
        assert sim.server.model is not sim.fleet.get(0).model

    def bn_simulation(self, dataset):
        config = FederationConfig(batch_size=2, seed=3, num_clients=4)
        return FederatedSimulation(dataset, lambda: bn_net(dataset), config)

    def test_scratch_model_borrows_the_global_arrays(self, dataset):
        sim = self.bn_simulation(dataset)
        scratch = sim.fleet.get(0).model
        for mine, theirs in zip(
            scratch.parameters(), sim.server.model.parameters()
        ):
            assert mine is not theirs
            assert mine.data is theirs.data
        # Buffers are loaded in place, so the scratch model owns its own.
        for (_, mine), (_, theirs) in zip(
            scratch.named_buffers(), sim.server.model.named_buffers()
        ):
            assert not np.shares_memory(mine, theirs)

    def test_clients_bind_the_broadcast_read_only(self, dataset):
        sim = self.bn_simulation(dataset)
        broadcast = sim.server.prepare_broadcast()
        before = {name: value.copy() for name, value in broadcast.state.items()}
        for client_id in range(4):
            sim.fleet.get(client_id).local_update(broadcast)
        # Every client ran on the broadcast; not one byte of it moved.
        for name, value in broadcast.state.items():
            assert value.tobytes() == before[name].tobytes()
        scratch = sim.fleet.get(0).model
        for name, param in scratch.named_parameters():
            assert not param.data.flags.writeable
            assert np.shares_memory(param.data, broadcast.state[name])
            with pytest.raises(ValueError, match="read-only"):
                param.data += 1.0
        # A full round leaves the scratch model bound read-only too.
        sim.run(1)
        assert not any(p.data.flags.writeable for p in scratch.parameters())

    def test_partitioned_federation_materializes_only_dispatched(self, dataset):
        config = self.make_config(0, num_clients=4, clients_per_round=2)
        sim = FederatedSimulation(
            dataset,
            lambda: MLP(
                [dataset.flat_dim, 4, dataset.num_classes],
                rng=np.random.default_rng(0),
            ),
            config,
        )
        assert sim.fleet.materialized_count == 0
        record = sim.server.run_round()
        assert len(record.selected_ids) == 2
        assert sim.fleet.materialized_count == 2


@pytest.mark.fleet_scale
class TestFleetScaleSoak:
    """Sustained multi-round soak at 1k active clients (CI fleet-scale job)."""

    def test_1k_active_clients_from_100k_fleet_sustained(self):
        fleet = Fleet(100_000, StubClient)
        server = Server(
            Module(),
            fleet,
            clients_per_round=1000,
            arrivals="tiered",
            cutoff=TimeCutoff(ticks(2.0), min_arrivals=100),
            seed=0,
        )
        records = server.run(5)
        for record in records:
            assert len(record.selected_ids) == 1000
            assert len(record.participant_ids) >= 100
        # Laziness holds at scale: only dispatched clients ever exist.
        assert fleet.materialized_count <= 5 * 1000
        assert server.clock.now > 0

    def test_1k_real_clients_train_the_global_model(self):
        dataset = make_synthetic_dataset(
            4, 32, image_size=8, seed=29, name="fleet-soak"
        )
        config = FederationConfig(
            batch_size=4,
            seed=11,
            fleet_size=100_000,
            clients_per_round=1000,
            learning_rate=0.05,
            arrivals="tiered",
            round_duration_s=3.0,
            min_arrivals=200,
        )
        sim = FederatedSimulation(
            dataset,
            lambda: MLP(
                [dataset.flat_dim, 8, dataset.num_classes],
                rng=np.random.default_rng(0),
            ),
            config,
        )
        records = sim.run(3)
        assert all(len(r.participant_ids) >= 200 for r in records)
        assert all(np.isfinite(r.mean_loss) for r in records)
        assert sim.fleet.materialized_count <= 3 * 1000
