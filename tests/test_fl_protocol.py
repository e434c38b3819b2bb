"""FL protocol: clients, honest server, dishonest server, simulation."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.tensor.backend as backend
from repro.attacks import ImprintedModel, RTFAttack
from repro.data import make_synthetic_dataset
from repro.defense import OasisDefense, make_defense
from repro.fl import (
    Client,
    DishonestServer,
    FederatedSimulation,
    FederationConfig,
    Fleet,
    ModelBroadcast,
    Server,
    partition_dataset,
)
from repro.fl.engine import TimeCutoff, ticks
from repro.metrics import per_image_best_psnr
from repro.nn import (
    MLP,
    BatchNorm2d,
    Conv2d,
    CrossEntropyLoss,
    Flatten,
    Linear,
    ReLU,
    Sequential,
)


@pytest.fixture(scope="module")
def fl_dataset():
    return make_synthetic_dataset(4, 12, image_size=8, seed=3, name="fl")


def make_mlp(fl_dataset):
    return MLP([fl_dataset.flat_dim, 16, fl_dataset.num_classes],
               rng=np.random.default_rng(0))


class TestPartition:
    def test_shards_cover_dataset(self, fl_dataset):
        shards = partition_dataset(fl_dataset, 4, seed=0)
        assert sum(len(s) for s in shards) == len(fl_dataset)

    def test_shards_disjoint(self, fl_dataset):
        shards = partition_dataset(fl_dataset, 4, seed=0)
        seen = []
        for shard in shards:
            seen.extend(shard.images.reshape(len(shard), -1).sum(axis=1).tolist())
        assert len(seen) == len(set(np.round(seen, 12)))

    def test_validates_inputs(self, fl_dataset):
        with pytest.raises(ValueError):
            partition_dataset(fl_dataset, 0)
        with pytest.raises(ValueError):
            partition_dataset(fl_dataset, len(fl_dataset) + 1)


class TestClient:
    def test_local_update_contents(self, fl_dataset):
        model = make_mlp(fl_dataset)
        client = Client(0, fl_dataset, model, CrossEntropyLoss(), batch_size=4, seed=1)
        broadcast = ModelBroadcast(round_index=0, state=model.state_dict())
        update = client.local_update(broadcast)
        assert update.client_id == 0
        assert update.num_examples == 4
        assert np.isfinite(update.loss)
        assert set(update.gradients) == {n for n, _ in model.named_parameters()}

    def test_defense_does_not_inflate_examples(self, fl_dataset):
        # OASIS expands the training batch 4x, but the uploaded example
        # count must stay the original batch size: under example-weighted
        # FedAvg a defended client must not outweigh an undefended one.
        model = make_mlp(fl_dataset)
        client = Client(
            0, fl_dataset, model, CrossEntropyLoss(), batch_size=4,
            defense=OasisDefense("MR"), seed=1,
        )
        update = client.local_update(ModelBroadcast(0, model.state_dict()))
        assert update.num_examples == 4

    def test_client_loads_broadcast_state(self, fl_dataset):
        model = make_mlp(fl_dataset)
        client = Client(0, fl_dataset, model, CrossEntropyLoss(), batch_size=4)
        reference = make_mlp(fl_dataset)
        for p in reference.parameters():
            p.data[:] = 0.123
        client.local_update(ModelBroadcast(0, reference.state_dict()))
        np.testing.assert_allclose(
            next(iter(client.model.parameters())).data, 0.123
        )

    def test_last_batch_recorded(self, fl_dataset):
        model = make_mlp(fl_dataset)
        client = Client(0, fl_dataset, model, CrossEntropyLoss(), batch_size=4)
        client.local_update(ModelBroadcast(0, model.state_dict()))
        assert client.last_batch is not None
        assert len(client.last_batch[0]) == 4


def make_bn_net(fl_dataset, seed=0):
    rng = np.random.default_rng(seed)
    channels, height, width = fl_dataset.image_shape
    return Sequential(
        Conv2d(channels, 4, 3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        Flatten(),
        Linear(4 * height * width, fl_dataset.num_classes, rng=rng),
    )


class TestSharedScratchModel:
    @pytest.mark.parametrize("kernel_mode", ["fused", "reference"])
    def test_update_does_not_depend_on_earlier_clients(
        self, fl_dataset, kernel_mode
    ):
        # Every client of a federation trains on one scratch model.  A
        # client's upload must be a function of the broadcast and its own
        # data alone: BatchNorm running stats, gradients and parameters
        # left behind by earlier clients must never show.  Fused kernels
        # hand gradient buffers to the upload; reference kernels copy
        # them out and leave them on the scratch, so both are pinned.
        assert make_defense("dpsgd").per_sample_clip is not None
        broadcast = ModelBroadcast(0, make_bn_net(fl_dataset).state_dict())
        other = ModelBroadcast(0, make_bn_net(fl_dataset, seed=9).state_dict())

        def run(earlier_ids):
            scratch = make_bn_net(fl_dataset, seed=5)
            clients = [
                Client(i, shard, scratch, CrossEntropyLoss(), batch_size=3,
                       defense=make_defense("dpsgd"), seed=4)
                for i, shard in enumerate(partition_dataset(fl_dataset, 3))
            ]
            for i in earlier_ids:
                clients[i].local_update(other)
            return clients[2].local_update(broadcast), scratch.state_dict()

        previous = backend.set_kernel_mode(kernel_mode)
        try:
            alone, alone_state = run([])
            after, after_state = run([0, 1])
        finally:
            backend.set_kernel_mode(previous)
        assert after.loss == alone.loss
        assert set(after.gradients) == set(alone.gradients)
        for name, gradient in alone.gradients.items():
            np.testing.assert_array_equal(after.gradients[name], gradient)
        for name, value in alone_state.items():
            np.testing.assert_array_equal(after_state[name], value)


class TestHonestServer:
    def _make_federation(self, fl_dataset, num_clients=3):
        clients = [
            Client(i, shard, make_mlp(fl_dataset), CrossEntropyLoss(), batch_size=4,
                   seed=7)
            for i, shard in enumerate(partition_dataset(fl_dataset, num_clients))
        ]
        fleet = Fleet(len(clients), clients.__getitem__)
        return Server(make_mlp(fl_dataset), fleet, learning_rate=0.5, seed=0)

    def test_round_applies_eq1(self, fl_dataset):
        server = self._make_federation(fl_dataset)
        before = {n: p.data.copy() for n, p in server.model.named_parameters()}
        server.run_round()
        after = dict(server.model.named_parameters())
        changed = any(
            not np.allclose(before[n], after[n].data) for n in before
        )
        assert changed

    def test_history_grows(self, fl_dataset):
        server = self._make_federation(fl_dataset)
        server.run(3)
        assert [r.round_index for r in server.history] == [0, 1, 2]

    def test_client_subset_selection(self, fl_dataset):
        clients = [
            Client(i, shard, make_mlp(fl_dataset), CrossEntropyLoss(), batch_size=4)
            for i, shard in enumerate(partition_dataset(fl_dataset, 4))
        ]
        fleet = Fleet(len(clients), clients.__getitem__)
        server = Server(make_mlp(fl_dataset), fleet, clients_per_round=2, seed=0)
        record = server.run_round()
        assert len(record.participant_ids) == 2

    def test_requires_clients(self, fl_dataset):
        with pytest.raises(ValueError):
            Server(make_mlp(fl_dataset), Fleet(0, Client))

    def test_rejects_client_list(self, fl_dataset):
        # A list used to slip through and fail only at the first round.
        clients = [
            Client(0, fl_dataset, make_mlp(fl_dataset), CrossEntropyLoss(), 4)
        ]
        wrapper = r"Fleet\(len\(clients\), clients\.__getitem__\)"
        with pytest.raises(TypeError, match=wrapper):
            Server(make_mlp(fl_dataset), clients)
        with pytest.raises(TypeError, match=wrapper):
            DishonestServer(make_mlp(fl_dataset), clients, attack=RTFAttack(4))

    def test_loss_decreases_over_rounds(self, fl_dataset):
        server = self._make_federation(fl_dataset)
        records = server.run(25)
        first = np.mean([r.mean_loss for r in records[:5]])
        last = np.mean([r.mean_loss for r in records[-5:]])
        assert last < first


class TestDishonestServer:
    def test_attack_round_reconstructs_target_batch(self, fl_dataset):
        num_neurons = 64
        def factory():
            return ImprintedModel(fl_dataset.image_shape, num_neurons,
                                  fl_dataset.num_classes,
                                  rng=np.random.default_rng(5))
        clients = [
            Client(i, shard, factory(), CrossEntropyLoss(), batch_size=3, seed=11)
            for i, shard in enumerate(partition_dataset(fl_dataset, 2))
        ]
        attack = RTFAttack(num_neurons)
        attack.calibrate_from_public_data(fl_dataset.images)
        server = DishonestServer(
            factory(), Fleet(len(clients), clients.__getitem__), attack=attack,
            target_client_id=0, seed=0,
        )
        server.run_round()
        assert (0, 0) in server.reconstructions
        target = clients[0].last_batch[0]
        per_image = per_image_best_psnr(
            target, server.reconstructions[(0, 0)].images
        )
        assert np.all(per_image > 100.0), "dishonest server failed to reconstruct"

    def test_attack_events_recorded(self, fl_dataset):
        num_neurons = 32
        def factory():
            return ImprintedModel(fl_dataset.image_shape, num_neurons,
                                  fl_dataset.num_classes,
                                  rng=np.random.default_rng(5))
        clients = [
            Client(0, fl_dataset, factory(), CrossEntropyLoss(), batch_size=3)
        ]
        attack = RTFAttack(num_neurons)
        attack.calibrate_from_public_data(fl_dataset.images)
        server = DishonestServer(
            factory(), Fleet(len(clients), clients.__getitem__), attack=attack
        )
        record = server.run_round()
        assert record.attack_events
        assert record.attack_events[0]["attack"] == "rtf"

    def test_multi_client_reconstructions_all_retained(self, fl_dataset):
        # Regression: keyed by round alone, a later client's inversion
        # silently clobbered an earlier one when every client is targeted.
        num_neurons = 32
        def factory():
            return ImprintedModel(fl_dataset.image_shape, num_neurons,
                                  fl_dataset.num_classes,
                                  rng=np.random.default_rng(5))
        clients = [
            Client(i, fl_dataset, factory(), CrossEntropyLoss(), batch_size=3,
                   seed=11)
            for i in range(3)
        ]
        attack = RTFAttack(num_neurons)
        attack.calibrate_from_public_data(fl_dataset.images)
        server = DishonestServer(
            factory(), Fleet(len(clients), clients.__getitem__), attack=attack,
            target_client_id=None, seed=0,
        )
        server.run(2)
        assert set(server.reconstructions) == {
            (r, c) for r in range(2) for c in range(3)
        }
        for round_index in range(2):
            captured = server.round_reconstructions(round_index)
            assert sorted(client_id for client_id, _ in captured) == [0, 1, 2]
            assert all(len(result) > 0 for _, result in captured)

    def test_untargeted_clients_ignored(self, fl_dataset):
        num_neurons = 32
        def factory():
            return ImprintedModel(fl_dataset.image_shape, num_neurons,
                                  fl_dataset.num_classes,
                                  rng=np.random.default_rng(5))
        clients = [
            Client(i, fl_dataset, factory(), CrossEntropyLoss(), batch_size=3)
            for i in range(2)
        ]
        attack = RTFAttack(num_neurons)
        attack.calibrate_from_public_data(fl_dataset.images)
        server = DishonestServer(
            factory(), Fleet(len(clients), clients.__getitem__), attack=attack,
            target_client_id=1,
        )
        record = server.run_round()
        assert all(e["client_id"] == 1 for e in record.attack_events)
        assert set(server.reconstructions) == {(0, 1)}


class _InspectionLog(DishonestServer):
    """Keeps every list of updates handed to ``inspect_updates``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.inspected: list[list] = []

    def inspect_updates(self, updates, gradients):
        self.inspected.append(list(updates))
        return super().inspect_updates(updates, gradients)


class _WritingRTF(RTFAttack):
    """Scales the gradients it is given in place before inverting them."""

    def reconstruct(self, gradients):
        for gradient in gradients.values():
            gradient *= 2.0
        return super().reconstruct(gradients)


class TestDishonestGradientRelease:
    """A dishonest server reads packed rows, never keeps per-update dicts."""

    NUM_NEURONS = 32

    def _server(self, fl_dataset, attack_class=RTFAttack):
        def factory():
            return ImprintedModel(fl_dataset.image_shape, self.NUM_NEURONS,
                                  fl_dataset.num_classes,
                                  rng=np.random.default_rng(5))
        clients = [
            Client(i, fl_dataset, factory(), CrossEntropyLoss(), batch_size=3,
                   seed=11)
            for i in range(4)
        ]
        attack = attack_class(self.NUM_NEURONS)
        attack.calibrate_from_public_data(fl_dataset.images)
        return _InspectionLog(
            factory(), Fleet(len(clients), clients.__getitem__), attack=attack,
            accept_stale=True, seed=9,
            arrivals="uniform(low_s=0.1, high_s=1.0)",
            cutoff=TimeCutoff(ticks(0.75)),
        )

    def test_two_rounds_with_stale_arrivals(self, fl_dataset):
        server = self._server(fl_dataset)
        first = server.run_round()
        pooled = server.engine._buffer
        snapshot = {
            key: (result.images.copy(), result.occupancy.copy())
            for key, result in server.reconstructions.items()
        }
        # Round 0 leaves one straggler that round 1 folds in as a stale row
        # after its fresh ones; a cohort of three keeps the rows within
        # the re-armed round-0 matrix.
        server.clients_per_round = 3
        second = server.run_round()
        assert first.participant_ids and first.straggler_ids
        assert second.stale_ids and len(second.participant_ids) > len(second.stale_ids)
        assert server.engine._buffer is pooled
        assert [len(updates) for updates in server.inspected] == [
            len(first.participant_ids), len(second.participant_ids),
        ]
        for updates in server.inspected:
            for update in updates:
                assert update.gradients is None
        assert snapshot and all(key[0] == 0 for key in snapshot)
        for key, (images, occupancy) in snapshot.items():
            np.testing.assert_array_equal(server.reconstructions[key].images, images)
            np.testing.assert_array_equal(
                server.reconstructions[key].occupancy, occupancy
            )

    def test_inspection_cannot_write_the_round_matrix(self, fl_dataset):
        server = self._server(fl_dataset, _WritingRTF)
        with pytest.raises(ValueError, match="read-only"):
            server.run_round()
        for update in server.inspected[0]:
            assert update.gradients is None


class TestFederatedSimulation:
    def test_runs_and_evaluates(self, fl_dataset):
        sim = FederatedSimulation(
            fl_dataset,
            lambda: make_mlp(fl_dataset),
            FederationConfig(num_clients=3, batch_size=4, learning_rate=0.5, seed=2),
        )
        sim.run(5)
        acc = sim.evaluate(fl_dataset)
        assert 0.0 <= acc <= 1.0

    def test_oasis_protected_simulation_with_attack(self, fl_dataset):
        num_neurons = 64
        def factory():
            return ImprintedModel(fl_dataset.image_shape, num_neurons,
                                  fl_dataset.num_classes,
                                  rng=np.random.default_rng(5))
        attack = RTFAttack(num_neurons)
        attack.calibrate_from_public_data(fl_dataset.images)
        sim = FederatedSimulation(
            fl_dataset,
            factory,
            FederationConfig(num_clients=2, batch_size=3, seed=2),
            defense=OasisDefense("MR"),
            attack=attack,
            target_client_id=0,
        )
        sim.run(1)
        server = sim.server
        target = sim.fleet.get(0).last_batch[0]
        recon = server.reconstructions[(0, 0)].images
        per_image = per_image_best_psnr(target, recon)
        assert np.all(per_image < 60.0), "OASIS failed inside the full protocol"


def test_importing_the_fl_package_loads_no_scipy():
    # The library imports no scipy itself; this also catches a dependency
    # that would pull it in.
    src = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.fl; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
