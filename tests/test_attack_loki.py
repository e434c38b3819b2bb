"""LOKI attack: block assignment, per-client crafting, aggregate inversion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import ImprintedModel, LOKIAttack
from repro.attacks.loki import DISABLED_BIAS
from repro.defense import OasisDefense
from repro.fl import compute_batch_gradients
from repro.fl.simulator import FederatedSimulation, FederationConfig
from repro.metrics import per_image_best_psnr
from repro.nn import CrossEntropyLoss


def calibrated(num_neurons, dataset, **kwargs):
    attack = LOKIAttack(num_neurons, **kwargs)
    attack.calibrate_from_public_data(dataset.images[:100])
    return attack


class TestBlockAssignment:
    def test_blocks_are_disjoint_and_cover_the_layer(self, cifar_like):
        attack = calibrated(100, cifar_like)
        attack.assign_clients([3, 1, 0, 2])
        covered = []
        for cid in attack.assigned_clients():
            start, stop = attack.client_block(cid)
            covered.extend(range(start, stop))
        assert sorted(covered) == list(range(100))
        assert len(set(covered)) == 100

    def test_assignment_invariant_to_enumeration_order(self, cifar_like):
        a, b = calibrated(64, cifar_like), calibrated(64, cifar_like)
        a.assign_clients([0, 1, 2, 3])
        b.assign_clients([3, 2, 1, 0])
        for cid in range(4):
            assert a.client_block(cid) == b.client_block(cid)

    def test_more_clients_than_neurons_refused(self, cifar_like):
        attack = calibrated(3, cifar_like)
        with pytest.raises(ValueError):
            attack.assign_clients([0, 1, 2, 3])

    def test_unassigned_client_lookup_names_assigned_ids(self, cifar_like):
        attack = calibrated(64, cifar_like)
        attack.assign_clients([0, 1])
        with pytest.raises(KeyError, match="assigned ids"):
            attack.client_block(7)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            LOKIAttack(16, scale=0.0)


class TestPerClientCrafting:
    def test_only_own_block_is_live(self, cifar_like):
        attack = calibrated(100, cifar_like)
        attack.assign_clients([0, 1, 2, 3])
        model = ImprintedModel(
            cifar_like.image_shape, 100, cifar_like.num_classes,
            rng=np.random.default_rng(0),
        )
        attack.craft_for_client(model, 2)
        weight, bias = model.imprint_parameters()
        start, stop = attack.client_block(2)
        live = np.zeros(100, dtype=bool)
        live[start:stop] = True
        assert np.all(weight[~live] == 0.0)
        assert np.all(bias[~live] == DISABLED_BIAS)
        assert np.all(np.linalg.norm(weight[live], axis=1) > 0.0)

    def test_disabled_rows_never_fire_and_carry_zero_gradient(
        self, cifar_like, rng
    ):
        attack = calibrated(64, cifar_like)
        attack.assign_clients([0, 1])
        model = ImprintedModel(
            cifar_like.image_shape, 64, cifar_like.num_classes,
            rng=np.random.default_rng(0),
        )
        attack.craft_for_client(model, 0)
        images, labels = cifar_like.sample_batch(4, rng)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        start, stop = attack.client_block(1)
        assert np.all(grads["imprint.weight"][start:stop] == 0.0)
        assert np.all(grads["imprint.bias"][start:stop] == 0.0)

    def test_block_content_keyed_by_block_not_order(self, cifar_like):
        a, b = calibrated(64, cifar_like, seed=9), calibrated(64, cifar_like, seed=9)
        a.assign_clients([0, 1])
        b.assign_clients([1, 0])
        models = []
        for attack in (a, b):
            model = ImprintedModel(
                cifar_like.image_shape, 64, cifar_like.num_classes,
                rng=np.random.default_rng(0),
            )
            attack.craft_for_client(model, 1)
            models.append(model.imprint_parameters())
        np.testing.assert_array_equal(models[0][0], models[1][0])
        np.testing.assert_array_equal(models[0][1], models[1][1])

    def test_scale_preserves_activation_pattern(self, cifar_like):
        flat = cifar_like.images[:16].reshape(16, -1)
        patterns = []
        for scale in (1.0, 50.0):
            attack = calibrated(64, cifar_like, seed=3, scale=scale)
            model = ImprintedModel(
                cifar_like.image_shape, 64, cifar_like.num_classes,
                rng=np.random.default_rng(0),
            )
            attack.craft(model)
            weight, bias = model.imprint_parameters()
            patterns.append((flat @ weight.T + bias) > 0.0)
        np.testing.assert_array_equal(patterns[0], patterns[1])


class TestAggregateReconstruction:
    @pytest.fixture
    def federation(self, cifar_like):
        attack = calibrated(64, cifar_like, seed=7)

        def factory():
            return ImprintedModel(
                cifar_like.image_shape, 64, cifar_like.num_classes,
                rng=np.random.default_rng(5),
            )

        return FederatedSimulation(
            cifar_like,
            factory,
            FederationConfig(num_clients=4, batch_size=4, seed=0),
            attack=attack,
            target_client_id=None,
        )

    def test_reconstructs_every_client_from_the_aggregate(self, federation):
        record = federation.server.run_round()
        assert all(e.get("from_aggregate") for e in record.attack_events)
        clients = {i: federation.fleet.get(i) for i in record.participant_ids}
        pairs = federation.server.round_reconstructions(0)
        assert len(pairs) == 4
        for client_id, result in pairs:
            own = clients[client_id].last_batch[0]
            best = per_image_best_psnr(own, result.images)
            assert (best > 18.0).sum() >= 1, (
                f"client {client_id} not recovered from the aggregate"
            )

    def test_reconstructions_attribute_to_the_owning_client(self, federation):
        record = federation.server.run_round()
        clients = {i: federation.fleet.get(i) for i in record.participant_ids}
        for client_id, result in federation.server.round_reconstructions(0):
            own = clients[client_id].last_batch[0]
            other = clients[(client_id + 1) % 4].last_batch[0]
            own_best = per_image_best_psnr(own, result.images).max()
            other_best = per_image_best_psnr(other, result.images).max()
            assert own_best > other_best + 20.0, (
                "a block's reconstructions matched a foreign client's data"
            )

    def test_per_update_inversion_is_skipped(self, federation):
        # The whole point of aggregate reconstruction: it must not depend
        # on per-update access (which secure aggregation would deny).
        record = federation.server.run_round()
        assert all(e.get("from_aggregate") for e in record.attack_events)

    def test_fleet_larger_than_the_budget_assigns_each_cohort(self, cifar_like):
        # 96 registered users cannot each own a block of 64 neurons, but a
        # cohort of 4 can: blocks are assigned per round, over the cohort.
        attack = calibrated(64, cifar_like, seed=7)

        def factory():
            return ImprintedModel(
                cifar_like.image_shape, 64, cifar_like.num_classes,
                rng=np.random.default_rng(5),
            )

        simulation = FederatedSimulation(
            cifar_like,
            factory,
            FederationConfig(
                fleet_size=96, clients_per_round=4, batch_size=4, seed=0
            ),
            attack=attack,
            target_client_id=None,
        )
        for round_index in range(2):
            record = simulation.server.run_round()
            cohort = sorted(record.selected_ids)
            assert attack.assigned_clients() == cohort
            assert sorted(record.participant_ids) == cohort
            pairs = simulation.server.round_reconstructions(round_index)
            assert {client_id for client_id, _ in pairs} <= set(cohort)
            assert any(len(result) for _, result in pairs)

    def test_cohort_larger_than_the_budget_is_refused(self, cifar_like):
        simulation = FederatedSimulation(
            cifar_like,
            lambda: ImprintedModel(
                cifar_like.image_shape, 4, cifar_like.num_classes,
                rng=np.random.default_rng(5),
            ),
            FederationConfig(fleet_size=16, clients_per_round=6, seed=0),
            attack=calibrated(4, cifar_like, seed=7),
            target_client_id=None,
        )
        with pytest.raises(ValueError, match="cannot cover 6 clients"):
            simulation.server.run_round()

    def test_oasis_mr_sh_drops_aggregate_match_rate(self, cifar_like):
        def count_hits(defense):
            attack = calibrated(64, cifar_like, seed=7)

            def factory():
                return ImprintedModel(
                    cifar_like.image_shape, 64, cifar_like.num_classes,
                    rng=np.random.default_rng(5),
                )

            simulation = FederatedSimulation(
                cifar_like,
                factory,
                FederationConfig(num_clients=4, batch_size=4, seed=0),
                defense=defense,
                attack=attack,
                target_client_id=None,
            )
            record = simulation.server.run_round()
            clients = {
                i: simulation.fleet.get(i) for i in record.participant_ids
            }
            hits = 0
            for client_id, result in simulation.server.round_reconstructions(0):
                if len(result) == 0:
                    continue
                own = clients[client_id].last_batch[0]
                hits += int(
                    (per_image_best_psnr(own, result.images) > 18.0).sum()
                )
            return hits

        undefended = count_hits(None)
        defended = count_hits(OasisDefense("MR+SH"))
        assert undefended >= 4
        assert defended < undefended


class TestDegenerateCalibration:
    def test_per_client_results_carry_the_reason(self, cifar_like):
        # Regression: a disarmed layer used to map to an empty dict,
        # indistinguishable from the defense winning; now every assigned
        # client gets a reasoned empty result.
        attack = LOKIAttack(64, seed=3)
        attack.calibrate_from_public_data(
            np.repeat(cifar_like.images[:1], 16, axis=0)
        )
        attack.assign_clients([0, 1])
        model = ImprintedModel(
            cifar_like.image_shape, 64, cifar_like.num_classes,
            rng=np.random.default_rng(0),
        )
        attack.craft_for_client(model, 0)
        grads = {
            "imprint.weight": np.zeros(model.imprint.weight.shape),
            "imprint.bias": np.zeros(model.imprint.bias.shape),
        }
        per_client = attack.reconstruct_per_client(grads)
        assert sorted(per_client) == [0, 1]
        for result in per_client.values():
            assert len(result) == 0
            assert "degenerate trap calibration" in result.reason

    def test_saturated_block_yields_reasoned_empty_not_garbage(self, cifar_like):
        attack = LOKIAttack(64, seed=3)
        attack.calibrate_from_public_data(cifar_like.images[:64])
        attack.assign_clients([0, 1])
        model = ImprintedModel(
            cifar_like.image_shape, 64, cifar_like.num_classes,
            rng=np.random.default_rng(0),
        )
        attack.craft(model)
        # Client 0's whole block fires (mistuned / saturated); client 1's
        # block is silent.
        bias_grad = np.zeros(64)
        start, stop = attack.client_block(0)
        bias_grad[start:stop] = 0.5
        grads = {
            "imprint.weight": np.ones(model.imprint.weight.shape),
            "imprint.bias": bias_grad,
        }
        per_client = attack.reconstruct_per_client(grads)
        assert sorted(per_client) == [0]
        assert len(per_client[0]) == 0
        assert "near-total activation" in per_client[0].reason


class TestSingleVictimFallback:
    def test_craft_without_fleet_becomes_one_block(self, cifar_like, rng):
        attack = calibrated(128, cifar_like, seed=7)
        model = ImprintedModel(
            cifar_like.image_shape, 128, cifar_like.num_classes,
            rng=np.random.default_rng(11),
        )
        attack.craft(model)
        assert attack.assigned_clients() == [0]
        images, labels = cifar_like.sample_batch(8, rng)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        result = attack.reconstruct(grads)
        best = per_image_best_psnr(images, result.images)
        assert (best > 18.0).sum() >= 1
        assert best.max() > 100.0

    def test_reconstruct_before_craft_raises(self):
        with pytest.raises(RuntimeError):
            LOKIAttack(8).reconstruct(
                {"imprint.weight": np.zeros((8, 2)), "imprint.bias": np.zeros(8)}
            )
