"""End-to-end integration: the paper's full story on one federation.

Scenario mirroring Fig. 1: a dishonest server attacks a federation of
honest clients.  Without OASIS the target's batch is reconstructed
verbatim; with OASIS only unrecognizable mixtures come out; training still
converges.  Also covers multi-round behaviour and the DP baseline contrast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import CAHAttack, ImprintedModel, RTFAttack
from repro.data import make_synthetic_dataset
from repro.defense import DPGradientDefense, OasisDefense
from repro.fl import FederatedSimulation, FederationConfig
from repro.metrics import per_image_best_psnr
from repro.nn import MLP


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(6, 12, image_size=12, seed=9, name="e2e")


NUM_NEURONS = 96


def imprinted_factory(dataset):
    def factory():
        return ImprintedModel(
            dataset.image_shape, NUM_NEURONS, dataset.num_classes,
            rng=np.random.default_rng(17),
        )
    return factory


def run_attack_sim(dataset, attack, defense, rounds=1):
    sim = FederatedSimulation(
        dataset,
        imprinted_factory(dataset),
        FederationConfig(num_clients=3, batch_size=4, seed=5),
        defense=defense,
        attack=attack,
        target_client_id=0,
    )
    sim.run(rounds)
    return sim


class TestRTFEndToEnd:
    def _attack(self, dataset):
        attack = RTFAttack(NUM_NEURONS)
        attack.calibrate_from_public_data(dataset.images)
        return attack

    def test_undefended_leaks_everything(self, dataset):
        sim = run_attack_sim(dataset, self._attack(dataset), defense=None)
        target_batch = sim.fleet.get(0).last_batch[0]
        scores = per_image_best_psnr(
            target_batch, sim.server.reconstructions[(0, 0)].images
        )
        assert np.all(scores > 100.0)

    def test_oasis_mr_protects_every_image(self, dataset):
        sim = run_attack_sim(dataset, self._attack(dataset), OasisDefense("MR"))
        target_batch = sim.fleet.get(0).last_batch[0]
        scores = per_image_best_psnr(
            target_batch, sim.server.reconstructions[(0, 0)].images
        )
        assert np.all(scores < 60.0)

    def test_multi_round_attack_keeps_failing_under_oasis(self, dataset):
        sim = run_attack_sim(
            dataset, self._attack(dataset), OasisDefense("MR"), rounds=3
        )
        for (round_index, _client_id), result in sim.server.reconstructions.items():
            target_batch = sim.fleet.get(0).last_batch[0]
            scores = per_image_best_psnr(target_batch, result.images)
            # last_batch is from the final round; earlier rounds' recon may
            # match older batches, but none should be a verbatim hit on any
            # private image of the target shard.
            shard = sim.fleet.get(0).dataset.images.astype(np.float64)
            shard_scores = per_image_best_psnr(shard, result.images)
            assert np.all(shard_scores < 60.0), f"leak in round {round_index}"

    def test_dp_defense_needs_heavy_noise(self, dataset):
        # The paper's motivation: DP can stop the attack, but only at noise
        # levels that wreck the update (we check the privacy side here; the
        # accuracy side is covered by the ablation bench).  Imprint-layer
        # gradients here are ~1e-3 in magnitude, so sigma=1e-5 is "light"
        # (attack survives) and sigma=1 is "heavy" (attack dies).
        light = run_attack_sim(
            dataset, self._attack(dataset),
            DPGradientDefense(clip_norm=10.0, noise_multiplier=1e-9),
        )
        target_batch = light.fleet.get(0).last_batch[0]
        light_scores = per_image_best_psnr(
            target_batch, light.server.reconstructions[(0, 0)].images
        )
        heavy = run_attack_sim(
            dataset, self._attack(dataset),
            DPGradientDefense(clip_norm=1.0, noise_multiplier=1.0),
        )
        target_batch = heavy.fleet.get(0).last_batch[0]
        heavy_scores = per_image_best_psnr(
            target_batch, heavy.server.reconstructions[(0, 0)].images
        )
        assert np.max(light_scores) > 60.0, "light DP should not stop RTF"
        assert np.max(heavy_scores) < 60.0, "heavy DP should stop RTF"


class TestCAHEndToEnd:
    def test_oasis_mrsh_reduces_leakage(self, dataset):
        attack = CAHAttack(NUM_NEURONS, activation_probability=0.05, seed=3)
        attack.calibrate_from_public_data(dataset.images)
        undefended = run_attack_sim(dataset, attack, defense=None)
        target = undefended.fleet.get(0).last_batch[0]
        undefended_scores = per_image_best_psnr(
            target, undefended.server.reconstructions[(0, 0)].images
        )

        attack2 = CAHAttack(NUM_NEURONS, activation_probability=0.05, seed=3)
        attack2.calibrate_from_public_data(dataset.images)
        defended = run_attack_sim(dataset, attack2, OasisDefense("MR+SH"))
        target = defended.fleet.get(0).last_batch[0]
        defended_scores = per_image_best_psnr(
            target, defended.server.reconstructions[(0, 0)].images
        )
        assert defended_scores.mean() < undefended_scores.mean()


class TestTrainingStillWorks:
    def test_oasis_federation_learns(self, dataset):
        def factory():
            return MLP(
                [dataset.flat_dim, 48, dataset.num_classes],
                rng=np.random.default_rng(2),
            )
        sim = FederatedSimulation(
            dataset,
            factory,
            FederationConfig(num_clients=3, batch_size=4, learning_rate=0.1, seed=1),
            defense=OasisDefense("MR"),
        )
        records = sim.run(80)
        first = np.mean([r.mean_loss for r in records[:5]])
        last = np.mean([r.mean_loss for r in records[-5:]])
        assert last < first
        assert sim.evaluate(dataset) > 2.0 / dataset.num_classes
