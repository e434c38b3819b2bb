"""Experiment harnesses: runners, sweeps, lineups, Table I, Fig 14, visuals."""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.attacks import model_for
from repro.defense import DPGradientDefense, OasisDefense
from repro.experiments import (
    FIG13_LINEUP,
    format_table,
    monotone_in_batch_size,
    reconstruction_gallery,
    render_ascii_image,
    render_pairs,
    run_ats_comparison,
    run_attack_trial,
    run_defense_lineup,
    run_sweep,
    run_table1,
    run_trial,
    side_by_side,
    table1_report,
    train_with_defense,
)
from repro.experiments.sweep import SweepRunner
from repro.fl.simulator import FederatedSimulation, FederationConfig
from repro.nn import MLP


class TestRunner:
    def test_rtf_trial_undefended_is_perfect(self, cifar_like):
        result = run_attack_trial(cifar_like, "rtf", 4, 100, seed=3)
        assert result.average_psnr > 120.0
        assert result.attack == "rtf"
        assert result.defense == "WO"

    def test_rtf_trial_defended_is_low(self, cifar_like):
        result = run_attack_trial(
            cifar_like, "rtf", 4, 100, defense=OasisDefense("MR"), seed=3
        )
        assert result.average_psnr < 40.0

    def test_cah_trial_runs(self, cifar_like):
        result = run_attack_trial(cifar_like, "cah", 8, 100, seed=3)
        assert result.num_reconstructions > 0

    def test_unknown_attack_rejected(self, cifar_like):
        with pytest.raises(ValueError):
            run_attack_trial(cifar_like, "dlg", 4, 100)

    def test_linear_trial(self, cifar_like):
        result = run_attack_trial(cifar_like, "linear", 8, 0, seed=3)
        assert result.attack == "linear"
        assert result.num_reconstructions == 8

    def test_trial_returns_the_batch_the_gradients_came_from(self, cifar_like):
        # The defended batch is the pipeline's own batch-hook output: MR
        # expands each image into itself and its rotations, in order.
        defense = OasisDefense("MR")
        trial = run_trial(cifar_like, "rtf", 4, 100, defense, seed=3)
        expanded, _ = defense.expand_batch(trial.images, np.zeros(4, dtype=int))
        np.testing.assert_array_equal(trial.defended_images, expanded)
        assert len(trial.result) > 0

    def test_dp_defense_reduces_rtf(self, cifar_like):
        clean = run_attack_trial(cifar_like, "rtf", 4, 100, seed=3)
        noisy = run_attack_trial(
            cifar_like, "rtf", 4, 100,
            defense=DPGradientDefense(clip_norm=1.0, noise_multiplier=0.5), seed=3,
        )
        assert noisy.average_psnr < clean.average_psnr

    def test_trials_reproducible(self, cifar_like):
        a = run_attack_trial(cifar_like, "rtf", 4, 100, seed=5)
        b = run_attack_trial(cifar_like, "rtf", 4, 100, seed=5)
        assert a.psnrs == b.psnrs


class TestSweep:
    def test_grid_shape_and_trend(self, cifar_like):
        result = run_sweep(
            cifar_like, "rtf",
            batch_sizes=(4, 16, 64),
            neuron_counts=(50, 150),
            num_trials=1,
        )
        assert result.grid.shape == (2, 3)
        assert monotone_in_batch_size(result) >= 0.5

    def test_optima_selected_per_batch(self, cifar_like):
        result = run_sweep(
            cifar_like, "rtf",
            batch_sizes=(4, 16),
            neuron_counts=(50, 150),
            num_trials=1,
        )
        assert set(result.optima) == {4, 16}
        for n, value in result.optima.values():
            assert n in (50, 150)
            assert value > 0.0

    def test_oversized_batch_is_nan(self, cifar_like):
        result = run_sweep(
            cifar_like, "rtf",
            batch_sizes=(4, 100_000),
            neuron_counts=(50,),
            num_trials=1,
        )
        assert np.isnan(result.grid[0, 1])

    def test_table_renders(self, cifar_like):
        result = run_sweep(
            cifar_like, "rtf", batch_sizes=(4,), neuron_counts=(50,), num_trials=1
        )
        table = result.to_table()
        assert "50" in table


class TestLineups:
    def test_fig5_style_lineup(self, cifar_like):
        result = run_defense_lineup(
            cifar_like, "rtf", 4, 100, ("WO", "MR"), num_trials=1
        )
        averages = result.averages()
        assert averages["WO"] > averages["MR"] + 80.0
        assert "WO" in result.to_table()

    def test_fig13_lineup(self, cifar_like):
        result = run_defense_lineup(
            cifar_like, "linear", 4, 0, ("WO", "MR"), num_trials=1
        )
        averages = result.averages()
        assert averages["WO"] > averages["MR"]

    # sha256 of each arm's float64 PSNR distribution, as the dedicated
    # Fig. 13 loop (one Sec. IV-D linear trial per trial) produced it before
    # the lineup ran linear-family attacks through the same trial.
    FIG13_DIGESTS = {
        "WO": "0f7a8e7dda7279a1e34e1581287b2f9dbbb720e6566cb178d3d6cc17c04c0bd3",
        "MR": "4a36763a738b8d0b85528d014eb17849c9b90b845553138f7f37802bdf011cb8",
        "mR": "6db47cab8e5a07a66d38a324062d513d1625f45e9190d3903207cb6d58167886",
        "SH": "00242555c281d16b1f633521e58e0c5c5b1e86404d67e84cd85604ba1516988b",
        "HFlip": "b849083cfe8e335f41361c15c0899158a0c11c5cd5dd3822321929c6846844fc",
        "VFlip": "f9a5d64c8703f10fd48df724243e089e3a394cdee2dce587b8029ffcd36f7025",
    }

    def test_linear_lineup_runs_the_sec_ivd_protocol(self, cifar_like):
        """The linear attack gets its single-layer model, not an imprint one."""
        result = run_defense_lineup(
            cifar_like, "linear", 4, 64, FIG13_LINEUP, num_trials=2, seed=19
        )
        assert result.errors == {}
        digests = {
            name: hashlib.sha256(
                np.asarray(values, dtype=np.float64).tobytes()
            ).hexdigest()
            for name, values in result.distributions.items()
        }
        assert digests == self.FIG13_DIGESTS
        assert all(len(v) == 8 for v in result.distributions.values())

    # sha256 of the float64 PSNR distributions (and of the sweep grid) of
    # the imprint-family figure path: Figs. 3-6 and their ablations run
    # through these lineups and sweeps, so a refactor of the trial that
    # moves one byte of them fails here.
    IMPRINT_LINEUP = ("WO", "MR", "dpsgd", "ats")
    RTF_DIGESTS = {
        "WO": "10778da63d278f79d8c76e05dd8a8448f208b991424b6011085caa14c9872a58",
        "MR": "f07118c0c06a3c962f80107a738a03055366a9f24c1f6f736a9bb8c6fdc04783",
        "dpsgd": "2fdf27fb5a7240d8b6634063b149a92c57f7a30a58a73462ec874cedbc353b4b",
        "ats": "bf5f0779b6c7dd091158e09d37adce354dbf6beba1fce8a504075d3bda9cd2a4",
    }
    CAH_DIGESTS = {
        "WO": "0861688f6bdd4ccb3084c8f6d0d3d006f01a00918eea3e627925da2aef352c28",
        "MR": "d4eaf27b515891abd32afe010c668eb6dc5cb333e80db9274a40bfed10243be2",
        "dpsgd": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ats": "eeeea90ec4377046a2ddc2e711f83adcdeb742ff3a8340f8a008ad488646b1cd",
    }
    SWEEP_GRID_DIGEST = (
        "376040ec3f4a6fe21d6dafa9632bac98a07aef400f4c5ca6685bbcc2a1c9236f"
    )

    @staticmethod
    def _digest(values) -> str:
        return hashlib.sha256(
            np.asarray(values, dtype=np.float64).tobytes()
        ).hexdigest()

    @pytest.mark.parametrize(
        "attack,batch_size,expected",
        [("rtf", 4, RTF_DIGESTS), ("cah", 8, CAH_DIGESTS)],
        ids=["rtf", "cah"],
    )
    def test_imprint_lineup_bytes_pinned(
        self, cifar_like, attack, batch_size, expected
    ):
        result = run_defense_lineup(
            cifar_like, attack, batch_size, 100, self.IMPRINT_LINEUP,
            num_trials=2, seed=19,
        )
        assert result.errors == {}
        digests = {
            name: self._digest(values)
            for name, values in result.distributions.items()
        }
        assert digests == expected

    def test_imprint_sweep_grid_bytes_pinned(self, cifar_like):
        result = run_sweep(
            cifar_like, "rtf",
            batch_sizes=(4, 16),
            neuron_counts=(50, 150),
            num_trials=1,
        )
        assert result.errors == {}
        assert self._digest(result.grid) == self.SWEEP_GRID_DIGEST

    @pytest.mark.parametrize("attack", ["rtf", "loki", "linear"])
    def test_sweep_cell_model_is_the_trial_model(self, cifar_like, attack):
        """One builder serves both paths: a sweep cell broadcasts the model
        :func:`model_for` builds at the cell seed, parameter by parameter."""
        runner = SweepRunner(
            cifar_like,
            attacks=(attack,),
            defenses=("WO",),
            scenarios=(FederationConfig("full", num_clients=2),),
            batch_size=2,
            num_neurons=16,
            rounds=1,
        )
        [cell] = runner.cells()
        seed = runner.cell_seed(cell)
        seen = []

        class Recording(FederatedSimulation):
            def __init__(self, dataset, model_factory, *args, **kwargs):
                seen.append(model_factory())
                super().__init__(dataset, model_factory, *args, **kwargs)

        with mock.patch("repro.experiments.sweep.FederatedSimulation", Recording):
            runner.run_cell(cell)
        expected = model_for(attack, cifar_like, 16, seed).state_dict()
        [broadcast] = seen
        assert sorted(broadcast.state_dict()) == sorted(expected)
        for name, value in broadcast.state_dict().items():
            np.testing.assert_array_equal(value, expected[name], err_msg=name)


class TestTable1:
    def _factory(self, dataset):
        return lambda: MLP([dataset.flat_dim, 32, dataset.num_classes],
                           rng=np.random.default_rng(1))

    def test_training_improves_over_chance(self, tiny_dataset):
        outcome = train_with_defense(
            tiny_dataset, tiny_dataset, self._factory(tiny_dataset),
            epochs=15, batch_size=8,
        )
        assert outcome.test_accuracy > 1.5 / tiny_dataset.num_classes

    def test_oasis_arm_trains_comparably(self, tiny_dataset):
        base = train_with_defense(
            tiny_dataset, tiny_dataset, self._factory(tiny_dataset),
            epochs=15, batch_size=8,
        )
        oasis = train_with_defense(
            tiny_dataset, tiny_dataset, self._factory(tiny_dataset),
            defense=OasisDefense("HFlip"), epochs=15, batch_size=8,
        )
        assert oasis.test_accuracy > base.test_accuracy - 0.35

    def test_run_table1_and_report(self, tiny_dataset):
        outcomes = run_table1(
            tiny_dataset, tiny_dataset, self._factory(tiny_dataset),
            lineup=("HFlip", "WO"), epochs=5, batch_size=8,
        )
        report = table1_report(outcomes)
        assert "WO" in report and "HFlip" in report


class TestATSComparison:
    def test_transform_replace_fails_oasis_succeeds(self, cifar_like):
        result = run_ats_comparison(cifar_like, batch_size=4, num_neurons=100)
        # Fig. 14's claim: ATS reconstructions reveal the (transformed)
        # training inputs at perfect-reconstruction quality...
        assert result.ats_vs_training_inputs > 100.0
        # ...while OASIS reconstructions match nothing.
        assert result.oasis_vs_originals < 40.0
        assert result.oasis_vs_training_inputs < 60.0


class TestVisual:
    def test_gallery_without_defense(self, cifar_like):
        gallery = reconstruction_gallery(cifar_like, "rtf", None, 4, 100, max_pairs=2)
        assert len(gallery.originals) == 2
        assert all(p > 100.0 for p in gallery.psnrs)

    def test_gallery_with_defense(self, cifar_like):
        gallery = reconstruction_gallery(cifar_like, "rtf", "MR", 4, 100, max_pairs=2)
        assert all(p < 60.0 for p in gallery.psnrs)

    def test_render_pairs(self, cifar_like):
        gallery = reconstruction_gallery(cifar_like, "rtf", "MR", 4, 100, max_pairs=1)
        art = render_pairs(gallery, width=16, max_pairs=1)
        assert "PSNR" in art
        assert "|" in art

    def test_gallery_save(self, cifar_like, tmp_path):
        gallery = reconstruction_gallery(cifar_like, "rtf", "MR", 4, 100, max_pairs=1)
        gallery.save(tmp_path)
        saved = list(tmp_path.glob("*.npy"))
        assert len(saved) == 2


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "2.50" in table

    def test_render_ascii_image_dimensions(self, rng):
        art = render_ascii_image(rng.random((3, 16, 16)), width=20)
        lines = art.splitlines()
        assert all(len(line) == 20 for line in lines)

    def test_side_by_side(self):
        joined = side_by_side("ab\ncd", "xy\nzw")
        assert "ab" in joined.splitlines()[0]
        assert "xy" in joined.splitlines()[0]
