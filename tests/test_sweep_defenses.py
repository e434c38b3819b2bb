"""The sweep's defense axis: composed stacks and gradient defenses in grids.

Satellite regressions for the defense-registry refactor: composed
pipelines and pure-gradient defenses run through the full sweep grid with
the same determinism guarantees as the OASIS arms, FedAvg weighting stays
at the pre-expansion batch size through any stack (the PR-2 weight-parity
fix under composition), and typo'd arms fail fast with a name-listing
error instead of one cell deep into a sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import ImprintedModel
from repro.data import make_synthetic_dataset
from repro.defense import make_defense
from repro.experiments import (
    SweepCell,
    SweepRunner,
    SweepStore,
    make_executor,
)
from repro.experiments.sweep import ZOO_DEFENSES, main
from repro.fl import Client, FederationConfig
from repro.fl.messages import ModelBroadcast
from repro.nn import CrossEntropyLoss
from repro.registry import UnknownNameError


@pytest.fixture(scope="module")
def sweep_dataset():
    return make_synthetic_dataset(4, 12, image_size=8, seed=3, name="sweep")


def make_runner(dataset, store=None, **overrides):
    kwargs = dict(
        attacks=("rtf",),
        defenses=("WO", "MR", "dpsgd", "prune", "MR>dpsgd"),
        scenarios=(FederationConfig("full", num_clients=2),),
        batch_size=3,
        num_neurons=48,
        public_size=48,
        seed=0,
        store=store,
    )
    kwargs.update(overrides)
    return SweepRunner(dataset, **kwargs)


class TestDefenseAxis:
    def test_composed_and_gradient_arms_complete(self, sweep_dataset):
        outcome = make_runner(sweep_dataset).run()
        assert outcome.failed == []
        assert len(outcome.results) == 5
        for defense in ("dpsgd", "prune", "MR>dpsgd"):
            result = outcome.results[SweepCell("rtf", defense, "full").key]
            assert result["defense"] == defense
            assert result["mean_psnr"] >= 0.0

    def test_composed_arm_weakens_attack_below_undefended(self, sweep_dataset):
        outcome = make_runner(sweep_dataset).run()
        composed = outcome.mean_psnr("rtf", "MR>dpsgd", "full")
        undefended = outcome.mean_psnr("rtf", "WO", "full")
        assert composed < undefended

    def test_knobbed_spec_string_is_a_valid_arm(self, sweep_dataset):
        outcome = make_runner(
            sweep_dataset,
            defenses=("WO", "dpsgd(noise_multiplier=0.5)"),
        ).run()
        assert outcome.failed == []
        assert (
            SweepCell("rtf", "dpsgd(noise_multiplier=0.5)", "full").key
            in outcome.results
        )

    def test_unknown_defense_fails_fast_at_construction(self, sweep_dataset):
        with pytest.raises(UnknownNameError, match="registered defenses"):
            make_runner(sweep_dataset, defenses=("WO", "typo-defense"))
        with pytest.raises(UnknownNameError):
            make_runner(sweep_dataset, defenses=("MR>typo",))

    def test_stochastic_arms_serial_parallel_byte_identical(
        self, sweep_dataset, tmp_path
    ):
        # The determinism contract extends to arms that draw noise: DP and
        # composed cells derive their streams from the cell fingerprint,
        # so a 2-worker store matches the serial one byte for byte.
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        make_runner(sweep_dataset, store=serial).run()
        make_runner(sweep_dataset, store=parallel).run(make_executor(2))
        assert serial.read_bytes() == parallel.read_bytes()

    def test_zoo_lineup_constructs(self, sweep_dataset):
        # The CI defense-zoo lineup is always a valid axis.
        runner = make_runner(sweep_dataset, defenses=ZOO_DEFENSES)
        assert len(runner.cells()) == len(ZOO_DEFENSES)


class TestFedAvgWeightParity:
    """Reported example counts stay pre-expansion through any stack."""

    @pytest.mark.parametrize(
        "spec", ["MR", "MR>dpsgd", "MR>prune", "MR+SH>dpsgd(noise_multiplier=0.5)"]
    )
    def test_client_update_reports_pre_expansion_examples(
        self, sweep_dataset, spec
    ):
        model = ImprintedModel((3, 8, 8), 16, 4, rng=np.random.default_rng(1))
        client = Client(
            client_id=0,
            dataset=sweep_dataset,
            model=model,
            loss_fn=CrossEntropyLoss(),
            batch_size=3,
            defense=make_defense(spec, seed=5),
            seed=0,
        )
        update = client.local_update(
            ModelBroadcast(round_index=0, state=model.state_dict())
        )
        # Expansion is a privacy mechanism, not extra data: under
        # example-weighted FedAvg the defended client must weigh exactly
        # like an undefended one.
        assert update.num_examples == 3

    def test_pure_gradient_defense_reports_batch_size(self, sweep_dataset):
        model = ImprintedModel((3, 8, 8), 16, 4, rng=np.random.default_rng(1))
        client = Client(
            client_id=0,
            dataset=sweep_dataset,
            model=model,
            loss_fn=CrossEntropyLoss(),
            batch_size=3,
            defense=make_defense("prune"),
            seed=0,
        )
        update = client.local_update(
            ModelBroadcast(round_index=0, state=model.state_dict())
        )
        assert update.num_examples == 3


class TestDefensesCLI:
    def test_defenses_flag_runs_the_lineup(self, tmp_path, capsys):
        store = tmp_path / "defenses.json"
        exit_code = main([
            "--grid", "smoke",
            "--defenses", "WO,MR,dpsgd,prune,MR>dpsgd",
            "--store", str(store),
        ])
        assert exit_code == 0
        cells = SweepStore(store)
        assert len(cells) == 5
        defenses = {key.split("|")[1] for key in cells.keys()}
        assert defenses == {"WO", "MR", "dpsgd", "prune", "MR>dpsgd"}
        assert "5 computed" in capsys.readouterr().out

    def test_defenses_flag_serial_parallel_stores_identical(self, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        args = [
            "--grid", "smoke",
            "--attacks", "rtf,qbi",
            "--defenses", "WO,MR,dpsgd,MR>dpsgd",
        ]
        assert main(args + ["--store", str(serial)]) == 0
        assert main(args + ["--store", str(parallel), "--workers", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_knobbed_spec_with_commas_splits_correctly(self, tmp_path):
        store = tmp_path / "knobbed.json"
        exit_code = main([
            "--grid", "smoke",
            "--defenses", "WO,dpsgd(clip_norm=2.0,noise_multiplier=0.5)",
            "--store", str(store),
        ])
        assert exit_code == 0
        assert len(SweepStore(store)) == 2  # the knobbed spec is ONE arm, not two

    def test_unknown_defense_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--grid", "smoke",
                "--defenses", "WO,nope",
                "--store", str(tmp_path / "x.json"),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "nope" in err and "registered defenses" in err

    def test_bad_suite_knob_is_a_usage_error(self, tmp_path, capsys):
        # UnknownSuiteError (KeyError family) raised inside the ats
        # factory must still land as a clean usage error, not a raw
        # traceback escaping the CLI's ValueError handling.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--grid", "smoke",
                "--defenses", "ats(suite=XYZ)",
                "--store", str(tmp_path / "x.json"),
            ])
        assert excinfo.value.code == 2
        assert "XYZ" in capsys.readouterr().err

    def test_unknown_knob_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--grid", "smoke",
                "--defenses", "dpsgd(bogus=1)",
                "--store", str(tmp_path / "x.json"),
            ])
        assert excinfo.value.code == 2
        assert "declared knobs" in capsys.readouterr().err

    def test_duplicate_defense_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--grid", "smoke",
                "--defenses", "MR,MR",
                "--store", str(tmp_path / "x.json"),
            ])
        assert excinfo.value.code == 2
        assert "twice" in capsys.readouterr().err

    def test_empty_defenses_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--grid", "smoke",
                "--defenses", " , ",
                "--store", str(tmp_path / "x.json"),
            ])
        assert excinfo.value.code == 2
        assert "at least one defense" in capsys.readouterr().err
