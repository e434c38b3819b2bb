"""Sweep engine: grid enumeration, cell evaluation, resumable store."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_synthetic_dataset
from repro.experiments import (
    DEFAULT_SCENARIOS,
    SCENARIO_AXES,
    SweepCell,
    SweepOutcome,
    SweepRunner,
    SweepStore,
    SweepStoreError,
    headline_ordering_holds,
    headline_verdict,
    run_defense_lineup,
    run_sweep,
    run_tasks,
)
from repro.fl import FederationConfig
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def sweep_dataset():
    return make_synthetic_dataset(4, 12, image_size=8, seed=3, name="sweep")


def make_runner(dataset, store=None, **overrides):
    kwargs = dict(
        attacks=("rtf",),
        defenses=("WO", "MR"),
        scenarios=(FederationConfig("full", num_clients=2),),
        batch_size=3,
        num_neurons=48,
        public_size=48,
        seed=0,
        store=store,
    )
    kwargs.update(overrides)
    return SweepRunner(dataset, **kwargs)


# The store key of the (rtf, WO) cell of every scenario on the three named
# axes under ``make_runner``.  Each cell's seed derives from its key, so a
# changed key re-seeds the cell and orphans every stored result for it.
PINNED_STORE_KEYS = {
    "full": "rtf|WO|full|1f546feee64d",
    "sampled": "rtf|WO|sampled|f0a45c3c2483",
    "dropout": "rtf|WO|dropout|ea3350e1534e",
    "noniid": "rtf|WO|noniid|04f8c644453a",
    "plain": "rtf|WO|plain|1eea8ce146e9",
    "plain-drop": "rtf|WO|plain-drop|baa6fc7fd149",
    "secagg": "rtf|WO|secagg|2e019dcb1487",
    "secagg-drop": "rtf|WO|secagg-drop|501b2efb765d",
    "oneshot": "rtf|WO|oneshot|0338897937be",
    "oneshot-drop": "rtf|WO|oneshot-drop|826ff7b495a7",
    "uniform-time": "rtf|WO|uniform-time|ee423587e2c5",
    "tiered-time": "rtf|WO|tiered-time|2997f09c4c50",
    "tiered-stale": "rtf|WO|tiered-stale|5b09524ee0dc",
    "fleet-lazy": "rtf|WO|fleet-lazy|d9d6d3855608",
}


AXIS_SCENARIOS = [
    scenario
    for axis in ("default", "secagg", "fleet")
    for scenario in SCENARIO_AXES[axis]
]


class TestScenario:
    def test_pins_cover_every_axis_scenario(self):
        names = [scenario.name for scenario in AXIS_SCENARIOS]
        assert names == list(PINNED_STORE_KEYS)

    @pytest.mark.parametrize(
        "scenario", AXIS_SCENARIOS, ids=lambda scenario: scenario.name
    )
    def test_store_key_pinned(self, sweep_dataset, scenario):
        runner = make_runner(sweep_dataset, scenarios=(scenario,))
        key = runner.store_key(SweepCell("rtf", "WO", scenario.name))
        assert key == PINNED_STORE_KEYS[scenario.name]

    @pytest.mark.parametrize(
        "knob", [{"learning_rate": 0.05}, {"fleet_size": 5}], ids=str
    )
    def test_non_default_knob_changes_the_key(self, sweep_dataset, knob):
        scenario = replace(DEFAULT_SCENARIOS[0], **knob)
        runner = make_runner(sweep_dataset, scenarios=(scenario,))
        key = runner.store_key(SweepCell("rtf", "WO", "full"))
        assert key != PINNED_STORE_KEYS["full"]

    @pytest.mark.parametrize(
        "knob", [{"batch_size": 3}, {"seed": 7}], ids=str
    )
    def test_runner_owned_fields_refused(self, sweep_dataset, knob):
        scenario = replace(DEFAULT_SCENARIOS[0], **knob)
        with pytest.raises(ValueError, match="runner owns batch_size and seed"):
            make_runner(sweep_dataset, scenarios=(scenario,))

    def test_instances_refused(self, sweep_dataset):
        from repro.fl.aggregators import make_aggregator
        from repro.fl.arrivals import make_arrivals

        for knob in (
            {"aggregator": make_aggregator("fedavg")},
            {"arrivals": make_arrivals("uniform")},
        ):
            scenario = replace(DEFAULT_SCENARIOS[0], **knob)
            with pytest.raises(ValueError, match="cannot fingerprint"):
                make_runner(sweep_dataset, scenarios=(scenario,))

    def test_unnamed_scenario_refused(self, sweep_dataset):
        with pytest.raises(ValueError, match="needs a name"):
            make_runner(sweep_dataset, scenarios=(FederationConfig(),))

    def test_duplicate_names_rejected(self, sweep_dataset):
        with pytest.raises(ValueError):
            make_runner(
                sweep_dataset,
                scenarios=(
                    FederationConfig("dup"),
                    FederationConfig("dup", num_clients=4),
                ),
            )

    def test_empty_axis_rejected(self, sweep_dataset):
        with pytest.raises(ValueError):
            make_runner(sweep_dataset, attacks=())

    def test_duplicate_axis_entries_rejected(self, sweep_dataset):
        # A duplicated entry would make one cell land in both `computed`
        # and `cached` within a single run.
        with pytest.raises(ValueError, match="duplicate attacks"):
            make_runner(sweep_dataset, attacks=("rtf", "rtf"))
        with pytest.raises(ValueError, match="duplicate defenses"):
            make_runner(sweep_dataset, defenses=("WO", "MR", "WO"))


class TestSmokeSweep:
    """Tier-1-safe: a 2-cell sweep end to end, well under the 5s budget."""

    def test_two_cell_sweep_end_to_end(self, sweep_dataset):
        outcome = make_runner(sweep_dataset).run()
        assert len(outcome.results) == 2
        assert len(outcome.computed) == 2
        assert outcome.cached == []
        for result in outcome.results.values():
            assert result["num_reconstructions"] > 0
            assert result["num_scored"] > 0

    def test_headline_ordering_no_defense_beats_mr(self, sweep_dataset):
        # The acceptance shape: (RTF, no defense) PSNR > (RTF, MR).
        outcome = make_runner(sweep_dataset).run()
        assert headline_ordering_holds(outcome)
        assert outcome.mean_psnr("rtf", "WO", "full") > 100.0
        assert outcome.mean_psnr("rtf", "MR", "full") < 60.0

    def test_cells_leave_no_tensor_for_the_cyclic_collector(self, sweep_dataset):
        """Every graph and model a cell builds is freed by refcounting."""
        runner = make_runner(sweep_dataset)
        flags = gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for cell in runner.cells():
                runner.run_cell(cell)
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage if isinstance(o, Tensor)]
        finally:
            gc.garbage.clear()
            gc.set_debug(flags)
            gc.enable()
        assert leaked == []

    def test_cells_enumerate_deterministically(self, sweep_dataset):
        runner = make_runner(sweep_dataset)
        assert runner.cells() == [
            SweepCell("rtf", "WO", "full"),
            SweepCell("rtf", "MR", "full"),
        ]

    def test_table_renders(self, sweep_dataset):
        outcome = make_runner(sweep_dataset).run()
        table = outcome.to_table()
        assert "rtf/full" in table
        assert "WO" in table and "MR" in table


class TestStoreResume:
    def test_resume_skips_finished_cells(self, sweep_dataset, tmp_path):
        path = tmp_path / "sweep.json"
        first = make_runner(sweep_dataset, store=path).run()
        assert len(first.computed) == 2

        resumed_store = SweepStore(path)
        resumed = make_runner(sweep_dataset, store=resumed_store).run()
        assert resumed.computed == []
        assert sorted(resumed.cached) == sorted(first.results)
        assert resumed.results == first.results
        assert resumed_store.hits == 2

    def test_partial_resume_computes_only_missing(self, sweep_dataset, tmp_path):
        path = tmp_path / "sweep.json"
        first = make_runner(sweep_dataset, store=path).run()
        # Widen the grid: the old cells come from cache, the new one runs.
        wider = make_runner(
            sweep_dataset, store=path, defenses=("WO", "MR", "HFlip")
        ).run()
        assert sorted(wider.cached) == sorted(first.results)
        assert wider.computed == [SweepCell("rtf", "HFlip", "full").key]

    def test_different_config_never_served_from_cache(self, sweep_dataset, tmp_path):
        # A reused store file must not hand one configuration's PSNRs to
        # another: the store key fingerprints batch size, neuron count,
        # seed, dataset, and the scenario's parameters — not just names.
        path = tmp_path / "sweep.json"
        make_runner(sweep_dataset, store=path).run()
        rebatched = make_runner(sweep_dataset, store=path, batch_size=2).run()
        assert len(rebatched.computed) == 2 and rebatched.cached == []
        renamed_scenario = make_runner(
            sweep_dataset, store=path,
            scenarios=(FederationConfig("full", num_clients=4),),
        ).run()
        assert len(renamed_scenario.computed) == 2
        assert renamed_scenario.cached == []

    def test_same_name_different_dataset_not_served(self, sweep_dataset, tmp_path):
        # The fingerprint covers dataset *content*: a regenerated dataset
        # under the same name must not inherit the old dataset's cells.
        path = tmp_path / "sweep.json"
        make_runner(sweep_dataset, store=path).run()
        lookalike = make_synthetic_dataset(
            4, 12, image_size=8, seed=99, name="sweep"
        )
        rerun = make_runner(lookalike, store=path).run()
        assert len(rerun.computed) == 2 and rerun.cached == []

    def test_corrupt_store_detected_not_silently_emptied(self, tmp_path):
        # A store truncated mid-write (or otherwise damaged) must raise a
        # clear error instead of parsing as empty — silently recomputing a
        # large grid is the worse failure mode.
        path = tmp_path / "sweep.json"
        path.write_text("{not json")
        with pytest.raises(SweepStoreError, match="corrupt"):
            SweepStore(path)

    def test_torn_tail_recovered_not_fatal(self, tmp_path):
        # A log store killed mid-append leaves at most one partial final
        # line; the next open drops exactly that record (it recomputes)
        # instead of refusing the whole store.
        path = tmp_path / "sweep.json"
        store = SweepStore(path)
        store.put("cell-a", {"mean_psnr": 1.0})
        store.put("cell-b", {"mean_psnr": 2.0})
        store.close()
        intact = path.read_bytes()
        path.write_bytes(intact[:-7])  # tear the final record
        reopened = SweepStore(path)
        assert reopened.get("cell-a") == {"mean_psnr": 1.0}
        assert reopened.get("cell-b") is None
        # Appending over the torn tail leaves a clean, loadable store.
        reopened.put("cell-b", {"mean_psnr": 3.0})
        reopened.close()
        assert SweepStore(path).get("cell-b") == {"mean_psnr": 3.0}

    def test_corrupt_mid_file_detected(self, tmp_path):
        # Damage *before* intact records cannot come from this writer's
        # crashes (only the final line can tear) — refuse the store.
        path = tmp_path / "sweep.json"
        store = SweepStore(path)
        store.put("cell-a", {"mean_psnr": 1.0})
        store.put("cell-b", {"mean_psnr": 2.0})
        store.close()
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"k": broken\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(SweepStoreError, match="corrupt"):
            SweepStore(path)

    def test_foreign_json_detected(self, tmp_path):
        # A file without the log header is outside input (the pre-log
        # {"cells": ...} format included); refusing it, bytes untouched,
        # protects it from being overwritten by the next put().
        path = tmp_path / "sweep.json"
        for foreign in (b'{"other": 1}', b'{"cells": {"a": 1}}', b"", b"x\n"):
            path.write_bytes(foreign)
            with pytest.raises(SweepStoreError, match="header"):
                SweepStore(path)
            assert path.read_bytes() == foreign

    def test_memory_store_counts_hits_and_misses(self):
        store = SweepStore()
        assert store.get("missing") is None
        store.put("key", 3.0)
        assert store.get("key") == 3.0
        assert store.misses == 1
        assert store.hits == 1


class TestHarnessesShareStore:
    def test_run_sweep_resumes_from_store(self, sweep_dataset, tmp_path):
        store = SweepStore(tmp_path / "fig3.json")
        first = run_sweep(
            sweep_dataset, "rtf", batch_sizes=(3,), neuron_counts=(32,),
            num_trials=1, store=store,
        )
        assert store.misses == 1
        again = run_sweep(
            sweep_dataset, "rtf", batch_sizes=(3,), neuron_counts=(32,),
            num_trials=1, store=SweepStore(tmp_path / "fig3.json"),
        )
        np.testing.assert_array_equal(first.grid, again.grid)

    def test_run_defense_lineup_resumes_from_store(self, sweep_dataset, tmp_path):
        store = SweepStore(tmp_path / "fig5.json")
        first = run_defense_lineup(
            sweep_dataset, "rtf", 3, 32, ("WO", "MR"), num_trials=1,
            store=store,
        )
        resumed_store = SweepStore(tmp_path / "fig5.json")
        again = run_defense_lineup(
            sweep_dataset, "rtf", 3, 32, ("WO", "MR"), num_trials=1,
            store=resumed_store,
        )
        assert resumed_store.hits == 2
        for name in ("WO", "MR"):
            np.testing.assert_array_equal(
                first.distributions[name], again.distributions[name]
            )


def _negate(payload):
    """A trivial picklable task."""
    return -payload


# Each grid driver over a one-cell grid, reporting that cell's value, and
# a sentinel value no real evaluation of the cell produces.
GRID_DRIVERS = {
    "SweepRunner.run": (
        lambda dataset, store: make_runner(
            dataset, store=store, defenses=("WO",)
        ).run().results["rtf|WO|full"],
        {"mean_psnr": -1.0},
    ),
    "run_sweep": (
        lambda dataset, store: run_sweep(
            dataset, "rtf", batch_sizes=(3,), neuron_counts=(32,),
            num_trials=1, store=store,
        ).grid[0, 0],
        -1.0,
    ),
    "run_defense_lineup": (
        lambda dataset, store: list(run_defense_lineup(
            dataset, "rtf", 3, 32, ("WO",), num_trials=1, store=store,
        ).distributions["WO"]),
        [-1.0],
    ),
}


class TestSharedDriver:
    """Every grid runs through run_tasks: serve cached, execute the rest."""

    @pytest.mark.parametrize("driver", sorted(GRID_DRIVERS))
    def test_stored_cell_is_served_cached(self, driver, sweep_dataset, tmp_path):
        run, sentinel = GRID_DRIVERS[driver]
        reference = SweepStore(tmp_path / "reference.json")
        run(sweep_dataset, reference)
        [key] = reference.keys()
        path = tmp_path / "store.json"
        SweepStore(path).put(key, sentinel)
        # The sentinel comes back: the cell was not recomputed.
        assert run(sweep_dataset, SweepStore(path)) == sentinel
        assert SweepStore(path).get(key) == sentinel

    def test_results_in_task_order_marked_cached(self, tmp_path):
        store = SweepStore(tmp_path / "s.json")
        store.put("b", -2)
        events = []
        executions = run_tasks(
            [("a", _negate, 1), ("b", _negate, 2), ("c", _negate, 3)],
            store,
            progress=events.append,
        )
        assert [e.result for e in executions] == [-1, -2, -3]
        assert [e.cached for e in executions] == [False, True, False]
        assert [(e.key, e.status) for e in events] == [
            ("b", "cached"), ("a", "done"), ("c", "done"),
        ]
        assert sorted(SweepStore(tmp_path / "s.json").keys()) == list("abc")


class TestHarnessParallelAndFailures:
    """The per-figure harnesses ride the same executor engine."""

    def test_run_sweep_parallel_matches_serial(self, sweep_dataset, tmp_path):
        kwargs = dict(batch_sizes=(2, 3), neuron_counts=(24, 32), num_trials=1)
        serial = run_sweep(
            sweep_dataset, "rtf", store=SweepStore(tmp_path / "s.json"), **kwargs
        )
        parallel = run_sweep(
            sweep_dataset, "rtf", store=SweepStore(tmp_path / "p.json"),
            workers=2, **kwargs,
        )
        np.testing.assert_array_equal(serial.grid, parallel.grid)
        assert (tmp_path / "s.json").read_bytes() == (
            tmp_path / "p.json"
        ).read_bytes()

    def test_run_sweep_failure_lands_in_errors_not_exception(
        self, sweep_dataset
    ):
        result = run_sweep(
            sweep_dataset, "not-an-attack", batch_sizes=(3,),
            neuron_counts=(32,), num_trials=1,
        )
        assert np.isnan(result.grid[0, 0])
        # The registry's unknown-name error (a ValueError subclass).
        assert result.errors[(32, 3)]["type"] == "UnknownNameError"
        # An all-NaN column yields no optimum rather than a NaN winner.
        assert result.optima == {}

    def test_optima_ignore_nan_cells(self):
        from repro.experiments import SweepResult

        result = SweepResult(
            attack="rtf", dataset="d", batch_sizes=(3,),
            neuron_counts=(24, 32), grid=np.array([[np.nan], [7.0]]),
        )
        result.compute_optima()
        assert result.optima[3] == (32, 7.0)

    def test_run_defense_lineup_parallel_matches_serial(
        self, sweep_dataset, tmp_path
    ):
        serial = run_defense_lineup(
            sweep_dataset, "rtf", 3, 32, ("WO", "MR"), num_trials=1,
            store=SweepStore(tmp_path / "s.json"),
        )
        parallel = run_defense_lineup(
            sweep_dataset, "rtf", 3, 32, ("WO", "MR"), num_trials=1,
            store=SweepStore(tmp_path / "p.json"), workers=2,
        )
        assert list(serial.distributions) == list(parallel.distributions)
        for name in serial.distributions:
            np.testing.assert_array_equal(
                serial.distributions[name], parallel.distributions[name]
            )

    def test_run_defense_lineup_failed_arm_recorded(self, sweep_dataset):
        result = run_defense_lineup(
            sweep_dataset, "rtf", 3, 32, ("WO", "bogus-suite"), num_trials=1,
        )
        assert len(result.distributions["WO"]) > 0
        assert len(result.distributions["bogus-suite"]) == 0
        # Registry-backed resolution: the typo'd arm fails with the
        # name-listing UnknownNameError, not an opaque KeyError.
        assert result.errors["bogus-suite"]["type"] == "UnknownNameError"
        assert "registered defenses" in result.errors["bogus-suite"]["message"]
        assert "bogus-suite" in result.to_table()


class TestOutcomeEdgeCases:
    """Previously-untested paths: empty grids, single cells, failed cells."""

    def test_empty_outcome_headline_vacuously_false(self):
        assert headline_ordering_holds(SweepOutcome()) is False

    def test_empty_outcome_mean_psnr_raises_keyerror(self):
        with pytest.raises(KeyError, match="rtf|WO|full"):
            SweepOutcome().mean_psnr("rtf", "WO", "full")

    def test_single_cell_grid_has_no_headline_pair(self, sweep_dataset):
        outcome = make_runner(sweep_dataset, defenses=("WO",)).run()
        assert len(outcome.results) == 1
        assert headline_ordering_holds(outcome) is False
        assert outcome.mean_psnr("rtf", "WO", "full") > 0.0

    def test_error_cell_mean_psnr_raises_valueerror(self):
        outcome = SweepOutcome(
            results={
                "rtf|MR|full": {
                    "attack": "rtf",
                    "defense": "MR",
                    "scenario": "full",
                    "error": {"type": "KeyError", "message": "boom",
                              "traceback": ""},
                }
            },
            failed=["rtf|MR|full"],
        )
        with pytest.raises(ValueError, match="rtf\\|MR\\|full.*KeyError"):
            outcome.mean_psnr("rtf", "MR", "full")

    def test_error_cell_skipped_by_headline_and_rendered_as_err(
        self, sweep_dataset
    ):
        # A typo'd arm now fails fast at construction (see
        # test_unknown_defense_fails_fast in test_sweep_defenses.py), so a
        # mid-run failure needs an arm that validates but dies per cell:
        # the tabular defense rejects 4-D image batches at process_batch.
        outcome = make_runner(
            sweep_dataset, defenses=("WO", "MR", "tabular")
        ).run()
        # The tabular arm fails; the WO/MR pair still decides the headline.
        assert headline_ordering_holds(outcome) is True
        assert headline_ordering_holds(outcome, defended="tabular") is False
        assert "ERR" in outcome.to_table()

    def test_missing_pair_is_vacuously_false(self, sweep_dataset):
        # Cells exist for the attack but not the requested defense pair.
        outcome = make_runner(sweep_dataset, defenses=("WO", "MR")).run()
        assert headline_ordering_holds(outcome, defended="SH") is False


def _verdict_outcome(*cells) -> SweepOutcome:
    """An outcome of rtf cells given as ``(defense, scenario, fields)``."""
    results = {
        SweepCell("rtf", defense, scenario).key: {
            "attack": "rtf", "defense": defense, "scenario": scenario, **fields
        }
        for defense, scenario, fields in cells
    }
    return SweepOutcome(results=results)


class TestHeadlineVerdict:
    """Every outcome gets a verdict: holds, FAILS, or not checkable."""

    def test_holds_names_the_skipped_scenarios(self):
        outcome = _verdict_outcome(
            ("WO", "a", {"mean_psnr": 30.0}),
            ("MR", "a", {"mean_psnr": 12.0}),
            ("WO", "b", {"mean_psnr": 0.0, "updates": 0}),
            ("MR", "b", {"mean_psnr": 0.0, "updates": 0}),
        )
        holds, verdict = headline_verdict(outcome)
        assert holds is True
        assert verdict.startswith("headline ordering holds")
        assert "skipped b (WO no update, MR no update)" in verdict

    def test_fails_names_the_first_failing_scenario(self):
        outcome = _verdict_outcome(
            ("WO", "a", {"mean_psnr": 30.0}),
            ("MR", "a", {"mean_psnr": 12.0}),
            ("WO", "b", {"mean_psnr": 11.5}),
            ("MR", "b", {"mean_psnr": 14.25}),
            ("WO", "c", {"mean_psnr": 10.0}),
            ("MR", "c", {"mean_psnr": 20.0}),
        )
        holds, verdict = headline_verdict(outcome)
        assert holds is False
        assert verdict == (
            "headline ordering FAILS in b: WO mean PSNR 11.50 dB <= MR 14.25 dB"
        )

    def test_not_checkable_says_why(self):
        assert headline_verdict(SweepOutcome()) == (
            None,
            "headline ordering not checkable: no scenario has measured rtf "
            "cells for both WO and MR",
        )
        outcome = _verdict_outcome(
            ("WO", "a", {"mean_psnr": 30.0}),
            ("MR", "a", {"error": {"type": "KeyError", "message": "boom"}}),
        )
        holds, verdict = headline_verdict(outcome)
        assert holds is None and headline_ordering_holds(outcome) is False
        assert verdict.endswith("; skipped a (MR failed)")
        holds, verdict = headline_verdict(outcome, defended="SH")
        assert holds is None and "skipped a (SH absent)" in verdict


FULL = FederationConfig("full", num_clients=2)


class TestEmptyFederation:
    """A cell no update reached measured nothing: it is no perfect defense."""

    @pytest.fixture(scope="class")
    def full_only(self, sweep_dataset):
        return make_runner(sweep_dataset, attacks=("rtf", "loki")).run()

    def assert_unmeasured(self, outcome, scenario, full_only):
        for attack in ("rtf", "loki"):
            for defense in ("WO", "MR"):
                cell = outcome.results[SweepCell(attack, defense, scenario).key]
                assert cell["updates"] == 0
                assert cell["num_scored"] == 0
                with pytest.raises(ValueError, match="no client update"):
                    outcome.mean_psnr(attack, defense, scenario)
                measured = SweepCell(attack, defense, "full").key
                # Measured cells carry no "updates" key: their bytes stay.
                assert outcome.results[measured] == full_only.results[measured]
            row = next(
                line for line in outcome.to_table().splitlines()
                if line.startswith(f"{attack}/{scenario}")
            )
            assert row.split()[1:] == ["n/a", "n/a"]
        # The empty scenario does not decide the paper's headline check.
        assert headline_ordering_holds(full_only) is True
        for attack in ("rtf", "loki"):
            assert headline_ordering_holds(outcome, attack) == (
                headline_ordering_holds(full_only, attack)
            )

    @pytest.mark.parametrize(
        "scenario",
        [
            FederationConfig("alldrop", num_clients=4, dropout_rate=1.0),
            FederationConfig(
                "tiered-1us", num_clients=4, arrivals="tiered",
                round_duration_s=1e-6,
            ),
        ],
        ids=lambda scenario: scenario.name,
    )
    def test_no_arrival_is_no_measurement(self, sweep_dataset, full_only, scenario):
        outcome = make_runner(
            sweep_dataset, attacks=("rtf", "loki"), scenarios=(FULL, scenario)
        ).run()
        self.assert_unmeasured(outcome, scenario.name, full_only)

    def test_secagg_abort_below_threshold_is_no_measurement(
        self, sweep_dataset, full_only, monkeypatch
    ):
        # Updates arrive, but too few to unmask: LOKI has no aggregate.
        from repro.fl.server import Server

        records = []
        run_round = Server.run_round

        def recording_run_round(server):
            records.append(run_round(server))
            return records[-1]

        monkeypatch.setattr(Server, "run_round", recording_run_round)
        scenario = FederationConfig(
            "secagg-abort", num_clients=6, dropout_rate=0.5,
            aggregator="secagg(threshold=6)",
        )
        outcome = make_runner(
            sweep_dataset, attacks=("rtf", "loki"), scenarios=(FULL, scenario)
        ).run()
        aborted = [record.secagg for record in records if record.secagg]
        assert len(aborted) == 4
        for meta in aborted:
            assert meta["aborted"] and 0 < meta["survivors"] < meta["threshold"]
        self.assert_unmeasured(outcome, scenario.name, full_only)


class TestCommandLine:
    def test_module_cli_runs_without_runpy_warning(self):
        # The package re-exports sweep names lazily, so ``-m`` finds no
        # sweep module already imported and runpy has nothing to warn of.
        src = Path(__file__).resolve().parent.parent / "src"
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.experiments.sweep", "--help"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert completed.returncode == 0, completed.stderr
        assert "RuntimeWarning" not in completed.stderr

    def test_package_resolves_reexports_on_demand(self):
        import repro.experiments as experiments
        from repro.experiments import sweep

        assert experiments.SweepStore is sweep.SweepStore
        assert all(hasattr(experiments, name) for name in experiments.__all__)
        with pytest.raises(AttributeError, match="no_such_name"):
            experiments.no_such_name


@pytest.mark.sweep_scale
class TestFullGrid:
    """The acceptance-scale grid; gated like other scale tests."""

    def test_acceptance_grid(self, cifar_like, tmp_path):
        # >= 2 attacks x >= 3 suites x >= 2 participation scenarios.
        kwargs = dict(
            attacks=("rtf", "cah"),
            defenses=("WO", "MR", "SH", "MR+SH"),
            scenarios=DEFAULT_SCENARIOS[:3],
            batch_size=4,
            num_neurons=64,
            public_size=100,
            seed=0,
        )
        path = tmp_path / "grid.json"
        outcome = SweepRunner(cifar_like, store=path, **kwargs).run()
        assert len(outcome.results) == 24
        assert headline_ordering_holds(outcome)
        assert headline_ordering_holds(outcome, attack="cah", defended="MR+SH")

        resumed = SweepRunner(cifar_like, store=path, **kwargs).run()
        assert resumed.computed == []
        assert resumed.results == outcome.results
