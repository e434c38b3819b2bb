"""Golden-file regression suite for the sweep engine's numeric output.

Snapshots of a fixed 50-cell grid (5 attacks x 5 defense arms x 2
scenarios) — ``SweepOutcome.to_table()`` and every per-cell result dict —
live in ``tests/golden/``.  Any change to the attack/defense hot path
(gradient algebra, PSNR matching, batch expansion, gradient defenses,
seed derivation) that shifts these numbers fails here, so silent numeric
drift can't ride in on an unrelated refactor.

When a change is *intended* to move the numbers (e.g. a new seeding
scheme), regenerate the snapshots and commit them with the change::

    PYTHONPATH=src python tests/test_sweep_golden.py

Float comparisons use a 1e-6 relative tolerance: tight enough to catch
real drift, loose enough to survive BLAS/numpy version differences across
CI hosts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"
CELLS_PATH = GOLDEN_DIR / "sweep_cells.json"
TABLE_PATH = GOLDEN_DIR / "sweep_table.txt"

REL_TOLERANCE = 1e-6


GOLDEN_DEFENSES = ("WO", "MR", "dpsgd", "prune", "MR>dpsgd")


def golden_runner(store=None):
    """The frozen 50-cell grid the snapshots were generated from.

    The attack axis covers the whole zoo and the defense axis spans the
    registry's families — no defense, OASIS expansion, both gradient-space
    baselines, and a composed stack — so numeric drift in *any* attack's
    gradient algebra, any defense's batch/gradient hooks, or the
    fingerprint-keyed seeding of stochastic stages (DP noise) fails here.
    Changing anything in this grid invalidates the snapshots — regenerate
    them in the same commit.
    """
    from repro.data import make_synthetic_dataset
    from repro.experiments import SweepRunner
    from repro.fl import FederationConfig

    dataset = make_synthetic_dataset(
        4, 12, image_size=8, seed=3, name="golden"
    )
    return SweepRunner(
        dataset,
        attacks=("rtf", "cah", "linear", "qbi", "loki"),
        defenses=GOLDEN_DEFENSES,
        scenarios=(
            FederationConfig("full", num_clients=2),
            FederationConfig("sampled", num_clients=4, clients_per_round=2),
        ),
        batch_size=3,
        num_neurons=48,
        public_size=48,
        seed=0,
        store=store,
    )


@pytest.fixture(scope="module")
def outcome():
    return golden_runner().run()


def test_golden_files_exist():
    assert CELLS_PATH.is_file(), (
        f"missing {CELLS_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/test_sweep_golden.py`"
    )
    assert TABLE_PATH.is_file()


def drift_from_golden(results: dict) -> list[str]:
    """Tolerance-aware comparison of cell results to the committed snapshot.

    The single definition of "golden drift", shared by the pytest suite
    and the CI ``--check`` gate: missing/extra cells, changed result
    fields, non-float mismatches, and float differences beyond
    ``REL_TOLERANCE`` (relative, with a 1e-9 absolute floor so zeros
    compare sanely).  Returns human-readable problem strings; empty means
    clean.
    """
    golden = json.loads(CELLS_PATH.read_text())["cells"]
    if sorted(results) != sorted(golden):
        return [f"grid shape drifted: {sorted(results)} != {sorted(golden)}"]
    problems: list[str] = []
    for key, expected in golden.items():
        actual = results[key]
        if sorted(actual) != sorted(expected):
            problems.append(f"result fields drifted in {key}")
            continue
        for field, value in expected.items():
            if isinstance(value, float):
                tolerance = max(REL_TOLERANCE * abs(value), 1e-9)
                if abs(actual[field] - value) > tolerance:
                    problems.append(
                        f"{key}.{field}: {actual[field]!r} != {value!r}"
                    )
            elif actual[field] != value:
                problems.append(f"{key}.{field}: {actual[field]!r} != {value!r}")
    return problems


def test_per_cell_results_match_golden(outcome):
    assert drift_from_golden(outcome.results) == [], (
        "regenerate the golden files if the change is intended"
    )


def test_table_matches_golden(outcome):
    assert outcome.to_table() == TABLE_PATH.read_text().rstrip("\n")


def test_golden_grid_still_shows_headline_ordering(outcome):
    from repro.experiments import headline_ordering_holds

    assert headline_ordering_holds(outcome)


def test_every_zoo_attack_present_in_golden_grid(outcome):
    from repro.attacks import ATTACKS

    covered = {result["attack"] for result in outcome.results.values()}
    assert covered == set(ATTACKS.names()), (
        "the golden grid must cover the whole attack zoo; extend "
        "golden_runner and regenerate when registering a new attack"
    )


def test_defense_families_present_in_golden_grid(outcome):
    # The defense axis must pin every registry family: no defense, OASIS
    # expansion, a stochastic gradient defense, a deterministic gradient
    # defense, and a composed pipeline.
    covered = {result["defense"] for result in outcome.results.values()}
    assert {"WO", "MR", "dpsgd", "prune", "MR>dpsgd"} <= covered


def test_parallel_executor_reproduces_golden_cells(tmp_path):
    # The zoo's fingerprint-keyed seeding must make a 2-worker run land on
    # exactly the frozen snapshots — not merely match a serial run.
    from repro.experiments import WorkStealingSweepExecutor

    store_path = tmp_path / "golden_parallel.json"
    outcome = golden_runner(store=store_path).run(WorkStealingSweepExecutor(2))
    assert drift_from_golden(outcome.results) == []


def regenerate() -> None:
    """Rewrite the golden snapshots from a fresh serial run."""
    result = golden_runner().run()
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    CELLS_PATH.write_text(
        json.dumps({"cells": result.results}, indent=2, sort_keys=True) + "\n"
    )
    TABLE_PATH.write_text(result.to_table() + "\n")
    print(f"wrote {CELLS_PATH}\nwrote {TABLE_PATH}")


def check() -> int:
    """Verify the committed snapshots match a fresh run, with tolerance.

    The CI regeneration-cleanliness gate: catches a grid or code change
    whose snapshots were not regenerated, using the same
    :func:`drift_from_golden` definition as the pytest suite rather than
    byte equality, which cross-host BLAS/numpy differences make too
    brittle.  Returns a process exit code.
    """
    problems = drift_from_golden(golden_runner().run().results)
    for problem in problems:
        print(f"GOLDEN DRIFT: {problem}")
    if problems:
        print(
            "regenerate intentionally-moved snapshots with "
            "`PYTHONPATH=src python tests/test_sweep_golden.py` and commit "
            "them with the change"
        )
        return 1
    print("golden snapshots clean (all cells within tolerance)")
    return 0


if __name__ == "__main__":
    import sys

    if "--check" in sys.argv[1:]:
        raise SystemExit(check())
    regenerate()
