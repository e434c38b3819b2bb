"""The `python -m repro.experiments.sweep` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.sweep import GRID_PRESETS, SweepStore, main


def test_smoke_grid_runs_and_persists(tmp_path, capsys):
    store = tmp_path / "sweep.json"
    exit_code = main(["--grid", "smoke", "--store", str(store)])
    assert exit_code == 0
    cells = SweepStore(store)
    assert len(cells) == 2
    output = capsys.readouterr().out
    assert "2 computed, 0 cached, 0 failed" in output
    assert "headline ordering holds" in output
    assert "done in" in output  # per-cell progress lines


def test_cli_prints_a_verdict_when_the_headline_is_not_checkable(
    tmp_path, capsys
):
    store = tmp_path / "sweep.json"
    exit_code = main(["--grid", "smoke", "--defenses", "WO", "--store", str(store)])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "headline ordering not checkable" in output
    assert "skipped full (MR absent)" in output


def test_existing_store_requires_resume_flag(tmp_path, capsys):
    store = tmp_path / "sweep.json"
    assert main(["--grid", "smoke", "--store", str(store)]) == 0
    with pytest.raises(SystemExit) as excinfo:
        main(["--grid", "smoke", "--store", str(store)])
    assert excinfo.value.code == 2
    assert "--resume" in capsys.readouterr().err


def test_resume_serves_finished_cells_from_store(tmp_path, capsys):
    store = tmp_path / "sweep.json"
    assert main(["--grid", "smoke", "--store", str(store)]) == 0
    before = store.read_bytes()
    assert main(["--grid", "smoke", "--store", str(store), "--resume"]) == 0
    assert store.read_bytes() == before
    assert "0 computed, 2 cached, 0 failed" in capsys.readouterr().out


def test_workers_flag_matches_serial_store(tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(["--grid", "smoke", "--store", str(serial)]) == 0
    assert (
        main(["--grid", "smoke", "--store", str(parallel), "--workers", "2"])
        == 0
    )
    assert serial.read_bytes() == parallel.read_bytes()


def test_workers_auto_matches_serial_store(tmp_path):
    # "auto" sizes the pool to the host; whatever it picks, the compacted
    # store must be byte-identical to the serial run.
    serial = tmp_path / "serial.json"
    auto = tmp_path / "auto.json"
    assert main(["--grid", "smoke", "--store", str(serial)]) == 0
    assert (
        main(["--grid", "smoke", "--store", str(auto), "--workers", "auto"])
        == 0
    )
    assert serial.read_bytes() == auto.read_bytes()


def test_workers_flag_rejects_garbage(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "--grid", "smoke",
            "--store", str(tmp_path / "x.json"),
            "--workers", "many",
        ])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3", "2.7"])
def test_workers_flag_rejects_counts_below_one_and_fractions(
    workers, tmp_path, capsys
):
    # Neither may fall back to a serial run or truncate to 2 workers.
    store = tmp_path / "x.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["--grid", "smoke", "--store", str(store), "--workers", workers])
    assert excinfo.value.code == 2
    assert "--workers must be an integer or 'auto'" in capsys.readouterr().err
    assert not store.exists()


def test_seed_flag_changes_results(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--grid", "smoke", "--store", str(a)]) == 0
    assert main(["--grid", "smoke", "--store", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_every_preset_builds_a_runner(tmp_path):
    for name, build in GRID_PRESETS.items():
        runner = build(seed=0, rounds=1, store=tmp_path / f"{name}.json")
        assert len(runner.cells()) >= 2


def test_attacks_flag_runs_the_whole_zoo(tmp_path, capsys):
    store = tmp_path / "zoo.json"
    exit_code = main([
        "--grid", "smoke",
        "--attacks", "rtf,cah,linear,qbi,loki",
        "--store", str(store),
    ])
    assert exit_code == 0
    cells = SweepStore(store)
    assert len(cells) == 10  # 5 attacks x (WO, MR) x full participation
    attacks = {key.split("|")[0] for key in cells.keys()}
    assert attacks == {"rtf", "cah", "linear", "qbi", "loki"}
    assert "10 computed" in capsys.readouterr().out


def test_attacks_flag_serial_parallel_stores_identical(tmp_path):
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    args = ["--grid", "smoke", "--attacks", "rtf,qbi,loki"]
    assert main(args + ["--store", str(serial)]) == 0
    assert main(args + ["--store", str(parallel), "--workers", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_smoke_zoo_grid_loads_no_scipy(tmp_path):
    # A fresh interpreter, so no other test's imports leak in.  The whole
    # attack zoo on the smoke grid runs on numpy alone: the attacks'
    # normal quantiles are a port of ``scipy.special.ndtri``.
    script = (
        "import json, sys\n"
        "from repro.experiments.sweep import main\n"
        "code = main(['--grid', 'smoke', '--attacks', 'rtf,cah,linear,qbi,loki',"
        " '--store', sys.argv[1]])\n"
        "print(json.dumps({'code': code, 'scipy': sorted(name"
        " for name in sys.modules if name.split('.')[0] == 'scipy')}))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    completed = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "zoo.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    assert report["scipy"] == []


def test_unknown_attack_name_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "--grid", "smoke",
            "--attacks", "rtf,nope",
            "--store", str(tmp_path / "x.json"),
        ])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "nope" in err and "registered attacks" in err


def test_duplicate_attack_name_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "--grid", "smoke",
            "--attacks", "rtf,rtf",
            "--store", str(tmp_path / "x.json"),
        ])
    assert excinfo.value.code == 2
    assert "twice" in capsys.readouterr().err


def test_empty_attacks_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "--grid", "smoke",
            "--attacks", " , ",
            "--store", str(tmp_path / "x.json"),
        ])
    assert excinfo.value.code == 2
    assert "at least one attack" in capsys.readouterr().err


def test_every_preset_accepts_attack_override(tmp_path):
    for name, build in GRID_PRESETS.items():
        runner = build(
            seed=0, rounds=1,
            store=tmp_path / f"{name}_override.json",
            attacks=("qbi", "loki"),
        )
        assert runner.attacks == ("qbi", "loki")


def test_knobbed_attack_arm_gets_its_own_cells(tmp_path, capsys):
    store = tmp_path / "knobbed.json"
    exit_code = main([
        "--grid", "smoke",
        "--attacks", "rtf,loki(activation_probability=0.1)",
        "--store", str(store),
    ])
    assert exit_code == 0
    attacks = {key.split("|")[0] for key in SweepStore(store).keys()}
    assert attacks == {"rtf", "loki(activation_probability=0.1)"}
    assert "4 computed" in capsys.readouterr().out


def test_undeclared_attack_knob_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "--grid", "smoke",
            "--attacks", "rtf(bogus=1)",
            "--store", str(tmp_path / "x.json"),
        ])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "measurement_mean" in err
    assert not (tmp_path / "x.json").exists()
