"""Parallel sweep execution: determinism, resume, failure isolation.

The engine's contract: serial runs, parallel runs with any worker count,
and resumed-after-kill runs of the same grid all produce the identical
``store_key -> result`` mapping — and therefore byte-identical persisted
stores — because every cell's randomness is keyed by its configuration
fingerprint, never by execution order or worker assignment.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_synthetic_dataset
from repro.experiments import (
    CellEvent,
    SerialSweepExecutor,
    SweepCell,
    SweepRunner,
    SweepStore,
    WorkStealingSweepExecutor,
    headline_ordering_holds,
    make_executor,
    run_tasks,
)
from repro.experiments import sweep as sweep_module
from repro.fl import FederationConfig


@pytest.fixture(scope="module")
def sweep_dataset():
    return make_synthetic_dataset(4, 12, image_size=8, seed=3, name="sweep")


# A registered arm that validates fine but fails inside every image
# cell: the tabular defense rejects 4-D image batches at process_batch.
# Being a built-in registry entry, it exists in every worker regardless
# of the multiprocessing start method (spawn workers re-import the
# registry fresh and would never see a test-local registration).
FAILING_DEFENSE = "tabular"


def make_runner(dataset, store=None, **overrides):
    """The smoke grid: 4 cells of rtf x (WO, MR) x (full, sampled)."""
    kwargs = dict(
        attacks=("rtf",),
        defenses=("WO", "MR"),
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
    kwargs.update(overrides)
    return SweepRunner(dataset, **kwargs)


class TestExecutorEquivalence:
    def test_two_worker_store_byte_identical_to_serial(
        self, sweep_dataset, tmp_path
    ):
        # The acceptance criterion: the parallel store file is the same
        # bytes as the serial one (sort_keys makes key order canonical).
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial = make_runner(sweep_dataset, store=serial_path).run()
        parallel = make_runner(sweep_dataset, store=parallel_path).run(
            WorkStealingSweepExecutor(2)
        )
        assert len(serial.computed) == len(parallel.computed) == 4
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        assert parallel.results == serial.results
        # The parent is the one writer: workers leave no files behind.
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "parallel.json",
            "serial.json",
        ]

    def test_secagg_arm_byte_identical_to_serial(self, sweep_dataset, tmp_path):
        # The protocol aggregators run full SecAgg rounds inside each
        # cell (key advertisement, Shamir shares, unmasking) — all of it
        # keyed by the cell fingerprint, so the byte-identity contract
        # must hold for secagg arms exactly as for plain ones.
        scenarios = (
            FederationConfig(
                "plain", num_clients=2, aggregator="masked_sum"
            ),
            FederationConfig(
                "secagg-drop",
                num_clients=6,
                dropout_rate=0.25,
                aggregator="secagg",
            ),
            FederationConfig(
                "oneshot-drop",
                num_clients=6,
                dropout_rate=0.25,
                aggregator="secagg_oneshot",
            ),
        )
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial = make_runner(
            sweep_dataset, store=serial_path, scenarios=scenarios
        ).run()
        parallel = make_runner(
            sweep_dataset, store=parallel_path, scenarios=scenarios
        ).run(WorkStealingSweepExecutor(2))
        assert len(serial.computed) == len(parallel.computed) == 6
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        assert parallel.results == serial.results

    def test_time_cutoff_arms_byte_identical_to_serial(
        self, sweep_dataset, tmp_path
    ):
        # Event-engine arms: rounds close on the virtual clock, arrival
        # traces come from per-(client, round) keyed streams, and one arm
        # samples a lazy fleet.  None of that may depend on worker count
        # — simulated time is as order-invariant as everything else.
        scenarios = sweep_module.FLEET_SCENARIOS
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial = make_runner(
            sweep_dataset, store=serial_path, scenarios=scenarios
        ).run()
        parallel = make_runner(
            sweep_dataset, store=parallel_path, scenarios=scenarios
        ).run(WorkStealingSweepExecutor(2))
        assert len(serial.computed) == len(parallel.computed) == 2 * len(
            scenarios
        )
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        assert parallel.results == serial.results

    def test_worker_count_invariance(self, sweep_dataset, tmp_path):
        references = None
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.json"
            executor = (
                SerialSweepExecutor()
                if workers == 1
                else WorkStealingSweepExecutor(workers)
            )
            make_runner(sweep_dataset, store=path).run(executor)
            content = path.read_bytes()
            if references is None:
                references = content
            assert content == references, f"{workers}-worker store diverged"

    def test_parallel_outcome_populates_timings_and_order(
        self, sweep_dataset, tmp_path
    ):
        outcome = make_runner(sweep_dataset, store=tmp_path / "s.json").run(
            WorkStealingSweepExecutor(2)
        )
        # Grid-order results regardless of completion order, with a timing
        # per computed cell.
        runner = make_runner(sweep_dataset)
        assert list(outcome.results) == [cell.key for cell in runner.cells()]
        assert sorted(outcome.timings) == sorted(outcome.results)
        assert all(elapsed >= 0.0 for elapsed in outcome.timings.values())

    def test_make_executor_selects_by_workers(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "usable_cpu_count", lambda: 8)
        assert isinstance(make_executor(1), SerialSweepExecutor)
        assert isinstance(make_executor(4), WorkStealingSweepExecutor)
        assert make_executor(4).workers == 4
        assert make_executor(np.int64(3)).workers == 3
        with pytest.raises(ValueError):
            WorkStealingSweepExecutor(0)

    @pytest.mark.parametrize(
        "workers, error",
        [(0, ValueError), (-3, ValueError), (2.7, TypeError), ("2", TypeError)],
    )
    def test_make_executor_rejects_bad_worker_counts(
        self, monkeypatch, workers, error
    ):
        # A count below 1 must not fall back to serial, and a fraction
        # must not truncate.
        monkeypatch.setattr(sweep_module, "usable_cpu_count", lambda: 8)
        with pytest.raises(error):
            make_executor(workers)

    def test_make_executor_caps_at_usable_cores(self, monkeypatch):
        # The 0.29x regression: forcing 4 workers onto a 1-core host made
        # the "parallel" run slower than serial.  make_executor now warns
        # and reduces instead of oversubscribing...
        monkeypatch.setattr(sweep_module, "usable_cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="2 usable core"):
            executor = make_executor(4)
        assert isinstance(executor, WorkStealingSweepExecutor)
        assert executor.workers == 2

    def test_make_executor_degrades_to_serial_on_one_core(self, monkeypatch):
        # ...and on a 1-core host it degrades all the way to the serial
        # executor, which a 1-worker pool can never beat.
        monkeypatch.setattr(sweep_module, "usable_cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="1 usable core"):
            executor = make_executor(4)
        assert isinstance(executor, SerialSweepExecutor)

    def test_make_executor_auto_uses_every_usable_core(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "usable_cpu_count", lambda: 3)
        executor = make_executor(None)
        assert isinstance(executor, WorkStealingSweepExecutor)
        assert executor.workers == 3
        assert make_executor("auto").workers == 3

    def test_memory_only_store_runs_parallel(self, sweep_dataset):
        outcome = make_runner(sweep_dataset).run(WorkStealingSweepExecutor(2))
        assert len(outcome.computed) == 4
        assert headline_ordering_holds(outcome)


class TestResume:
    def test_resume_after_partial_serial_finishes_parallel(
        self, sweep_dataset, tmp_path
    ):
        # Simulate a killed run: only half the grid reached the store.
        path = tmp_path / "sweep.json"
        make_runner(
            sweep_dataset,
            store=path,
            scenarios=(FederationConfig("full", num_clients=2),),
        ).run()
        resumed = make_runner(sweep_dataset, store=path).run(
            WorkStealingSweepExecutor(2)
        )
        assert len(resumed.cached) == 2 and len(resumed.computed) == 2

        reference_path = tmp_path / "reference.json"
        make_runner(sweep_dataset, store=reference_path).run()
        assert path.read_bytes() == reference_path.read_bytes()


def _double(payload):
    """A trivial picklable task."""
    return 2 * payload


def _exit_worker_hard(payload):
    """A task that kills its worker process outright (no exception)."""
    import os

    os._exit(13)


def _worker_blas_threads(payload):
    """The BLAS thread count in the calling process (None if unknown)."""
    from repro.utils.blas import blas_threads

    return blas_threads()


def _trained_linear_digest(rows):
    """sha256 of a 3072 -> 64 linear layer after two SGD steps on ``rows``
    examples: past 512 rows OpenBLAS splits the weight gradient's inner
    axis across its threads, so the bytes show the thread count."""
    import hashlib

    from repro.nn import CrossEntropyLoss, Linear, SGD
    from repro.tensor import Tensor

    rng = np.random.default_rng(7)
    layer = Linear(3072, 64, rng=rng)
    x = Tensor(rng.standard_normal((rows, 3072)))
    labels = rng.integers(0, 64, rows)
    optimizer = SGD(layer.parameters(), lr=0.1)
    for _ in range(2):
        optimizer.zero_grad()
        CrossEntropyLoss()(layer(x), labels).backward()
        optimizer.step()
    return hashlib.sha256(layer.weight.data.tobytes()).hexdigest()


class TestWorkerBlasCap:
    def test_each_worker_computes_under_one_blas_thread(self, tmp_path, monkeypatch):
        # Forked workers inherit the parent's BLAS pool; the initializer
        # caps each at one thread, however many cores there are.
        if _worker_blas_threads(None) is None:
            pytest.skip("numpy bundles no 64-bit scipy-openblas here")
        monkeypatch.setattr(sweep_module, "usable_cpu_count", lambda: 6)
        executions = WorkStealingSweepExecutor(2).run(
            [(key, _worker_blas_threads, None) for key in ("a", "b", "c")],
            SweepStore(tmp_path / "s.json"),
        )
        assert {execution.result for execution in executions.values()} == {1}

    def test_serial_cells_run_under_one_thread_and_restore_the_pool(self, tmp_path):
        before = _worker_blas_threads(None)
        if before is None:
            pytest.skip("numpy bundles no 64-bit scipy-openblas here")
        executions = SerialSweepExecutor().run(
            [("a", _worker_blas_threads, None)], SweepStore(tmp_path / "s.json")
        )
        assert executions["a"].result == 1
        assert _worker_blas_threads(None) == before

    def test_linear_training_past_512_rows_is_executor_invariant(self, tmp_path):
        # Serial = parallel on any host: both compute under one BLAS
        # thread, so a GEMM that OpenBLAS would split across threads sums
        # in the same order in both.
        tasks = [(f"rows={rows}", _trained_linear_digest, rows) for rows in (600, 1030)]
        serial = SerialSweepExecutor().run(tasks, SweepStore(tmp_path / "serial.json"))
        parallel = WorkStealingSweepExecutor(2).run(
            tasks, SweepStore(tmp_path / "parallel.json")
        )
        assert {key: run.result for key, run in serial.items()} == {
            key: run.result for key, run in parallel.items()
        }


class TestFailureIsolation:
    def test_dead_worker_raises_broken_pool_instead_of_hanging(self, tmp_path):
        # Exceptions become structured failures, but a worker that dies
        # without raising must surface as BrokenProcessPool, not a hang.
        from concurrent.futures.process import BrokenProcessPool

        store = SweepStore(tmp_path / "s.json")
        with pytest.raises(BrokenProcessPool):
            WorkStealingSweepExecutor(2).run(
                [("key", _exit_worker_hard, None)], store
            )

    def test_cells_a_dead_worker_finished_survive_in_the_store(self, tmp_path):
        # One worker runs a, b, then dies on the third task: the pool
        # delivers a and b before it breaks, the parent appends them as
        # they arrive, and the next run serves them and computes only c.
        from concurrent.futures.process import BrokenProcessPool

        path = tmp_path / "s.json"
        tasks = [("a", _double, 1), ("b", _double, 2), ("c", _double, 3)]
        with pytest.raises(BrokenProcessPool):
            WorkStealingSweepExecutor(1).run(
                tasks[:2] + [("dies", _exit_worker_hard, None)] + tasks[2:],
                SweepStore(path),
            )
        assert dict(SweepStore(path).iter_cells()) == {"a": 2, "b": 4}

        executions = run_tasks(tasks, SweepStore(path))
        assert [e.cached for e in executions] == [True, True, False]
        assert [e.result for e in executions] == [2, 4, 6]
        assert dict(SweepStore(path).iter_cells()) == {"a": 2, "b": 4, "c": 6}

    def test_cells_received_before_a_raising_callback_stay_stored(
        self, sweep_dataset, tmp_path
    ):
        # The parent appends each result before it notifies: a progress
        # callback that raises mid-run leaves every cell it was told about
        # in the store, and the next run serves those cells cached.
        path = tmp_path / "sweep.json"
        done: list[str] = []

        class Stop(Exception):
            pass

        def progress(event):
            if event.status == "done":
                done.append(event.key)
            if len(done) == 2:
                raise Stop

        with pytest.raises(Stop):
            make_runner(sweep_dataset, store=path).run(
                WorkStealingSweepExecutor(2), progress=progress
            )
        assert sorted(SweepStore(path).keys()) == sorted(done)

        runner = make_runner(sweep_dataset, store=path)
        stored = {runner.store_key(cell): cell.key for cell in runner.cells()}
        resumed = runner.run(WorkStealingSweepExecutor(2))
        assert sorted(resumed.cached) == sorted(stored[key] for key in done)
        assert len(resumed.computed) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_cell_is_on_disk_before_its_event(self, tmp_path, workers):
        # Both executors share one contract: by the time a "done" event
        # fires, a fresh reader of the store file already sees the cell.
        path = tmp_path / "s.json"
        executor = (
            SerialSweepExecutor()
            if workers == 1
            else WorkStealingSweepExecutor(workers)
        )
        seen: dict[str, object] = {}

        def progress(event):
            seen[event.key] = SweepStore(path).get(event.key)

        tasks = [(key, _double, value) for value, key in enumerate("abcd")]
        executor.run(tasks, SweepStore(path), progress)
        assert seen == {"a": 0, "b": 2, "c": 4, "d": 6}

    def test_failed_cell_records_structured_error(self, sweep_dataset, tmp_path):
        path = tmp_path / "sweep.json"
        outcome = make_runner(
            sweep_dataset, store=path, defenses=("WO", FAILING_DEFENSE)
        ).run()
        failed_key = SweepCell("rtf", FAILING_DEFENSE, "full").key
        assert failed_key in outcome.failed
        error = outcome.results[failed_key]["error"]
        assert error["type"] == "ValueError"
        assert "tabular batches" in error["message"]
        assert "traceback" in error
        # The two WO cells and nothing else persisted: failures retry.
        persisted = SweepStore(path)
        assert len(persisted) == 2
        assert all("WO" in key for key in persisted.keys())

    def test_failed_cells_retry_on_next_run(self, sweep_dataset, tmp_path):
        path = tmp_path / "sweep.json"
        kwargs = dict(store=path, defenses=("WO", FAILING_DEFENSE))
        first = make_runner(sweep_dataset, **kwargs).run()
        again = make_runner(sweep_dataset, **kwargs).run(
            WorkStealingSweepExecutor(2)
        )
        assert sorted(again.cached) == sorted(first.computed)
        assert sorted(again.failed) == sorted(first.failed)

    def test_parallel_failure_does_not_kill_other_cells(
        self, sweep_dataset, tmp_path
    ):
        outcome = make_runner(
            sweep_dataset, store=tmp_path / "s.json",
            defenses=("WO", FAILING_DEFENSE, "MR"),
        ).run(WorkStealingSweepExecutor(2))
        assert len(outcome.computed) == 4 and len(outcome.failed) == 2
        assert headline_ordering_holds(outcome)

    def test_progress_events_cover_every_cell(self, sweep_dataset, tmp_path):
        path = tmp_path / "sweep.json"
        make_runner(
            sweep_dataset,
            store=path,
            scenarios=(FederationConfig("full", num_clients=2),),
        ).run()
        events: list[CellEvent] = []
        make_runner(
            sweep_dataset, store=path, defenses=("WO", "MR", FAILING_DEFENSE)
        ).run(WorkStealingSweepExecutor(2), progress=events.append)
        statuses = sorted(event.status for event in events)
        assert statuses == ["cached", "cached", "done", "done", "failed", "failed"]
        failures = [event for event in events if event.status == "failed"]
        assert all(event.error["type"] == "ValueError" for event in failures)


class TestSeedDerivation:
    """Cell seeding is a pure function of (base seed, cell fingerprint)."""

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(list(range(8))), seed=st.integers(0, 2**31 - 1))
    def test_cell_seed_invariant_to_enumeration_order(
        self, sweep_dataset, order, seed
    ):
        runner = make_runner(
            sweep_dataset,
            attacks=("rtf", "cah"),
            defenses=("WO", "MR"),
            seed=seed,
        )
        cells = runner.cells()
        assert len(cells) == 8
        straight = {cell: runner.cell_seed(cell) for cell in cells}
        shuffled = {
            cells[index]: runner.cell_seed(cells[index]) for index in order
        }
        assert shuffled == straight

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_cell_seed_invariant_to_axis_declaration_order(
        self, sweep_dataset, seed
    ):
        forward = make_runner(
            sweep_dataset, defenses=("WO", "MR", "SH"), seed=seed
        )
        reversed_axes = make_runner(
            sweep_dataset, defenses=("SH", "MR", "WO"), seed=seed
        )
        for cell in forward.cells():
            assert forward.cell_seed(cell) == reversed_axes.cell_seed(cell)

    def test_distinct_cells_get_distinct_seeds(self, sweep_dataset):
        runner = make_runner(
            sweep_dataset, attacks=("rtf", "cah"), defenses=("WO", "MR", "SH")
        )
        seeds = [runner.cell_seed(cell) for cell in runner.cells()]
        assert len(set(seeds)) == len(seeds)

    def test_base_seed_changes_cell_seeds(self, sweep_dataset):
        base = make_runner(sweep_dataset, seed=0)
        moved = make_runner(sweep_dataset, seed=1)
        for cell in base.cells():
            assert base.cell_seed(cell) != moved.cell_seed(cell)

