"""Grid sweep engine: attack x defense x participation-scenario evaluation.

Large-scale active attacks (LOKI, ARES) reconstruct across hundreds of
clients per round, so evaluating OASIS credibly means running every
(attack, transformation suite, federation scenario) combination through the
full dishonest-server protocol — not one hand-rolled loop per figure.  This
module provides that engine:

- A scenario is a named :class:`~repro.fl.FederationConfig`: one
  federation shape (fleet size, per-round sampling, dropout/stragglers,
  IID vs Dirichlet non-IID, aggregator, arrivals).  Each cell runs it
  with the runner's batch size and the cell's seed.
- :class:`SweepRunner` enumerates the cell grid, runs each cell through
  :class:`~repro.fl.DishonestServer` with ``target_client_id=None`` (every
  arriving update is inverted — the multi-victim regime), and scores all
  reconstructions with the vectorized pairwise-PSNR matcher.
- :class:`SweepStore` is a resumable result store built for million-cell
  grids: an append-only record log where each finished cell costs O(1)
  bytes to persist and only a ``key -> offset`` index stays in memory;
  values are read back lazily and :meth:`SweepStore.iter_cells` streams
  the grid without materializing it.  Completed runs compact the log
  into canonical sorted-key order.
  The per-figure harnesses (``attack_sweep``, ``defense_eval``) share the
  same store for their own grids.
- :func:`run_tasks` is the one resumable driver every grid (the runner's
  and the harnesses') goes through: serve cached keys, execute the rest.
- :class:`SerialSweepExecutor` / :class:`WorkStealingSweepExecutor` decide
  *how* the pending cells run: in-process, or on a stdlib
  :class:`~concurrent.futures.ProcessPoolExecutor` with one future per
  cell — an idle worker takes the next cell the moment it finishes the
  last, so wildly uneven cell costs (trap attacks vs linear cells) never
  leave workers idle.  Either way the calling process is the store's one
  writer: it appends each result the moment it arrives, so a run killed
  mid-sweep keeps every cell it received, and the next run computes only
  the rest.  :func:`make_executor` adapts the worker count to the usable
  cores instead of oversubscribing, degrading to serial on 1-core hosts.

Determinism is the load-bearing property: every cell's randomness derives
from :func:`repro.utils.rng.derive_seed` keyed by the cell's configuration
fingerprint (:meth:`SweepRunner.store_key`) — never by execution order — so
serial runs, parallel runs with any worker count, and resumed runs all
produce the identical ``store_key -> result`` mapping, and their persisted
stores are byte-identical.

A failed cell never kills the sweep: the failure is captured as a
structured ``{"error": {type, message, traceback}}`` result, reported in
:attr:`SweepOutcome.failed`, and deliberately *not* persisted, so the next
run retries it.

The expected headline shape (paper Fig. 5): for each scenario, the
(attack, no-defense) cell's mean PSNR strictly exceeds the (attack, MR)
cell's — reproduced by :func:`headline_ordering_holds`.

Both grid axes resolve through pluggable registries.  The attack axis
(:mod:`repro.attacks.registry`): arms are one-stage spec strings — any
registered name, or a knobbed variant like
``"loki(activation_probability=0.1)"`` — the cell's global model follows
the attack's ``model_family`` (imprint vs linear),
and aggregate-reconstructing attacks (LOKI) ride the dishonest server's
per-client crafting hooks transparently.  The defense axis
(:mod:`repro.defense.registry`): arms are spec strings — ``"WO"``, OASIS
suite names, gradient-space baselines (``"dpsgd"``, ``"prune"``, ...),
knobbed variants (``"dpsgd(noise_multiplier=0.5)"``), and composed
stacks (``"MR>dpsgd"``) that chain through a
:class:`~repro.defense.DefensePipeline`.  Stochastic defense stages (DP
noise, transform-replace) draw from generators derived from the cell's
configuration fingerprint, so defended cells keep the byte-identity
guarantee.

Run a sweep from the command line::

    PYTHONPATH=src python -m repro.experiments.sweep \
        --grid smoke --workers 4 --store sweep.json
    # the whole attack zoo, plus a knobbed LOKI arm:
    PYTHONPATH=src python -m repro.experiments.sweep \
        --grid smoke --workers 2 \
        --attacks 'rtf,cah,linear,qbi,loki,loki(activation_probability=0.1)'
    # a defense stack lineup (quote the '>' from the shell):
    PYTHONPATH=src python -m repro.experiments.sweep \
        --grid smoke --attacks rtf,cah,qbi \
        --defenses 'WO,MR,MR+SH,dpsgd,prune,MR>dpsgd' --workers 2
    # interrupted? finish the remaining cells:
    PYTHONPATH=src python -m repro.experiments.sweep \
        --grid smoke --workers 4 --store sweep.json --resume
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import operator
import os
import sys
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.data.synthetic import (
    SyntheticImageDataset,
    make_synthetic_dataset,
    synthetic_cifar100,
)
from repro.attacks.registry import ATTACKS, make_attack, model_for
from repro.defense.registry import DEFENSES, make_defense, validate_defense_spec
from repro.experiments.reporting import format_table
from repro.fl.arrivals import TRACE_STREAM_VERSION
from repro.fl.simulator import FederatedSimulation, FederationConfig
from repro.metrics.psnr import match_reconstructions
from repro.registry import split_spec_list
from repro.utils.blas import blas_thread_limit, limit_blas_threads
from repro.utils.checkpoint import atomic_write_lines
from repro.utils.rng import derive_seed


def dataset_fingerprint(dataset: SyntheticImageDataset) -> str:
    """Short content digest of a dataset, for cache keys.

    Covers the name, shapes, and the actual pixel/label bytes: two
    datasets that merely share a name (same generator, different seed)
    must never serve each other's cached results.
    """
    digest = hashlib.sha256()
    digest.update(dataset.name.encode())
    digest.update(repr(dataset.images.shape).encode())
    digest.update(np.ascontiguousarray(dataset.images).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    return digest.hexdigest()[:12]


# The sweep's default scenario lineup: full participation, per-round
# sampling, client dropout, and Dirichlet label skew — the participation
# regimes the federation engine simulates.
DEFAULT_SCENARIOS: tuple[FederationConfig, ...] = (
    FederationConfig("full", num_clients=2),
    FederationConfig("sampled", num_clients=4, clients_per_round=2),
    FederationConfig("dropout", num_clients=4, dropout_rate=0.25),
    FederationConfig(
        "noniid", num_clients=4, partition="dirichlet", dirichlet_alpha=0.3
    ),
)

# The secure-aggregation scenario axis: the aggregation rule (plain
# masked-sum vs the two real SecAgg protocol rounds) crossed with the
# commit-then-drop regime those protocols exist to survive.  Under the
# protocol arms the dishonest server never sees individual updates, so
# per-update inversion attacks collapse to zero reconstructions while
# aggregate-reconstructing attacks (LOKI) keep their hook — the sweep
# quantifies exactly that separation.  A dropout draw that leaves fewer
# survivors than the t = n//2 + 1 threshold aborts the round gracefully
# (recorded in ``RoundRecord.secagg``) rather than failing the cell.
SECAGG_SCENARIOS: tuple[FederationConfig, ...] = (
    FederationConfig("plain", num_clients=6, aggregator="masked_sum"),
    FederationConfig(
        "plain-drop", num_clients=6, dropout_rate=0.25, aggregator="masked_sum"
    ),
    FederationConfig("secagg", num_clients=6, aggregator="secagg"),
    FederationConfig(
        "secagg-drop", num_clients=6, dropout_rate=0.25, aggregator="secagg"
    ),
    FederationConfig(
        "oneshot", num_clients=6, aggregator="secagg_oneshot"
    ),
    FederationConfig(
        "oneshot-drop",
        num_clients=6,
        dropout_rate=0.25,
        aggregator="secagg_oneshot",
    ),
)

# The event-engine scenario axis: rounds close on the virtual clock, so
# stragglers are whoever's completion tick lands past the deadline — no
# rate knobs anywhere.  ``uniform-time`` is the minimal timed federation;
# the tiered arms run heterogeneous hardware traces (budget/IoT devices
# straggle structurally), with ``tiered-stale`` additionally folding late
# arrivals into the next round and ``fleet-lazy`` sampling its cohort
# from a lazily-materialized registry several times larger than any
# round's cohort.
FLEET_SCENARIOS: tuple[FederationConfig, ...] = (
    FederationConfig(
        "uniform-time",
        num_clients=8,
        clients_per_round=4,
        arrivals="uniform",
        round_duration_s=0.6,
        min_arrivals=1,
    ),
    FederationConfig(
        "tiered-time",
        num_clients=8,
        clients_per_round=4,
        arrivals="tiered",
        round_duration_s=0.5,
        min_arrivals=1,
    ),
    FederationConfig(
        "tiered-stale",
        num_clients=8,
        clients_per_round=4,
        accept_stale=True,
        arrivals="tiered",
        round_duration_s=0.5,
        min_arrivals=1,
    ),
    FederationConfig(
        "fleet-lazy",
        num_clients=2,
        clients_per_round=6,
        arrivals="tiered",
        round_duration_s=1.0,
        min_arrivals=1,
        fleet_size=64,
    ),
)

# Named scenario axes the CLI can swap in wholesale (--scenario-axis).
SCENARIO_AXES: dict[str, tuple[FederationConfig, ...]] = {
    "default": DEFAULT_SCENARIOS,
    "secagg": SECAGG_SCENARIOS,
    "fleet": FLEET_SCENARIOS,
}

# The defense arms of the paper's figures: no defense plus every named
# transformation suite (Fig. 5 singles and the Fig. 6 MR+SH integration).
# Any registered defense spec (see repro.defense.registry) can extend the
# axis — gradient-space baselines ("dpsgd", "prune") and composed stacks
# ("MR>dpsgd") included.
DEFAULT_DEFENSES: tuple[str, ...] = (
    "WO", "MR", "mR", "SH", "HFlip", "VFlip", "MR+SH",
)

# The defense-zoo lineup of the smoke/CI grids: one OASIS suite, the
# integration suite, both gradient-space baselines, and the composed
# OASIS+DP stack the paper's Sec. V composition argument is about.
ZOO_DEFENSES: tuple[str, ...] = (
    "WO", "MR", "MR+SH", "dpsgd", "prune", "MR>dpsgd",
)


@dataclass(frozen=True)
class SweepCell:
    """One (attack, defense, scenario) coordinate of the grid."""

    attack: str
    defense: str
    scenario: str

    @property
    def key(self) -> str:
        """Stable store key for this cell."""
        return f"{self.attack}|{self.defense}|{self.scenario}"


class SweepStoreError(RuntimeError):
    """A sweep store file exists but cannot be trusted (corrupt/foreign)."""


# On-disk format of the scalable store: line 1 is this header, every
# further line is one {"k": key, "v": value} record, last record wins.
STORE_FORMAT = "oasis-sweep-log-v1"
_STORE_HEADER = json.dumps(
    {"format": STORE_FORMAT}, sort_keys=True, separators=(",", ":")
)


def _record_line(key: str, value) -> str:
    """Canonical serialized form of one cell record."""
    return json.dumps(
        {"k": key, "v": value}, sort_keys=True, separators=(",", ":")
    )


class SweepStore:
    """Resumable append-only log store of finished cells.

    Built for million-cell grids: a :meth:`put` *appends* one record line
    to the backing log — O(1) bytes per cell — and only the
    ``key -> byte offset`` index lives in memory; cell values
    stay on disk and are parsed on demand (:meth:`get`,
    :meth:`iter_cells`), so holding a 10^6-cell store open costs the index,
    not the grid.

    The file format is line-oriented: a header line naming
    :data:`STORE_FORMAT`, then one ``{"k": ..., "v": ...}`` JSON record
    per line, last record per key winning.  A process killed mid-append
    leaves at most one torn final line, which the next open silently drops
    (that cell simply recomputes); damage *before* intact records — which
    no crash of this writer can produce — raises :class:`SweepStoreError`
    rather than silently recomputing a large grid.  :meth:`compact`
    rewrites the log atomically in canonical sorted-key order; executors
    compact on completion, which is what keeps serial, work-stolen
    parallel, and resumed stores **byte-identical**.

    A file without the log header is outside input: opening it raises
    :class:`SweepStoreError` and leaves it byte-for-byte unchanged.  With
    ``path=None`` the store is memory-only — same interface, no
    persistence.
    """

    def __init__(self, path: "str | Path | None" = None) -> None:
        self.path = Path(path) if path is not None else None
        self.hits = 0
        self.misses = 0
        # key -> (offset, length) into the log file, or None when the
        # value lives in _mem (memory-only store).
        self._where: "dict[str, tuple[int, int] | None]" = {}
        self._mem: dict[str, object] = {}
        self._read_handle = None
        self._append_handle = None
        self._data_end = 0  # end of the last intact record (torn tails cut)
        if self.path is not None and self.path.exists():
            self._load_existing()

    # -- loading -----------------------------------------------------------

    def _load_existing(self) -> None:
        path = self.path
        try:
            with open(path, "rb") as handle:
                first_line = handle.readline()
        except OSError as error:
            raise SweepStoreError(
                f"sweep store {path} exists but cannot be read: {error}"
            ) from error
        header = None
        try:
            header = json.loads(first_line)
        except ValueError:
            pass
        if not (isinstance(header, dict) and "format" in header):
            raise SweepStoreError(
                f"sweep store {path} does not start with a store-format "
                "header; refusing to overwrite a file this module did not "
                "write — delete or move it first"
            )
        if header["format"] != STORE_FORMAT:
            raise SweepStoreError(
                f"sweep store {path} was written by format "
                f"{header['format']!r}, not {STORE_FORMAT!r}; refusing "
                "to mix store formats — migrate or delete the file"
            )
        self._where, self._data_end = self._scan_log(path)

    @staticmethod
    def _scan_log(path: Path) -> "tuple[dict[str, tuple[int, int]], int]":
        """Index a log file: ``key -> (offset, length)`` plus the end of
        the last intact record.

        A final line that is incomplete (no newline) or unparsable is a
        torn append from a crash and is dropped; a damaged line with
        intact records *after* it means the file was edited or corrupted
        by something other than this writer, and raises.
        """
        where: "dict[str, tuple[int, int]]" = {}
        with open(path, "rb") as handle:
            header = handle.readline()
            offset = len(header)
            data_end = offset
            torn_at: Optional[int] = None
            while True:
                line = handle.readline()
                if not line:
                    break
                if torn_at is not None:
                    raise SweepStoreError(
                        f"sweep store {path} is corrupt: damaged record at "
                        f"byte {torn_at} with intact records after it — "
                        "this writer's crashes only ever tear the final "
                        "line; delete or restore the file"
                    )
                start = offset
                offset += len(line)
                if not line.endswith(b"\n"):
                    torn_at = start
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    torn_at = start
                    continue
                if not (
                    isinstance(record, dict)
                    and isinstance(record.get("k"), str)
                    and "v" in record
                ):
                    torn_at = start
                    continue
                where[record["k"]] = (start, len(line))
                data_end = offset
        return where, data_end

    # -- reads -------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._where

    def __len__(self) -> int:
        return len(self._where)

    def get(self, key: str):
        """Return the cached value for ``key`` (None on miss), counting."""
        if key not in self._where:
            self.misses += 1
            return None
        self.hits += 1
        return self._value(key)

    def _value(self, key: str):
        location = self._where[key]
        if location is None:
            return self._mem[key]
        offset, length = location
        if self._read_handle is None:
            self._read_handle = open(self.path, "rb")
        self._read_handle.seek(offset)
        return json.loads(self._read_handle.read(length))["v"]

    def keys(self) -> list[str]:
        """All cached cell keys (file order; sorted after a compaction)."""
        return list(self._where)

    def iter_cells(self):
        """Stream ``(key, value)`` pairs in sorted key order.

        Values are read from disk one record at a time, so iterating a
        million-cell store never materializes the grid; this is what
        streaming reporting builds on.
        """
        for key in sorted(self._where):
            yield key, self._value(key)

    # -- writes ------------------------------------------------------------

    def put(self, key: str, value) -> None:
        """Record ``key``, appending one log record (O(1) bytes)."""
        if self.path is None:
            self._mem[key] = value
            self._where[key] = None
            return
        handle = self._appender()
        line = (_record_line(key, value) + "\n").encode("utf-8")
        handle.seek(self._data_end)
        handle.write(line)
        handle.flush()
        self._where[key] = (self._data_end, len(line))
        self._data_end += len(line)

    def _appender(self):
        if self._append_handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                # repro-lint: disable=no-raw-write -- the append-only log is the one deliberate non-atomic writer: a put() appends O(1) bytes, a crash tears at most the final line (dropped on the next open), and compact() IS the atomic rewrite (atomic_write_lines)
                self._append_handle = open(self.path, "r+b")
                # Cut any torn tail a crash left so the next record
                # starts on a clean line.
                if self.path.stat().st_size > self._data_end:
                    self._append_handle.truncate(self._data_end)
            else:
                # repro-lint: disable=no-raw-write -- creating the fresh log file for O(1) appends; same crash contract as above, compaction is the atomic path
                self._append_handle = open(self.path, "w+b")
                header = (_STORE_HEADER + "\n").encode("utf-8")
                self._append_handle.write(header)
                self._append_handle.flush()
                self._data_end = len(header)
        return self._append_handle

    def compact(self) -> None:
        """Atomically rewrite the log in canonical sorted-key order.

        Executors call this once per completed run: compaction is what
        turns "same mapping" into "same bytes", making serial, parallel,
        and resumed stores byte-identical regardless of the order cells
        finished (and it drops superseded duplicate records).
        """
        if self.path is None:
            return
        if not self._where and not self.path.exists():
            return  # nothing ever persisted; don't create an empty file
        self._write_canonical()

    def _write_canonical(self) -> None:
        keys = sorted(self._where)
        new_where: "dict[str, tuple[int, int] | None]" = {}

        def lines():
            offset = len(_STORE_HEADER) + 1
            yield _STORE_HEADER
            for key in keys:
                line = _record_line(key, self._value(key))
                length = len(line.encode("utf-8")) + 1
                new_where[key] = (offset, length)
                offset += length
                yield line

        atomic_write_lines(self.path, lines())
        self.close()
        self._where = new_where
        self._data_end = (
            len(_STORE_HEADER) + 1
            + sum(length for _, length in new_where.values())
        )

    def close(self) -> None:
        """Close file handles (reopened lazily on the next access)."""
        for handle in (self._read_handle, self._append_handle):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        self._read_handle = None
        self._append_handle = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass


# --------------------------------------------------------------------------
# Execution engine: serial and process-pool executors over pending cells.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CellExecution:
    """What one task produced: its result and wall-clock cost.

    ``cached`` marks a result :func:`run_tasks` served from the store
    instead of computing it (``elapsed_s`` is then 0).
    """

    result: object
    elapsed_s: float
    cached: bool = False


@dataclass(frozen=True)
class CellEvent:
    """One progress notification: a task finished (or was served cached).

    ``completed``/``total`` count within the emitting stage — the cache
    scan for ``"cached"`` events, the executor's task list otherwise.
    """

    key: str
    status: str  # "cached" | "done" | "failed"
    elapsed_s: float
    completed: int
    total: int
    error: Optional[dict] = None


ProgressCallback = Callable[[CellEvent], None]


def is_failure(result) -> bool:
    """True when ``result`` is a structured task failure, not a value."""
    return isinstance(result, dict) and "error" in result


def _unmeasured(cell: Optional[dict]) -> Optional[str]:
    """Why a cell carries no PSNR: absent, failed or no update; else None."""
    if cell is None:
        return "absent"
    if is_failure(cell):
        return "failed"
    return "no update" if cell.get("updates") == 0 else None


# How :meth:`SweepOutcome.to_table` renders each kind of unmeasured cell.
_TABLE_MARKS = {"absent": "-", "failed": "ERR", "no update": "n/a"}


def _structured_error(error: BaseException) -> dict:
    """A JSON-able record of a task failure (kept out of the store)."""
    return {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
        }
    }


def _execute_task(task: tuple) -> tuple[str, object, float]:
    """Run one ``(key, fn, payload)`` task into a ``(key, result, elapsed)``
    triple, converting any exception into a structured failure."""
    key, fn, payload = task
    start = time.perf_counter()
    try:
        result = fn(payload)
    except Exception as error:  # noqa: BLE001 - one cell must not kill the sweep
        result = _structured_error(error)
    return key, result, time.perf_counter() - start


def _persist_as_completed(
    completed,
    store: SweepStore,
    progress: Optional[ProgressCallback],
    total: int,
) -> dict[str, CellExecution]:
    """The executors' one bookkeeping loop over ``(key, result, elapsed)``
    triples: persist each success the moment it arrives, record its
    :class:`CellExecution`, notify ``progress``; compact once all arrived.

    Appending before notifying is the crash contract: a run that dies
    anywhere (a raising callback, an interrupt, a broken pool) leaves
    every result it received in the store log.
    """
    executions: dict[str, CellExecution] = {}
    for key, result, elapsed in completed:
        failed = is_failure(result)
        if not failed:
            store.put(key, result)
        executions[key] = CellExecution(result, elapsed)
        if progress is not None:
            progress(
                CellEvent(
                    key=key,
                    status="failed" if failed else "done",
                    elapsed_s=elapsed,
                    completed=len(executions),
                    total=total,
                    error=result["error"] if failed else None,
                )
            )
    store.compact()
    return executions


# Per-worker state, installed by the pool initializer (or directly by the
# serial executor).  Module-level because multiprocessing workers can only
# reach module-level state: the run-wide shared object (e.g. the
# dataset/runner spec) shipped once per worker instead of once per task.
_WORKER_SHARED: object = None

_START_METHOD = "fork" if sys.platform == "linux" else None


def worker_shared():
    """The run-wide shared object passed to ``executor.run(..., shared=)``.

    Task functions call this to reach heavyweight run-constant state (a
    dataset, a runner spec) without it riding inside every task payload.
    """
    return _WORKER_SHARED


def _initialize_worker(shared) -> None:
    global _WORKER_SHARED
    # A forked worker inherits the parent's BLAS pool.  Cells compute
    # under one BLAS thread, as the serial executor runs them: a
    # multi-threaded GEMM sums in another order, so the bytes would
    # depend on the executor and the host's core count.
    limit_blas_threads(1)
    _WORKER_SHARED = shared


class SerialSweepExecutor:
    """Run tasks one after another in-process, persisting as each finishes.

    The reference executor: zero parallelism overhead, finest-grained
    resume (the store log is appended after every single cell).
    """

    workers = 1

    def run(
        self,
        tasks: Sequence[tuple],
        store: SweepStore,
        progress: Optional[ProgressCallback] = None,
        shared=None,
    ) -> dict[str, CellExecution]:
        global _WORKER_SHARED
        previous = _WORKER_SHARED
        _WORKER_SHARED = shared
        try:
            # One BLAS thread per cell, as in a pool worker; the process
            # gets its thread count back afterwards.
            with blas_thread_limit(1):
                return _persist_as_completed(
                    map(_execute_task, tasks), store, progress, len(tasks)
                )
        finally:
            _WORKER_SHARED = previous
            # Don't retain the last sweep's dataset/runner in a long-lived
            # process; pool workers die with theirs, the serial path must
            # drop its own.
            _RUNNER_CACHE.clear()


class WorkStealingSweepExecutor:
    """Fan tasks out over a stdlib process pool, one future per task.

    An idle worker takes the next pending cell the moment it finishes the
    last, so uneven cell costs (a trap-attack cell can cost many times a
    linear one) never leave a worker idle while another drags a chunk.

    Workers only compute; this process is the store's one writer.  It
    appends each result as the pool delivers it and compacts once every
    cell arrived: the bytes equal a serial run's, because every cell's
    randomness is keyed by its configuration fingerprint, never by which
    worker ran it or when.

    Task exceptions become structured failure results.  A worker that
    dies *without* raising (OOM-kill, segfault) breaks the pool:
    :meth:`run` raises :class:`concurrent.futures.process.BrokenProcessPool`,
    the cells delivered before it stay in the store, and the next run
    computes only the rest.  Workers fork on Linux (cheap, they inherit
    the loaded numpy) and use the platform's default start method
    elsewhere (forking after BLAS init is unsafe on macOS).

    ``workers`` is the process count, capped at the number of pending
    tasks; :func:`make_executor` also caps it at the usable cores.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def run(
        self,
        tasks: Sequence[tuple],
        store: SweepStore,
        progress: Optional[ProgressCallback] = None,
        shared=None,
    ) -> dict[str, CellExecution]:
        if not tasks:
            store.compact()  # resumed byte-identity even with nothing to do
            return {}
        workers = min(self.workers, len(tasks))
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(_START_METHOD),
            initializer=_initialize_worker,
            initargs=(shared,),
        )
        try:
            futures = [pool.submit(_execute_task, task) for task in tasks]
            return _persist_as_completed(
                (future.result() for future in as_completed(futures)),
                store,
                progress,
                len(tasks),
            )
        finally:
            # On a broken pool or an interrupt, drop the cells no worker
            # has started instead of running the rest of the grid.
            pool.shutdown(cancel_futures=True)


def usable_cpu_count() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def make_executor(workers: "int | str | None" = 1):
    """Build the right executor for ``workers``, never oversubscribing.

    ``None`` (or ``"auto"``) asks for every usable core.  A request
    beyond the usable cores is reduced with a warning — forcing 4 workers
    onto a 1-core host once *recorded a 0.29x "speedup"* in
    BENCH_sweep_parallel — and a request that lands at one worker
    degrades to the :class:`SerialSweepExecutor`, which beats a
    single-worker process pool by construction; more workers get a
    :class:`WorkStealingSweepExecutor`.  Construct that directly to force a
    worker count (tests do, to exercise multi-process paths on small hosts).

    An explicit count must be a Python or numpy integer of at least 1: a
    float or a string raises :class:`TypeError` rather than truncating,
    and ``0`` or a negative count raises :class:`ValueError` rather than
    quietly running serially.
    """
    cap = usable_cpu_count()
    if workers is None or workers == "auto":
        workers = cap
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError(f"sweep workers must be >= 1, got {workers}")
    if workers > cap:
        warnings.warn(
            f"requested {workers} sweep workers but only {cap} usable "
            f"core(s); reducing to {cap} (oversubscribed process pools "
            "run *slower* than serial)",
            RuntimeWarning,
            stacklevel=2,
        )
        workers = cap
    if workers == 1:
        return SerialSweepExecutor()
    return WorkStealingSweepExecutor(workers)


def run_tasks(
    tasks: Sequence[tuple],
    store: SweepStore,
    executor=None,
    progress: Optional[ProgressCallback] = None,
    shared=None,
) -> list[CellExecution]:
    """Run a resumable grid of ``(key, fn, payload)`` tasks.

    The one driver every grid goes through (:meth:`SweepRunner.run` and
    the per-figure harnesses): serve every key the store already holds
    (emitting a ``"cached"`` :class:`CellEvent` each), and run the rest
    through ``executor`` (serial in-process when None), which persists
    each success as it arrives and compacts the store.  A killed run
    leaves every cell it received in the store, so calling this again
    computes only the rest.  ``shared`` reaches the task functions via
    :func:`worker_shared`.  Returns one :class:`CellExecution` per task,
    in task order.
    """
    executions: dict[str, CellExecution] = {}
    pending: dict[str, tuple] = {}
    for key, fn, payload in tasks:
        value = store.get(key)
        if value is None:
            pending[key] = (key, fn, payload)
            continue
        executions[key] = CellExecution(value, 0.0, cached=True)
        if progress is not None:
            progress(CellEvent(key, "cached", 0.0, len(executions), len(tasks)))
    executor = executor if executor is not None else SerialSweepExecutor()
    executions.update(
        executor.run(list(pending.values()), store, progress, shared)
    )
    return [executions[key] for key, _, _ in tasks]


@dataclass
class SweepOutcome:
    """Everything one :meth:`SweepRunner.run` call produced.

    ``results`` maps cell keys to per-cell metric dicts; ``computed``,
    ``cached``, and ``failed`` split the grid into cells evaluated this
    run, served from the store, and recorded as structured errors.
    ``timings`` holds per-cell wall-clock seconds for cells executed this
    run (cached cells cost nothing and have no entry).
    """

    results: dict[str, dict] = field(default_factory=dict)
    computed: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def mean_psnr(self, attack: str, defense: str, scenario: str) -> float:
        """The headline metric of one cell.

        Raises :class:`KeyError` for a cell the outcome does not contain
        and :class:`ValueError` for a cell that failed or that no update
        reached — all name the cell, so neither a typo'd lookup nor an
        empty federation reads like a real number.
        """
        key = SweepCell(attack, defense, scenario).key
        if key not in self.results:
            raise KeyError(
                f"no result for cell {key!r}; present: {sorted(self.results)}"
            )
        result = self.results[key]
        if is_failure(result):
            raise ValueError(
                f"cell {key!r} failed ({result['error']['type']}: "
                f"{result['error']['message']}); it has no mean_psnr"
            )
        if _unmeasured(result):
            raise ValueError(
                f"no client update reached the server in cell {key!r}; "
                "it has no mean_psnr"
            )
        return float(result["mean_psnr"])

    def to_table(self) -> str:
        """Render the grid: one row per (attack, scenario), suites as columns.

        Failed cells render as ``ERR`` so a partially-broken sweep is
        visible at a glance instead of hiding behind a dash; cells no
        update reached render as ``n/a``.
        """
        results = self.results.values()
        defenses = list(dict.fromkeys(r["defense"] for r in results))
        pairs = list(dict.fromkeys((r["attack"], r["scenario"]) for r in results))
        rows = []
        for attack, scenario in pairs:
            row = [f"{attack}/{scenario}"]
            for defense in defenses:
                cell = self.results.get(SweepCell(attack, defense, scenario).key)
                mark = _TABLE_MARKS.get(_unmeasured(cell))
                row.append(mark or f"{cell['mean_psnr']:.1f}")
            rows.append(row)
        return format_table(["attack/scenario"] + list(defenses), rows)


# Single-slot cache of the runner rebuilt from the shared spec, so one
# worker serving many cells of the same sweep pays the rebuild (and the
# dataset fingerprint hash) once.  Keyed by spec *identity* — the cached
# tuple keeps the spec alive, so an `is` hit can never alias a new spec.
_RUNNER_CACHE: list = []


def _sweep_cell_task(cell: SweepCell) -> dict:
    """Picklable pool entry: run one cell of the shared runner spec.

    The spec (including the dataset) arrives through :func:`worker_shared`
    — shipped once per worker by the executor, not once per task.
    """
    spec = worker_shared()
    if _RUNNER_CACHE and _RUNNER_CACHE[0][0] is spec:
        runner = _RUNNER_CACHE[0][1]
    else:
        runner = SweepRunner(**spec)
        _RUNNER_CACHE[:] = [(spec, runner)]
    return runner.run_cell(cell)


class SweepRunner:
    """Enumerate and evaluate an attack x defense x scenario grid.

    Each cell builds a fresh federation for its scenario, lets the
    dishonest server invert *every* arriving update for ``rounds`` rounds,
    and scores all reconstructions against the emitting client's private
    batch with the vectorized matcher.  Cell results are cached in a
    :class:`SweepStore` keyed by the cell coordinates plus a fingerprint
    of the full configuration (see :meth:`store_key`), making long sweeps
    resumable without ever serving results from a different setup.

    Parameters
    ----------
    dataset:
        The private dataset; partitioned per scenario.
    attacks / defenses / scenarios:
        The grid axes.  Attacks are one-stage attack-registry specs — a
        name or a knobbed variant like ``"loki(activation_probability=0.1)"``
        (see :mod:`repro.attacks.registry`); defenses are registry spec
        strings — ``"WO"``, suite names, baselines, knobbed variants, or
        composed stacks like ``"MR>dpsgd"`` (see
        :mod:`repro.defense.registry`); scenarios are
        :class:`~repro.fl.FederationConfig` entries with unique names
        that leave ``batch_size`` and ``seed`` to the runner and name
        their aggregator and arrival process by registry spec.
    store:
        A :class:`SweepStore`, a path for one, or None for memory-only.
    """

    def __init__(
        self,
        dataset: SyntheticImageDataset,
        attacks: Sequence[str] = ("rtf", "cah"),
        defenses: Sequence[str] = DEFAULT_DEFENSES,
        scenarios: Sequence[FederationConfig] = DEFAULT_SCENARIOS,
        batch_size: int = 4,
        num_neurons: int = 64,
        rounds: int = 1,
        public_size: int = 128,
        seed: int = 0,
        store: "SweepStore | str | Path | None" = None,
    ) -> None:
        if not attacks or not defenses or not scenarios:
            raise ValueError("every grid axis needs at least one entry")
        for scenario in scenarios:
            _check_scenario(scenario)
        names = [scenario.name for scenario in scenarios]
        for axis_label, axis in (
            ("attacks", list(attacks)),
            ("defenses", list(defenses)),
            ("scenario names", names),
        ):
            if len(axis) != len(set(axis)):
                raise ValueError(f"duplicate {axis_label} in {axis}")
        # Fail fast on a bad arm, not one cell deep into the sweep: a
        # throwaway build is exactly as strict as the per-cell one.
        for spec in attacks:
            ATTACKS.build(spec, num_neurons=num_neurons, seed=seed)
        for spec in defenses:
            validate_defense_spec(spec)
        self.dataset = dataset
        self.attacks = tuple(attacks)
        self.defenses = tuple(defenses)
        self.scenarios = {scenario.name: scenario for scenario in scenarios}
        self.batch_size = batch_size
        self.num_neurons = num_neurons
        self.rounds = rounds
        self.public_size = public_size
        self.seed = seed
        self._dataset_fingerprint = dataset_fingerprint(dataset)
        self.store = store if isinstance(store, SweepStore) else SweepStore(store)

    def spec(self) -> dict:
        """Constructor arguments (minus the store) for worker-side rebuilds.

        Everything here pickles: the dataset is plain arrays, scenarios are
        frozen dataclasses.  Workers get a memory-only store — persistence
        is the executor's job, in the calling process.
        """
        return {
            "dataset": self.dataset,
            "attacks": self.attacks,
            "defenses": self.defenses,
            "scenarios": tuple(self.scenarios.values()),
            "batch_size": self.batch_size,
            "num_neurons": self.num_neurons,
            "rounds": self.rounds,
            "public_size": self.public_size,
            "seed": self.seed,
        }

    def cells(self) -> list[SweepCell]:
        """The grid in deterministic attack-major order."""
        return [
            SweepCell(attack, defense, scenario)
            for attack in self.attacks
            for defense in self.defenses
            for scenario in self.scenarios
        ]

    def store_key(self, cell: SweepCell) -> str:
        """Store key for ``cell``, scoped to the full cell configuration.

        Beyond the grid coordinates, the key fingerprints everything that
        shapes the cell's result — the dataset's *content* (not just its
        name), batch size, neuron count, rounds, public-prior size, seed,
        and the scenario's *parameters* (a name alone would let a
        renamed-but-different scenario, or a regenerated dataset under the
        same name, silently serve stale numbers from a reused store file).
        The ``seeding`` marker versions the RNG-derivation scheme itself:
        cells computed under an older scheme (e.g. pre-fingerprint-keyed
        stores) miss and recompute rather than mixing two seed regimes in
        one grid.  Trace-driven arrival arms also fold in the arrival
        streams' version, so a change to how timing traces are drawn
        recomputes exactly those cells.
        """
        scenario = self.scenarios[cell.scenario]
        config = {
            "dataset": self._dataset_fingerprint,
            "batch_size": self.batch_size,
            "num_neurons": self.num_neurons,
            "rounds": self.rounds,
            "public_size": self.public_size,
            "seed": self.seed,
            "seeding": "cell-fingerprint-v1",
            "scenario": scenario_to_dict(scenario),
        }
        if scenario.arrivals != "instant":
            config["arrival_stream"] = TRACE_STREAM_VERSION
        fingerprint = hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest()[:12]
        return f"{cell.key}|{fingerprint}"

    def cell_seed(self, cell: SweepCell) -> int:
        """Deterministic seed for one cell, keyed by its fingerprint.

        Derived from the base seed and :meth:`store_key` — never from
        enumeration position or worker assignment — so a cell draws the
        same random streams no matter which executor runs it, in what
        order, or on how many workers.  This is what makes serial and
        parallel stores byte-identical and resume safe across executors.
        """
        return derive_seed(self.seed, self.store_key(cell))

    def run_cell(self, cell: SweepCell) -> dict:
        """Evaluate one cell through the full dishonest-server protocol."""
        scenario = self.scenarios[cell.scenario]
        seed = self.cell_seed(cell)
        attack = make_attack(
            cell.attack,
            self.num_neurons,
            self.dataset.images[: self.public_size],
            seed=seed,
        )
        # The cell-fingerprint seed also keys the defense's private
        # streams (DP noise, transform choices), so stochastic arms stay
        # order/worker-invariant like everything else in the cell.
        defense = make_defense(cell.defense, seed=seed)
        simulation = FederatedSimulation(
            self.dataset,
            partial(model_for, cell.attack, self.dataset, self.num_neurons, seed),
            replace(scenario, batch_size=self.batch_size, seed=seed),
            defense=defense,
            attack=attack,
            target_client_id=None,
        )
        server = simulation.server
        # Reconstruction scoring needs the victim's actual batch; fetch
        # through the fleet so only dispatched clients ever materialize
        # (the fleet contract pins client_id == registry id).
        fleet = server.fleet
        psnrs: list[float] = []
        num_reconstructions = 0
        updates = 0
        for _ in range(self.rounds):
            record = server.run_round()
            updates += len(record.participant_ids)
            for client_id, result in server.round_reconstructions(
                record.round_index
            ):
                num_reconstructions += len(result)
                if len(result) == 0:
                    continue
                originals = fleet.get(client_id).last_batch[0]
                psnrs.extend(
                    score
                    for _, score in match_reconstructions(
                        originals, result.images
                    )
                )
        result = {
            "attack": cell.attack,
            "defense": cell.defense,
            "scenario": cell.scenario,
            "mean_psnr": float(np.mean(psnrs)) if psnrs else 0.0,
            "max_psnr": float(np.max(psnrs)) if psnrs else 0.0,
            "num_reconstructions": num_reconstructions,
            "num_scored": len(psnrs),
            "rounds": self.rounds,
        }
        if updates == 0:
            # No update reached the server, so the cell measured nothing:
            # its 0.0 PSNR is no defense's win.  Elided otherwise, so every
            # measured record keeps its bytes.
            result["updates"] = 0
        return result

    def run(
        self,
        executor=None,
        progress: Optional[ProgressCallback] = None,
    ) -> SweepOutcome:
        """Evaluate the whole grid, serving finished cells from the store.

        Drives :func:`run_tasks` (cache scan, then ``executor`` — serial
        in-process when None) and collects everything in grid
        order.  Failures are reported but never persisted, so they retry
        on the next run.
        """
        grid = self.cells()
        tasks = [
            (self.store_key(cell), _sweep_cell_task, cell) for cell in grid
        ]
        executions = run_tasks(
            tasks, self.store, executor, progress, shared=self.spec()
        )
        outcome = SweepOutcome()
        for cell, execution in zip(grid, executions):
            result = execution.result
            if execution.cached:
                outcome.cached.append(cell.key)
            else:
                outcome.timings[cell.key] = execution.elapsed_s
                if is_failure(result):
                    result = {**asdict(cell), **result}
                    outcome.failed.append(cell.key)
                else:
                    outcome.computed.append(cell.key)
            outcome.results[cell.key] = result
        return outcome


def headline_verdict(
    outcome: SweepOutcome,
    attack: str = "rtf",
    undefended: str = "WO",
    defended: str = "MR",
) -> tuple[Optional[bool], str]:
    """Paper Fig. 5 shape, with the reason: ``(holds, one-line verdict)``.

    ``holds`` is True when the no-defense PSNR beats the defended cell in
    every scenario present for ``attack``, False at the first scenario
    (in sorted order) where it does not, and None when no scenario has
    both cells measured.  Absent or failed cells, and cells no update
    reached, carry no PSNR: their scenarios are skipped and named.
    """
    scenarios = {
        result["scenario"]
        for result in outcome.results.values()
        if not is_failure(result) and result["attack"] == attack
    }
    checked, skipped = False, []
    for scenario in sorted(scenarios):
        cells = {
            arm: outcome.results.get(SweepCell(attack, arm, scenario).key)
            for arm in (undefended, defended)
        }
        reasons = [
            f"{arm} {_unmeasured(cell)}" for arm, cell in cells.items()
            if _unmeasured(cell)
        ]
        if reasons:
            skipped.append(f"{scenario} ({', '.join(reasons)})")
            continue
        checked = True
        baseline, protected = (cell["mean_psnr"] for cell in cells.values())
        if baseline <= protected:
            return False, (
                f"headline ordering FAILS in {scenario}: {undefended} mean "
                f"PSNR {baseline:.2f} dB <= {defended} {protected:.2f} dB"
            )
    note = f"; skipped {', '.join(skipped)}" if skipped else ""
    if not checked:
        return None, (
            f"headline ordering not checkable: no scenario has measured "
            f"{attack} cells for both {undefended} and {defended}{note}"
        )
    return True, (
        f"headline ordering holds: {undefended} mean PSNR > {defended} in "
        f"every scenario{note}"
    )


def headline_ordering_holds(
    outcome: SweepOutcome,
    attack: str = "rtf",
    undefended: str = "WO",
    defended: str = "MR",
) -> bool:
    """Whether :func:`headline_verdict` says the Fig. 5 ordering holds."""
    return headline_verdict(outcome, attack, undefended, defended)[0] is True


# The scenario fields that existed before the event engine.  These are
# always serialized; every later field is elided while it holds its
# default.  The cell seed derives from the store-key fingerprint, which
# hashes this payload — emitting a new field's default for an old
# scenario would silently re-seed (and thus invalidate) every golden
# value in every existing store.
_LEGACY_SCENARIO_FIELDS = frozenset({
    "name", "num_clients", "clients_per_round", "dropout_rate",
    "accept_stale", "partition", "dirichlet_alpha", "aggregator",
    "weight_by_examples",
})
# Legacy fields the federation layer no longer has, at the one value every
# scenario held; the payload keeps them so no cell re-seeds.
_RETIRED_SCENARIO_FIELDS = {"straggler_rate": 0.0}
# The fields the runner sets for every cell; the store key fingerprints
# the runner's values, so a scenario leaves them at their defaults.
_RUNNER_FIELDS = ("batch_size", "seed")


def scenario_to_dict(scenario: FederationConfig) -> dict:
    """JSON-serializable fingerprint of a sweep scenario.

    Pre-engine fields are always present, retired ones at their one
    value; every later field appears only when it differs from its
    default, so legacy scenarios fingerprint (and therefore seed) exactly
    as they did before the engine existed.  The runner-owned
    ``batch_size`` and ``seed`` never appear.
    """
    return {
        **_RETIRED_SCENARIO_FIELDS,
        **{
            item.name: getattr(scenario, item.name)
            for item in fields(scenario)
            if item.name in _LEGACY_SCENARIO_FIELDS
            or (
                item.name not in _RUNNER_FIELDS
                and getattr(scenario, item.name) != item.default
            )
        },
    }


def _check_scenario(scenario: FederationConfig) -> None:
    """Refuse an unnamed scenario, or one the store key cannot describe."""
    if not scenario.name:
        raise ValueError("a sweep scenario needs a name")
    owned = [
        item.name
        for item in fields(scenario)
        if item.name in _RUNNER_FIELDS
        and getattr(scenario, item.name) != item.default
    ]
    if owned:
        raise ValueError(
            f"scenario {scenario.name!r} sets {' and '.join(owned)}; "
            "the sweep runner owns batch_size and seed"
        )
    if not isinstance(scenario.aggregator, str) or not isinstance(
        scenario.arrivals, str
    ):
        raise ValueError(
            f"scenario {scenario.name!r} holds an aggregator or arrival "
            "process instance, which a store key cannot fingerprint; "
            "name it by its registry spec"
        )


# --------------------------------------------------------------------------
# CLI: python -m repro.experiments.sweep --grid smoke --workers 4 --resume
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GridPreset:
    """A named CLI grid: its dataset, default axes and sizes.

    Calling a preset builds its :class:`SweepRunner`; ``attacks``,
    ``defenses`` and ``scenarios`` override the default axes, ``sizes``
    holds the runner's ``batch_size``/``num_neurons``/``public_size``.
    """

    dataset: Callable[[], SyntheticImageDataset]
    attacks: tuple[str, ...]
    defenses: tuple[str, ...]
    scenarios: tuple[FederationConfig, ...]
    sizes: dict

    def __call__(
        self,
        seed: int,
        rounds: int,
        store,
        attacks: Optional[Sequence[str]] = None,
        defenses: Optional[Sequence[str]] = None,
        scenarios: Optional[Sequence[FederationConfig]] = None,
    ) -> SweepRunner:
        return SweepRunner(
            self.dataset(),
            attacks=attacks or self.attacks,
            defenses=defenses or self.defenses,
            scenarios=scenarios or self.scenarios,
            rounds=rounds,
            seed=seed,
            store=store,
            **self.sizes,
        )


GRID_PRESETS: dict[str, GridPreset] = {
    # 2-cell sanity grid: rtf x (WO, MR) x full participation, seconds.
    "smoke": GridPreset(
        partial(make_synthetic_dataset, 4, 12, image_size=8, seed=3,
                name="smoke-grid"),
        ("rtf",), ("WO", "MR"), DEFAULT_SCENARIOS[:1],
        dict(batch_size=3, num_neurons=48, public_size=48),
    ),
    # 8-cell working grid: rtf x 4 suites x 2 participation shapes.
    "default": GridPreset(
        partial(make_synthetic_dataset, 6, 16, image_size=16, seed=5,
                name="default-grid"),
        ("rtf",), ("WO", "MR", "SH", "MR+SH"), DEFAULT_SCENARIOS[:2],
        dict(batch_size=4, num_neurons=64, public_size=64),
    ),
    # The 24-cell acceptance grid on the CIFAR100 stand-in (~2 s).
    "acceptance": GridPreset(
        partial(synthetic_cifar100, samples_per_class=2, seed=2002),
        ("rtf", "cah"), ("WO", "MR", "SH", "MR+SH"), DEFAULT_SCENARIOS[:3],
        dict(batch_size=4, num_neurons=64, public_size=100),
    ),
}


def _spec_axis(parser, flag: str, kind: str, text: Optional[str]):
    """Split one ``--attacks``/``--defenses`` value into its arm specs.

    Only the list grammar is checked here; the runner validates each arm
    at construction (unknown names, undeclared knobs, bad values).  An
    absent flag gives None: the preset's own axis.
    """
    if text is None:
        return None
    try:
        specs = tuple(split_spec_list(text))
    except ValueError as error:
        parser.error(str(error))
    if not specs:
        parser.error(f"{flag} must name at least one {kind}")
    if len(set(specs)) != len(specs):
        parser.error(f"{flag} lists a spec twice: {', '.join(specs)}")
    return specs


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry: run a preset grid with ``--workers``/``--resume``/``--grid``.

    Refuses to reuse an existing store without ``--resume`` (stale results
    must be opted into), prints per-cell progress and the final grid
    table, and exits non-zero when any cell failed.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweep",
        description=(
            "Run an attack x defense x scenario sweep grid, optionally "
            "fanned out over worker processes, with a resumable store."
        ),
    )
    parser.add_argument(
        "--grid",
        choices=sorted(GRID_PRESETS),
        default="smoke",
        help="which preset grid to run (default: smoke)",
    )
    parser.add_argument(
        "--workers",
        default="1",
        help=(
            "worker processes: an integer, or 'auto' for every usable "
            "core; requests beyond the usable cores are reduced with a "
            "warning, and 1 effective worker runs serially in-process "
            "(default: 1)"
        ),
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="result store path (default: sweep_<grid>.json)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reuse an existing store file, computing only missing cells; "
            "without this flag an existing store is an error, so stale "
            "results are never mixed in silently"
        ),
    )
    parser.add_argument(
        "--attacks",
        default=None,
        help=(
            "comma-separated attack specs overriding the preset's attack "
            "axis; arms are registry spec strings, including knobbed "
            "variants like loki(activation_probability=0.1); registered: "
            f"{', '.join(ATTACKS.names())}"
        ),
    )
    parser.add_argument(
        "--defenses",
        default=None,
        help=(
            "comma-separated defense specs overriding the preset's defense "
            "axis; arms are registry spec strings, including knobbed "
            "variants like dpsgd(noise_multiplier=0.5) and composed stacks "
            "like MR>dpsgd (quote '>' from the shell); registered: "
            f"{', '.join(DEFENSES.names())}"
        ),
    )
    parser.add_argument(
        "--scenario-axis",
        choices=sorted(SCENARIO_AXES),
        default=None,
        help=(
            "replace the preset's participation-scenario axis with a named "
            "axis: 'secagg' crosses the aggregation rule (plain masked_sum "
            "vs the SecAgg protocol rounds) with the commit-then-drop "
            "dropout regime"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--rounds", type=int, default=1, help="federation rounds per cell"
    )
    args = parser.parse_args(argv)

    try:
        executor = make_executor(
            args.workers if args.workers == "auto" else int(args.workers)
        )
    except ValueError:
        parser.error("--workers must be an integer or 'auto'")

    attacks = _spec_axis(parser, "--attacks", "attack", args.attacks)
    defenses = _spec_axis(parser, "--defenses", "defense", args.defenses)

    store_path = args.store or Path(f"sweep_{args.grid}.json")
    if store_path.exists() and not args.resume:
        parser.error(
            f"{store_path} already exists; pass --resume to finish that "
            "sweep with it, or point --store elsewhere"
        )
    try:
        runner = GRID_PRESETS[args.grid](
            seed=args.seed,
            rounds=args.rounds,
            store=store_path,
            attacks=attacks,
            defenses=defenses,
            scenarios=SCENARIO_AXES.get(args.scenario_axis),
        )
    except ValueError as error:
        parser.error(str(error))

    def report(event: CellEvent) -> None:
        if event.status == "cached":
            stage, detail = "store", "cached"
        elif event.status == "failed":
            stage = "run"
            detail = f"FAILED ({event.error['type']}: {event.error['message']})"
        else:
            stage, detail = "run", f"done in {event.elapsed_s:.2f}s"
        print(f"[{stage} {event.completed}/{event.total}] {event.key} {detail}")

    outcome = runner.run(executor, progress=report)
    print()
    print(outcome.to_table())
    print(
        f"\n{len(outcome.computed)} computed, {len(outcome.cached)} cached, "
        f"{len(outcome.failed)} failed -> {store_path}"
    )
    print(headline_verdict(outcome)[1])
    for key in outcome.failed:
        error = outcome.results[key]["error"]
        print(f"FAILED {key}: {error['type']}: {error['message']}")
    return 1 if outcome.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
