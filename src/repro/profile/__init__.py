"""Op-level profiler for the tensor core: where does a sweep cell spend time?

The acceleration work in :mod:`repro.tensor` (fused kernels, buffer pools,
in-place optimizers) was driven by measurement, and this module is the
measuring instrument.  It rides the :func:`repro.tensor.set_profile_hook`
seam in ``Tensor._make``: every graph-node construction fires the hook with
the op's backward factory (whose ``__qualname__`` names the op) and the
freshly computed result array, so the profiler can

- **count** node constructions and result bytes per named op,
- **attribute forward wall time** per op — the elapsed time between two
  consecutive node constructions is charged to the node just built, since
  ``_make`` runs immediately after the op's forward arithmetic, and
- **time backward closures** per op exactly, by returning a wrapping
  backward factory from the hook (``_make`` swaps it in).

Forward attribution is a delta scheme, so any work between two graph
events (python dispatch, non-tensor numpy, a defense pipeline) is charged
to the next node built.  ``unattributed_seconds`` holds only the wall time
after the last graph event, so totals reconcile with wall time.

Typical use, as a context manager around any tensor workload::

    from repro.profile import Profiler

    with Profiler() as prof:
        loss = loss_fn(model(Tensor(images)), labels)
        loss.backward()
    print(json.dumps(prof.report(), indent=2))

or from the command line against one sweep cell (see ``__main__``)::

    PYTHONPATH=src python -m repro.profile --cell rtfxMR

The profiler is observational only: it never changes op order, dtypes, or
values, so a profiled run produces byte-identical results (the golden
suite holds with a profiler installed — ``tests/test_profile.py`` checks
a cell under profiling matches its unprofiled result exactly).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.tensor import set_profile_hook

__all__ = ["OpStats", "Profiler", "op_name", "profile_cell"]


def op_name(backward_factory: Callable) -> str:
    """Human op name from a backward factory's ``__qualname__``.

    ``Tensor.__add__.<locals>.backward`` -> ``__add__``;
    ``conv2d.<locals>.backward`` -> ``conv2d``;
    ``linear.<locals>.backward`` (fused) -> ``linear``.
    """
    qualname = getattr(backward_factory, "__qualname__", repr(backward_factory))
    head = qualname.split(".<locals>")[0]
    return head.split(".")[-1]


@dataclass
class OpStats:
    """Accumulated counters for one named op."""

    calls: int = 0
    forward_seconds: float = 0.0
    backward_calls: int = 0
    backward_seconds: float = 0.0
    result_bytes: int = 0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "forward_seconds": self.forward_seconds,
            "backward_calls": self.backward_calls,
            "backward_seconds": self.backward_seconds,
            "result_bytes": self.result_bytes,
        }


@dataclass
class Profiler:
    """Context manager that attributes tensor-core wall time to named ops.

    Re-entrant installs are not supported (one profiler at a time); the
    previously installed hook, if any, is restored on exit.
    """

    ops: dict[str, OpStats] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def __post_init__(self) -> None:
        self._previous_hook: Optional[Callable] = None
        self._started_at: float = 0.0
        self._last_event: float = 0.0
        self._active = False

    # ------------------------------------------------------------------
    # Hook plumbing
    # ------------------------------------------------------------------
    def _hook(self, backward_factory: Callable, data: np.ndarray) -> Callable:
        now = time.perf_counter()
        name = op_name(backward_factory)
        stats = self.ops.get(name)
        if stats is None:
            stats = self.ops[name] = OpStats()
        stats.calls += 1
        stats.forward_seconds += now - self._last_event
        stats.result_bytes += int(getattr(data, "nbytes", 0))
        self._last_event = now

        def timed_factory(out):
            run = backward_factory(out)

            def timed_run() -> None:
                start = time.perf_counter()
                run()
                end = time.perf_counter()
                stats.backward_seconds += end - start
                stats.backward_calls += 1
                # A backward interval must not also be charged to the next
                # forward op's construction delta.
                self._last_event = end

            return timed_run

        return timed_factory

    def __enter__(self) -> "Profiler":
        if self._active:
            raise RuntimeError("Profiler is not re-entrant")
        self._active = True
        self._previous_hook = set_profile_hook(self._hook)
        self._started_at = self._last_event = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        set_profile_hook(self._previous_hook)
        self.wall_seconds += time.perf_counter() - self._started_at
        self._active = False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def attributed_seconds(self) -> float:
        return sum(
            s.forward_seconds + s.backward_seconds for s in self.ops.values()
        )

    @property
    def total_calls(self) -> int:
        return sum(s.calls for s in self.ops.values())

    def report(self, top: Optional[int] = None) -> dict:
        """JSON-ready summary, ops sorted by attributed time (descending).

        Ties (all-zero timings in a fast run) break on the op name so the
        report is deterministic.
        """
        ranked = sorted(
            self.ops.items(),
            key=lambda item: (
                -(item[1].forward_seconds + item[1].backward_seconds),
                item[0],
            ),
        )
        if top is not None:
            ranked = ranked[:top]
        return {
            "wall_seconds": self.wall_seconds,
            "attributed_seconds": self.attributed_seconds,
            "unattributed_seconds": max(
                0.0, self.wall_seconds - self.attributed_seconds
            ),
            "total_ops": self.total_calls,
            "ops": {name: stats.to_dict() for name, stats in ranked},
        }


def profile_cell(
    attack: str,
    defense: str,
    rounds: int = 1,
    seed: int = 0,
) -> tuple[dict, dict]:
    """Run one smoke-grid sweep cell under the profiler.

    Builds the standard smoke grid restricted to ``attack`` x ``defense``
    (full participation, 2 clients, batch 3 — the same shape the CI smoke
    sweep runs) and returns ``(profile_report, cell_result)``.
    """
    from repro.experiments.sweep import GRID_PRESETS

    runner = GRID_PRESETS["smoke"](
        seed, rounds, None, attacks=(attack,), defenses=(defense,)
    )
    (cell,) = runner.cells()
    with Profiler() as profiler:
        result = runner.run_cell(cell)
    return profiler.report(), result
