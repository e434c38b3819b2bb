"""Per-figure/table experiment harnesses for the paper's evaluation.

Every attack figure is a view of one trial (:func:`run_trial`): scored
(:func:`run_attack_trial`, the sweeps and lineups), paired into galleries
(:func:`reconstruction_gallery`) or held against two defenses
(:func:`run_ats_comparison`).

Every name below is re-exported lazily (PEP 562 ``__getattr__``): importing
the package loads none of its submodules, so ``python -m
repro.experiments.sweep`` finds no sweep module already imported when it
runs that file as ``__main__``.
"""

from importlib import import_module

_EXPORTS = {
    "ats_comparison": (
        "ATSComparisonResult",
        "run_ats_comparison",
    ),
    "attack_sweep": (
        "PAPER_BATCH_SIZES",
        "PAPER_NEURON_COUNTS",
        "SweepResult",
        "monotone_in_batch_size",
        "run_sweep",
    ),
    "defense_eval": (
        "FIG5_LINEUP",
        "FIG6_LINEUP",
        "FIG13_LINEUP",
        "PAPER_SETTINGS",
        "DefenseLineupResult",
        "run_defense_lineup",
    ),
    "model_perf": (
        "TABLE1_LINEUP",
        "TrainingOutcome",
        "run_table1",
        "table1_report",
        "train_with_defense",
    ),
    "reporting": (
        "format_table",
        "render_ascii_image",
        "side_by_side",
    ),
    "runner": (
        "AttackTrialResult",
        "Trial",
        "run_attack_trial",
        "run_trial",
    ),
    "sweep": (
        "DEFAULT_DEFENSES",
        "DEFAULT_SCENARIOS",
        "SCENARIO_AXES",
        "SECAGG_SCENARIOS",
        "STORE_FORMAT",
        "ZOO_DEFENSES",
        "CellEvent",
        "CellExecution",
        "SerialSweepExecutor",
        "SweepCell",
        "SweepOutcome",
        "SweepRunner",
        "SweepStore",
        "SweepStoreError",
        "WorkStealingSweepExecutor",
        "dataset_fingerprint",
        "headline_ordering_holds",
        "headline_verdict",
        "is_failure",
        "make_executor",
        "run_tasks",
        "scenario_to_dict",
        "usable_cpu_count",
        "worker_shared",
    ),
    "visual": (
        "Gallery",
        "reconstruction_gallery",
        "render_pairs",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
