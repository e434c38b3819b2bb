"""Defenses: OASIS (the paper's contribution), the composable pipeline,
the pluggable registry, analysis tools, and baselines."""

from repro.defense.analysis import ActivationOverlapReport, activation_overlap_report
from repro.defense.base import ClientDefense, NoDefense
from repro.defense.baselines import (
    DPGradientDefense,
    DPSGDDefense,
    GradientPruningDefense,
    TransformReplaceDefense,
)
from repro.defense.detection import DetectionReport, inspect_state
from repro.defense.oasis import OasisDefense
from repro.defense.pipeline import STAGE_SEPARATOR, DefensePipeline
from repro.defense.registry import DEFENSES, make_defense, validate_defense_spec
from repro.defense.tabular import (
    GroupPermutation,
    MeanPreservingJitter,
    TabularOasisDefense,
    TabularTransform,
)

__all__ = [
    "ClientDefense",
    "NoDefense",
    "OasisDefense",
    "DefensePipeline",
    "STAGE_SEPARATOR",
    "DPGradientDefense",
    "DPSGDDefense",
    "GradientPruningDefense",
    "TransformReplaceDefense",
    "DEFENSES",
    "make_defense",
    "validate_defense_spec",
    "ActivationOverlapReport",
    "activation_overlap_report",
    "TabularOasisDefense",
    "TabularTransform",
    "GroupPermutation",
    "MeanPreservingJitter",
    "inspect_state",
    "DetectionReport",
]
