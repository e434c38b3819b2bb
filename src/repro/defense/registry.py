"""The defense registry: spec strings -> composable client defenses.

The sweep engine grids over defenses the same way it grids over attacks
(:mod:`repro.attacks.registry`), so the defense axis must be *data*, not a
hard-coded ``"WO" | OasisDefense(name)`` branch.  :data:`DEFENSES` maps
each name to a factory whose keyword parameters are its knobs, and every
consumer (``SweepRunner``, the CLI's ``--defenses`` flag, the per-figure
harnesses, tests) resolves defenses through :func:`make_defense`.

One defense arm is a spec in the :mod:`repro.registry` grammar::

    WO                              # no defense
    MR+SH                           # OASIS with the MR+SH suite
    dpsgd(noise_multiplier=0.5)     # DP-SGD with a non-default knob
    MR>dpsgd                        # OASIS composed with DP-SGD

Multi-stage specs build a
:class:`~repro.defense.pipeline.DefensePipeline`; a single stage returns
the bare defense.

Adding a defense: implement :class:`~repro.defense.base.ClientDefense`
(override only the hooks you use; override ``reseed`` only if you hold
private state beyond the base class's ``_rng``), then register a factory
whose keyword parameters are exactly the knobs — seeding is applied
afterwards through :meth:`~ClientDefense.reseed`, never by the factory::

    DEFENSES.register("mydefense", MyDefense)
"""

from __future__ import annotations

from functools import partial

from repro.augment.suites import available_suites
from repro.defense.base import ClientDefense, NoDefense
from repro.defense.baselines import (
    DPGradientDefense,
    DPSGDDefense,
    GradientPruningDefense,
    TransformReplaceDefense,
)
from repro.defense.oasis import OasisDefense
from repro.defense.pipeline import DefensePipeline
from repro.defense.tabular import TabularOasisDefense
from repro.registry import (
    Registry,
    RegistryError,
    SpecError,
    canonical_spec,
    parse_spec,
)
from repro.utils.rng import derive_seed

DEFENSES = Registry("defense")


def validate_defense_spec(spec: str) -> None:
    """Fail fast on a bad spec, raising whatever :func:`make_defense` would.

    Grammar errors, unknown names, undeclared knobs, invalid knob values
    (a factory rejecting ``clip_norm=-1``), and unsatisfiable pipelines
    (two per-sample-clipping stages) all surface here.  Grid runners call
    this per arm at construction so a bad spec aborts immediately, not
    one cell deep into a sweep.  Implemented as a throwaway build:
    factories are pure constructors, so building and discarding is both
    cheap and exactly as strict as the real thing.
    """
    make_defense(spec)


def make_defense(
    spec: "str | ClientDefense",
    seed: "int | None" = None,
    **knobs,
) -> ClientDefense:
    """Build a defense (or stack) from a spec string.

    Multi-stage specs return a
    :class:`~repro.defense.pipeline.DefensePipeline`; a single stage
    returns the bare defense.  ``knobs`` merge into (and override) the
    spec string's own arguments and are only meaningful for single-stage
    specs — for chains, put knobs in the string where they are
    unambiguous.  Undeclared knobs are a configuration typo and raise.

    With ``seed``, the built defense is reseeded with a seed derived from
    ``(seed, "defense", canonical spec)`` so every stochastic stage draws
    an order/worker-invariant private stream; grid runners pass their
    cell's fingerprint-derived seed here.  An already-built
    :class:`~repro.defense.base.ClientDefense` passes through (reseeded
    when ``seed`` is given).
    """
    if isinstance(spec, ClientDefense):
        if knobs:
            raise RegistryError(
                "knobs cannot be applied to an already-built defense "
                f"instance {spec.name!r}"
            )
        if seed is not None:
            spec.reseed(derive_seed(seed, "defense", spec.name))
        return spec
    stages = parse_spec(spec)
    if knobs and len(stages) != 1:
        raise RegistryError(
            f"keyword knobs are ambiguous for the multi-stage spec {spec!r}; "
            "write them into the spec string per stage, e.g. "
            "'MR>dpsgd(noise_multiplier=0.5)'"
        )
    built: list[ClientDefense] = []
    for name, kwargs in stages:
        try:
            built.append(DEFENSES.build(name, {**kwargs, **knobs}))
        except RegistryError:
            raise
        except (ValueError, KeyError, TypeError) as error:
            # Normalize factory rejections (a negative clip_norm, an
            # unknown suite's KeyError-family UnknownSuiteError, a
            # mistyped knob value) into the registry's ValueError family,
            # so every bad spec is catchable the same way — the CLI and
            # grid runners fail fast with one usage error, never a raw
            # traceback.
            raise SpecError(
                f"cannot build stage {name!r} of defense spec {spec!r}: "
                f"{error}"
            ) from error
    defense = built[0] if len(built) == 1 else DefensePipeline(built)
    if seed is not None:
        defense.reseed(derive_seed(seed, "defense", canonical_spec(spec)))
    return defense


# --------------------------------------------------------------------------
# Built-in registrations.
# --------------------------------------------------------------------------


def _make_ats(suite: str = "MR"):
    """ATSPrivacy-style transform-replace, batch size unchanged."""
    return TransformReplaceDefense(suite=suite)


def _make_tabular(num_features: int = 8):
    """Tabular OASIS: group permutation + mean-preserving jitter."""
    return TabularOasisDefense(num_features=num_features)


DEFENSES.register("WO", NoDefense)
for _suite_name in available_suites():
    DEFENSES.register(_suite_name, partial(OasisDefense, _suite_name))
DEFENSES.register("dpsgd", DPSGDDefense)
DEFENSES.register("dpfed", DPGradientDefense)
DEFENSES.register("prune", GradientPruningDefense)
DEFENSES.register("ats", _make_ats)
DEFENSES.register("tabular", _make_tabular)
