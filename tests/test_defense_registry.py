"""The pluggable defense registry: registration, spec grammar, seeding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.augment import UnknownSuiteError, suite_by_name
from repro.defense import (
    DEFENSES,
    DefensePipeline,
    DPSGDDefense,
    GradientPruningDefense,
    NoDefense,
    OasisDefense,
    TransformReplaceDefense,
    make_defense,
    validate_defense_spec,
)
from repro.registry import (
    DuplicateNameError,
    RegistryError,
    SpecError,
    UnknownNameError,
    canonical_spec,
    parse_spec,
    split_spec_list,
)
from repro.utils.rng import derive_seed

BUILTIN_DEFENSES = (
    "WO", "MR", "mR", "SH", "HFlip", "VFlip", "MR+SH",
    "dpsgd", "dpfed", "prune", "ats", "tabular",
)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTIN_DEFENSES) <= set(DEFENSES.names())

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(UnknownNameError) as excinfo:
            DEFENSES.get("definitely-not-a-defense")
        message = str(excinfo.value)
        for name in BUILTIN_DEFENSES:
            assert name in message

    def test_unknown_defense_error_is_a_value_error(self):
        # The harnesses' structured-failure capture catches ValueError.
        with pytest.raises(ValueError):
            make_defense("nope")

    def test_duplicate_registration_refused(self):
        DEFENSES.register("dup_defense", NoDefense)
        try:
            with pytest.raises(DuplicateNameError):
                DEFENSES.register("dup_defense", NoDefense)
            DEFENSES.register("dup_defense", NoDefense, replace=True)
        finally:
            DEFENSES.unregister("dup_defense")
        assert "dup_defense" not in DEFENSES.names()

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownNameError):
            DEFENSES.unregister("never_registered")

    def test_grammar_characters_refused_in_names(self):
        for bad in ("", "bad name", "a>b", "a(b)", "a=b", "a,b"):
            with pytest.raises(RegistryError):
                DEFENSES.register(bad, NoDefense)

    def test_plus_allowed_in_names(self):
        # Suite unions like MR+SH are first-class registered names.
        assert make_defense("MR+SH").name == "MR+SH"


class TestSpecGrammar:
    def test_single_stage(self):
        assert parse_spec("dpsgd") == [("dpsgd", {})]

    def test_stage_with_knobs(self):
        assert parse_spec(
            "dpsgd(clip_norm=2.0, noise_multiplier=0.5)"
        ) == [("dpsgd", {"clip_norm": 2.0, "noise_multiplier": 0.5})]

    def test_chain(self):
        assert parse_spec("MR+SH>dpsgd(noise_multiplier=0.5)") == [
            ("MR+SH", {}),
            ("dpsgd", {"noise_multiplier": 0.5}),
        ]

    def test_bare_word_values_are_strings(self):
        assert parse_spec("ats(suite=MR)") == [("ats", {"suite": "MR"})]

    def test_literal_values_parse(self):
        [(_, kwargs)] = parse_spec(
            "MR(include_original=False)"
        )
        assert kwargs == {"include_original": False}

    def test_empty_stage_rejected(self):
        for bad in ("", ">", "MR>", ">dpsgd", "MR>>dpsgd"):
            with pytest.raises(SpecError):
                parse_spec(bad)

    def test_malformed_knobs_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("dpsgd(noise)")

    def test_canonical_spec_strips_whitespace(self):
        assert canonical_spec(" MR > dpsgd ") == "MR>dpsgd"

    def test_canonical_spec_normalizes_knob_order_and_spacing(self):
        # The seed-derivation key: every spelling of one configuration
        # must canonicalize identically, or reformatting a --defenses
        # string between a run and its --resume would move DP noise.
        spellings = (
            "dpsgd(clip_norm=2.0,noise_multiplier=0.5)",
            "dpsgd(noise_multiplier=0.5, clip_norm=2.0)",
            " dpsgd( clip_norm = 2.0 , noise_multiplier = 0.5 ) ",
        )
        canonicals = {canonical_spec(spelling) for spelling in spellings}
        assert len(canonicals) == 1

    def test_canonical_spellings_draw_identical_noise(self):
        grads = {"w": np.zeros(64)}
        a = make_defense("dpfed(noise_multiplier=0.2,clip_norm=1.0)", seed=3)
        b = make_defense("dpfed(clip_norm=1.0, noise_multiplier=0.2)", seed=3)
        np.testing.assert_array_equal(
            a.process_gradients(grads, np.random.default_rng())["w"],
            b.process_gradients(grads, np.random.default_rng())["w"],
        )

    def test_split_spec_list_respects_parens(self):
        assert split_spec_list(
            "WO,dpsgd(clip_norm=2.0,noise_multiplier=0.5),MR>dpsgd"
        ) == ["WO", "dpsgd(clip_norm=2.0,noise_multiplier=0.5)", "MR>dpsgd"]

    def test_split_spec_list_unbalanced_raises(self):
        with pytest.raises(SpecError):
            split_spec_list("dpsgd(clip_norm=2.0")
        with pytest.raises(SpecError):
            split_spec_list("dpsgd)")

    def test_validate_fails_fast_on_unknown_stage_and_knob(self):
        with pytest.raises(UnknownNameError):
            validate_defense_spec("MR>typo")
        with pytest.raises(RegistryError, match="declared knobs"):
            validate_defense_spec("dpsgd(bogus=1)")
        validate_defense_spec("MR>dpsgd(noise_multiplier=0.5)")  # clean

    def test_validate_fails_fast_on_everything_make_defense_would(self):
        # The fail-fast check must be exactly as strict as the build: an
        # invalid knob *value* and an unsatisfiable two-clipper pipeline
        # both abort at validation, not one cell into a sweep.
        with pytest.raises(ValueError):
            validate_defense_spec("dpsgd(clip_norm=-1.0)")
        with pytest.raises(ValueError, match="per_sample_clip"):
            validate_defense_spec("dpsgd>dpsgd")

    def test_factory_rejections_normalize_to_value_errors(self):
        # An unknown suite knob raises KeyError-family UnknownSuiteError
        # inside the factory; the registry must surface it as its
        # ValueError family so `except ValueError` consumers (the CLI,
        # structured-failure capture) handle every bad spec uniformly.
        with pytest.raises(SpecError, match="XYZ"):
            validate_defense_spec("ats(suite=XYZ)")
        with pytest.raises(ValueError):
            make_defense("ats(suite=XYZ)")
        with pytest.raises(SpecError, match="cannot build stage"):
            make_defense("dpsgd(clip_norm='abc')")


class TestMakeDefense:
    def test_wo_is_no_defense(self):
        assert isinstance(make_defense("WO"), NoDefense)

    def test_suite_names_build_oasis(self):
        defense = make_defense("MR+SH")
        assert isinstance(defense, OasisDefense)
        assert defense.expansion_factor() == 7

    def test_single_stage_returns_bare_defense(self):
        assert isinstance(make_defense("prune"), GradientPruningDefense)

    def test_knob_passthrough(self):
        defense = make_defense("dpsgd(noise_multiplier=0.5)")
        assert isinstance(defense, DPSGDDefense)
        assert defense.noise_multiplier == pytest.approx(0.5)

    def test_keyword_knobs_merge_and_override(self):
        defense = make_defense("dpsgd(noise_multiplier=0.5)", clip_norm=2.0)
        assert defense.clip_norm == pytest.approx(2.0)
        assert defense.noise_multiplier == pytest.approx(0.5)

    def test_keyword_knobs_refused_for_chains(self):
        with pytest.raises(RegistryError, match="ambiguous"):
            make_defense("MR>dpsgd", clip_norm=2.0)

    def test_undeclared_knob_raises(self):
        with pytest.raises(RegistryError, match="declared knobs"):
            make_defense("prune", bogus=3)

    @pytest.mark.parametrize("name", ["dpsgd", "dpfed"])
    def test_dp_arms_declare_exactly_clip_norm_and_noise(self, name):
        # Seeding goes through make_defense's reseed, never a knob.
        with pytest.raises(
            RegistryError,
            match=r"declared knobs: \['clip_norm', 'noise_multiplier'\]",
        ):
            make_defense(f"{name}(seed=3)")

    def test_chain_builds_pipeline_in_order(self):
        defense = make_defense("MR>dpsgd(noise_multiplier=0.5)")
        assert isinstance(defense, DefensePipeline)
        assert isinstance(defense.stages[0], OasisDefense)
        assert isinstance(defense.stages[1], DPSGDDefense)
        assert defense.per_sample_clip == pytest.approx(1.0)

    def test_instance_passes_through(self):
        defense = GradientPruningDefense(0.5)
        assert make_defense(defense) is defense

    def test_instance_with_knobs_refused(self):
        with pytest.raises(RegistryError):
            make_defense(NoDefense(), prune_fraction=0.5)

    def test_lineup_builds_and_orders(self):
        lineup = [make_defense(n) for n in ("WO", "MR", "dpsgd", "MR>dpsgd")]
        assert isinstance(lineup[0], NoDefense)
        assert isinstance(lineup[1], OasisDefense)
        assert isinstance(lineup[2], DPSGDDefense)
        assert isinstance(lineup[3], DefensePipeline)

    def test_lineup_unknown_name_lists_available(self):
        with pytest.raises(UnknownNameError, match="registered defenses"):
            make_defense("Gaussian")


class TestSeedDerivation:
    """Stochastic defenses draw order/worker-invariant private streams."""

    def _ats_choices(self, seed):
        defense = make_defense("ats", seed=seed)
        images = np.linspace(0, 1, 4 * 3 * 8 * 8).reshape(4, 3, 8, 8)
        labels = np.arange(4)
        # A throwaway caller generator: a reseeded defense must ignore it.
        out, _ = defense.process_batch(images, labels, np.random.default_rng())
        return out

    def test_same_seed_same_draws(self):
        np.testing.assert_array_equal(
            self._ats_choices(5), self._ats_choices(5)
        )

    def test_different_seed_different_draws(self):
        assert not np.array_equal(self._ats_choices(5), self._ats_choices(6))

    def test_unseeded_defense_uses_caller_generator(self):
        defense = make_defense("dpfed")
        grads = {"w": np.zeros(64)}
        a = defense.process_gradients(grads, np.random.default_rng(3))["w"]
        b = defense.process_gradients(grads, np.random.default_rng(3))["w"]
        np.testing.assert_array_equal(a, b)

    def test_seeded_dp_noise_reproducible(self):
        grads = {"w": np.zeros(64)}
        a = make_defense("dpfed", seed=9).process_gradients(
            grads, np.random.default_rng()
        )["w"]
        b = make_defense("dpfed", seed=9).process_gradients(
            grads, np.random.default_rng()
        )["w"]
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, 0.0)

    def test_pipeline_stages_draw_independent_streams(self):
        # Two identical stochastic stages of one pipeline must not share a
        # stream: each gets a seed keyed by its index (and name).
        pipeline = make_defense("dpfed>dpfed", seed=4)
        grads = {"w": np.zeros(64)}
        throwaway = np.random.default_rng()
        first = pipeline.stages[0].process_gradients(grads, throwaway)["w"]
        second = pipeline.stages[1].process_gradients(grads, throwaway)["w"]
        assert not np.allclose(first, second)

    def test_make_defense_seeding_matches_manual_reseed(self):
        grads = {"w": np.zeros(64)}
        via_registry = make_defense("dpfed>dpfed", seed=4).process_gradients(
            grads, np.random.default_rng()
        )["w"]
        manual = DefensePipeline([make_defense("dpfed"), make_defense("dpfed")])
        manual.reseed(derive_seed(4, "defense", "dpfed>dpfed"))
        via_manual = manual.process_gradients(grads, np.random.default_rng())["w"]
        np.testing.assert_array_equal(via_registry, via_manual)


class TestSuiteLookupErrors:
    def test_suite_by_name_unknown_lists_available(self):
        with pytest.raises(UnknownSuiteError) as excinfo:
            suite_by_name("Gaussian")
        message = str(excinfo.value)
        for name in ("MR", "mR", "SH", "HFlip", "VFlip", "MR+SH"):
            assert name in message

    def test_unknown_suite_error_is_a_key_error(self):
        # The historical contract of suite_by_name.
        with pytest.raises(KeyError):
            suite_by_name("Gaussian")

    def test_transform_replace_typo_suite_lists_available(self):
        with pytest.raises(UnknownSuiteError, match="available suites"):
            TransformReplaceDefense(suite="Gaussian")
