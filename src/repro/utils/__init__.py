"""Shared utilities: deterministic RNG management and numeric helpers."""

from repro.utils.checkpoint import (
    atomic_write_bytes,
    atomic_write_lines,
    atomic_write_text,
    load_state,
    save_state,
)
from repro.utils.numeric import numerical_gradient
from repro.utils.rng import (
    SeedSequence,
    derive_seed,
    keyed_uniforms,
    keyed_words,
    new_rng,
    rng_for,
    seed_sequence_for,
    spawn_rngs,
)

__all__ = [
    "new_rng",
    "spawn_rngs",
    "SeedSequence",
    "seed_sequence_for",
    "derive_seed",
    "rng_for",
    "keyed_words",
    "keyed_uniforms",
    "numerical_gradient",
    "save_state",
    "load_state",
    "atomic_write_bytes",
    "atomic_write_lines",
    "atomic_write_text",
]
