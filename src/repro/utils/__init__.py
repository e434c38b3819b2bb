"""Shared utilities: deterministic RNG management and atomic file writes."""

from repro.utils.checkpoint import (
    atomic_write_bytes,
    atomic_write_lines,
    atomic_write_text,
)
from repro.utils.rng import (
    derive_seed,
    keyed_uniforms,
    keyed_words,
    rng_for,
    seed_sequence_for,
)

__all__ = [
    "seed_sequence_for",
    "derive_seed",
    "rng_for",
    "keyed_words",
    "keyed_uniforms",
    "atomic_write_bytes",
    "atomic_write_lines",
    "atomic_write_text",
]
