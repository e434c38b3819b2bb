"""Utilities: RNG management, atomic writes, the BLAS thread cap; the
gradcheck helper."""

from __future__ import annotations

import ctypes
import ctypes.util
from pathlib import Path

import numpy as np
import pytest

from repro.utils import (
    derive_seed,
    keyed_uniforms,
    keyed_words,
    rng_for,
    seed_sequence_for,
)
from repro.utils import blas
from repro.utils.blas import limit_blas_threads
from repro.utils.checkpoint import atomic_write_bytes, atomic_write_text
from gradcheck import numerical_gradient


class TestLabelKeyedSeeding:
    """derive_seed / seed_sequence_for: streams keyed by labels, not order."""

    def test_deterministic_across_calls(self):
        assert derive_seed(0, "a|b|c") == derive_seed(0, "a|b|c")
        first = rng_for(7, "cell").standard_normal(4)
        second = rng_for(7, "cell").standard_normal(4)
        np.testing.assert_array_equal(first, second)

    def test_label_changes_stream(self):
        assert derive_seed(0, "cell-a") != derive_seed(0, "cell-b")
        assert derive_seed(0, "x", "y") != derive_seed(0, "y", "x")

    def test_base_seed_changes_stream(self):
        assert derive_seed(0, "cell") != derive_seed(1, "cell")

    def test_seed_in_uint32_range(self):
        for base in (0, 1, 2**63, -5):
            seed = derive_seed(base, "cell")
            assert 0 <= seed < 2**32

    def test_sequence_feeds_default_rng(self):
        rng = np.random.default_rng(seed_sequence_for(3, "label"))
        assert isinstance(rng.integers(0, 10), np.integer)

    def test_independent_of_other_consumers(self):
        # Asking for more labels never perturbs an existing one's stream.
        alone = derive_seed(5, "mine")
        with_neighbors = derive_seed(5, "mine")
        derive_seed(5, "other")
        assert alone == with_neighbors == derive_seed(5, "mine")


class TestKeyedDraws:
    """keyed_words / keyed_uniforms: counter-based draws keyed per id."""

    def test_shape_and_determinism(self):
        words = keyed_words(7, "trace", [3, 1, 4], 2, k=5)
        assert words.shape == (3, 5) and words.dtype == np.uint64
        np.testing.assert_array_equal(words, keyed_words(7, "trace", [3, 1, 4], 2, k=5))

    def test_every_key_part_changes_the_draw(self):
        base = keyed_words(7, "trace", [3], 2, k=4)
        for other in (
            keyed_words(8, "trace", [3], 2, k=4),
            keyed_words(7, "other", [3], 2, k=4),
            keyed_words(7, "trace", [4], 2, k=4),
            keyed_words(7, "trace", [3], 3, k=4),
        ):
            assert not np.intersect1d(base, other).size

    def test_columns_extend_without_changing_earlier_ones(self):
        np.testing.assert_array_equal(
            keyed_words(1, "x", [9, 10], k=2), keyed_words(1, "x", [9, 10], k=6)[:, :2]
        )

    def test_uniforms_fill_the_open_unit_interval(self):
        draws = keyed_uniforms(0, "u", np.arange(50_000), k=2)
        assert 0.0 < draws.min() and draws.max() < 1.0
        # Each decile holds a tenth of the draws, within sampling noise.
        counts = np.histogram(draws, bins=10, range=(0.0, 1.0))[0]
        assert np.abs(counts / draws.size - 0.1).max() < 0.01


class TestBlasThreadCap:
    def test_caps_the_bundled_openblas(self):
        getters = [
            getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
            for path in blas._bundled_libraries()
        ]
        getter = next((g for g in getters if g is not None), None)
        if getter is None:
            pytest.skip("numpy bundles no 64-bit scipy-openblas here")
        before = getter()
        try:
            assert limit_blas_threads(1) is None
            assert getter() == 1
        finally:
            limit_blas_threads(before)
        assert getter() == before

    def test_without_a_bundled_openblas_it_says_why(self, monkeypatch):
        monkeypatch.setattr(blas, "_bundled_libraries", lambda: [])
        assert "no OpenBLAS" in limit_blas_threads(1)

    def test_without_a_known_setter_it_says_why(self, monkeypatch):
        libm = ctypes.util.find_library("m")
        if libm is None:
            pytest.skip("no libm to stand in for a BLAS without a setter")
        monkeypatch.setattr(blas, "_bundled_libraries", lambda: [Path(libm)])
        reason = limit_blas_threads(1)
        assert reason.startswith("none of scipy_openblas_set_num_threads64_")

    def test_rejects_fewer_than_one_thread(self):
        with pytest.raises(ValueError, match="threads"):
            limit_blas_threads(0)


class TestAtomicWrite:
    def test_text_roundtrip(self, tmp_path):
        path = atomic_write_text(tmp_path / "out.txt", "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_creates_parent_dirs(self, tmp_path):
        path = atomic_write_bytes(tmp_path / "a" / "b" / "out.bin", b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"

    def test_no_temp_file_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_honors_umask_not_mkstemp_0600(self, tmp_path):
        import os

        path = atomic_write_text(tmp_path / "out.txt", "x")
        umask = os.umask(0)
        os.umask(umask)
        assert (path.stat().st_mode & 0o777) == (0o666 & ~umask)


class TestNumericalGradient:
    def test_quadratic(self):
        point = np.array([1.0, -2.0, 3.0])
        grad = numerical_gradient(lambda p: float(np.sum(p ** 2)), point)
        np.testing.assert_allclose(grad, 2 * point, atol=1e-6)

    def test_leaves_point_unchanged(self):
        point = np.array([1.0, 2.0])
        original = point.copy()
        numerical_gradient(lambda p: float(p.sum()), point)
        np.testing.assert_array_equal(point, original)

    def test_matrix_input(self, rng):
        point = rng.standard_normal((2, 3))
        grad = numerical_gradient(lambda p: float((p ** 3).sum()), point)
        np.testing.assert_allclose(grad, 3 * point ** 2, atol=1e-5)
