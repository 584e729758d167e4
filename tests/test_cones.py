# -*- coding: utf-8 -*-

import numpy as np
import pytest

from cadmm.cones import (FREE, NONNEG, ZERO, ConePattern, project_nonneg,
                         project_pattern, project_pattern_dual,
                         prox_nonneg_linear, prox_linear,
                         prox_pattern_dual_linear, prox_psd_indicator)
from cadmm.linalg import project_psd

from conftest import random_pattern, random_sym


class TestConePattern:
    def test_rejects_asymmetric(self):
        kinds = np.array([[1, 0], [2, 1]], dtype=np.int8)
        with pytest.raises(ValueError, match="symmetric"):
            ConePattern(kinds)

    @pytest.mark.parametrize("kind", [3, -1])
    def test_rejects_unknown_kinds(self, kind):
        kinds = np.full((3, 3), NONNEG, dtype=np.int8)
        kinds[0, 2] = kinds[2, 0] = kind
        with pytest.raises(ValueError, match="^pattern kinds must be Zero, NonNeg or Free$"):
            ConePattern(kinds)

    @pytest.mark.parametrize("build, message", [
        (lambda: ConePattern(np.ones((2, 3))), "pattern must be square"),
        (lambda: ConePattern(np.ones(3)), "pattern must be square"),
        (lambda: ConePattern.from_rle(3, [[5, "N"]]),
         "pattern run-length data does not cover the upper triangle"),
        (lambda: ConePattern.from_rle(2, [[2, "N"], [2, "F"]]),
         "pattern run-length data does not cover the upper triangle"),
    ], ids=["2x3", "vector", "rle-short", "rle-long"])
    def test_rejects_misshapen_data(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_dual_swaps_zero_and_free(self):
        pat = ConePattern.from_entries(3, NONNEG, {(0, 1): ZERO, (1, 2): FREE})
        dual = pat.dual()
        assert dual.kinds[0, 1] == FREE
        assert dual.kinds[1, 2] == ZERO
        assert dual.kinds[0, 0] == NONNEG

    def test_rle_round_trip(self, rng):
        for _ in range(20):
            pat = random_pattern(rng, 6)
            back = ConePattern.from_rle(6, pat.rle())
            assert back == pat


class TestProjectPattern:
    def test_all_nonneg_example(self):
        x = np.array([[1.0, -2.0], [-2.0, 3.0]])
        out = project_pattern(x, ConePattern.all_nonneg(2))
        assert np.allclose(out, [[1.0, 0.0], [0.0, 3.0]])

    def test_all_free_identity(self, rng):
        x = random_sym(rng, 4)
        assert np.array_equal(project_pattern(x, ConePattern.all_free(4)), x)

    def test_mixed_matches_entrywise_definition(self, rng):
        pat = ConePattern.from_entries(
            3, NONNEG, {(0, 1): ZERO, (1, 2): FREE, (2, 2): FREE})
        x = random_sym(rng, 3)
        out = project_pattern(x, pat)
        for i in range(3):
            for j in range(3):
                kind = pat.kinds[i, j]
                if kind == ZERO:
                    expect = 0.0
                elif kind == NONNEG:
                    expect = max(0.0, x[i, j])
                else:
                    expect = x[i, j]
                assert out[i, j] == pytest.approx(expect, abs=1e-15)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimensions"):
            project_pattern(np.zeros((3, 3)), ConePattern.all_nonneg(2))


def masked_projection(x, pattern):
    """The boolean-mask projection the bound form replaced."""
    out = np.asarray(x, dtype=float).copy()
    out[pattern.kinds == ZERO] = 0.0
    nn = pattern.kinds == NONNEG
    out[nn] = np.maximum(out[nn], 0.0)
    return out


class TestProjectionBounds:
    def test_matches_masked_projection(self, rng):
        for n in (1, 2, 5, 17):
            for _ in range(10):
                pat = random_pattern(rng, n)
                x = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
                x[rng.random((n, n)) < 0.1] = 0.0
                assert np.array_equal(project_pattern(x, pat), masked_projection(x, pat))
                assert np.array_equal(project_pattern_dual(x, pat),
                                      masked_projection(x, pat.dual()))

    def test_bounds_built_once(self, rng):
        pat = random_pattern(rng, 4)
        x = random_sym(rng, 4)
        project_pattern(x, pat)
        project_pattern_dual(x, pat)
        bounds, dual_bounds = pat._bounds, pat.dual()._bounds
        assert bounds is not None and dual_bounds is not None
        project_pattern(-x, pat)
        project_pattern_dual(-x, pat)
        assert pat._bounds is bounds and pat.dual()._bounds is dual_bounds
        lo, hi = pat.bounds()
        with pytest.raises(ValueError):
            lo[0, 0] = 1.0

    def test_leaves_input_unchanged(self, rng):
        pat = random_pattern(rng, 5)
        x = random_sym(rng, 5)
        before = x.copy()
        out = project_pattern(x, pat)
        assert np.array_equal(x, before) and out is not x


class TestProjectPatternDual:
    def test_self_dual_orthant(self, rng):
        pat = ConePattern.all_nonneg(4)
        x = random_sym(rng, 4)
        assert np.allclose(project_pattern_dual(x, pat), project_pattern(x, pat))

    def test_dual_of_whole_space_is_origin(self, rng):
        x = random_sym(rng, 4)
        assert np.allclose(project_pattern_dual(x, ConePattern.all_free(4)), 0.0)

    def test_moreau_identity(self, rng):
        for _ in range(30):
            pat = random_pattern(rng, 5)
            x = random_sym(rng, 5)
            recon = project_pattern(x, pat) - project_pattern_dual(-x, pat)
            assert np.linalg.norm(x - recon) <= 1e-12


class TestProjectNonneg:
    def test_examples(self):
        assert np.allclose(project_nonneg(np.array([1.0, -2.0, 0.0])), [1.0, 0.0, 0.0])
        v = np.array([0.5, 2.0])
        assert np.array_equal(project_nonneg(v), v)

    def test_projection_optimality(self, rng):
        for _ in range(30):
            v = rng.standard_normal(8)
            p = project_nonneg(v)
            assert abs((v - p) @ p) <= 1e-14
            assert ((v - p) <= 1e-15).all()


class TestIdempotentNonexpansive:
    def test_all_projections(self, rng):
        pat = random_pattern(rng, 5)
        for _ in range(100):
            a, b = random_sym(rng, 5), random_sym(rng, 5)
            for proj in (lambda m: project_pattern(m, pat),
                         lambda m: project_pattern_dual(m, pat)):
                pa, pb = proj(a), proj(b)
                assert np.linalg.norm(proj(pa) - pa) <= 1e-14
                assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12
            va, vb = a[0], b[0]
            assert np.linalg.norm(project_nonneg(project_nonneg(va))
                                  - project_nonneg(va)) <= 1e-14
            assert (np.linalg.norm(project_nonneg(va) - project_nonneg(vb))
                    <= np.linalg.norm(va - vb) + 1e-12)


class TestProxOracles:
    def test_nonneg_linear_stationarity(self, rng):
        b = rng.standard_normal(6)
        prox = prox_nonneg_linear(b)
        point = rng.standard_normal(6)
        t = 0.7
        y = prox(point, t)
        # optimality of min -b'y + ||y - point||^2/(2t) over y >= 0:
        # y = max(0, point + t b)
        grad = -b + (y - point) / t
        assert (y >= 0).all()
        assert np.allclose(np.minimum(grad, 0.0) * (y > 0), 0.0, atol=1e-12)
        assert (grad[y <= 0] >= -1e-12).all()

    def test_linear(self, rng):
        b = rng.standard_normal(4)
        assert np.allclose(prox_linear(b)(np.zeros(4), 2.0), 2.0 * b)

    def test_pattern_dual_linear_firmly_nonexpansive(self, rng):
        pat = random_pattern(rng, 4)
        m = random_sym(rng, 4)
        prox = prox_pattern_dual_linear(m, pat)
        for _ in range(20):
            a, b = random_sym(rng, 4), random_sym(rng, 4)
            pa, pb = prox(a, 0.5), prox(b, 0.5)
            lhs = np.linalg.norm(pa - pb) ** 2
            rhs = np.vdot(pa - pb, a - b)
            assert lhs <= rhs + 1e-10

    def test_psd_indicator_is_projection(self, rng):
        s = random_sym(rng, 5)
        assert np.allclose(prox_psd_indicator()(s, 3.0), project_psd(s))
