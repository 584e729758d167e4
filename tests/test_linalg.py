# -*- coding: utf-8 -*-

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from cadmm import dnnsdp, linalg
from cadmm.cli import generate_problem
from cadmm.io import problem_from_json, problem_to_json
from cadmm.linalg import (MAX_DENSE_GRAM, GramSingularError,
                          PowerIterationWarning, SparseSymList, frob_norm, gram_factor, gram_solve,
                          lambda_max_gram,
                          project_psd, psd_distance, smat,
                          svec)

from conftest import (dense_gram_independent, random_constraints, random_psd,
                      random_sym, random_surjective_constraints)


def random_diagonal_collection(rng, n, m):
    """Rows on disjoint sets of entries, so the Gram matrix is diagonal."""
    iu, ju = np.triu_indices(n)
    cells = np.array_split(rng.permutation(iu.size), m)
    return SparseSymList(n, [(iu[c], ju[c],
                              rng.standard_normal(c.size) * 10.0 ** rng.uniform(-2, 2))
                             for c in cells])


def dense_cho_solve(a, rhs):
    """The reference: ``cho_solve`` with the dpotrf factor of the dense Gram."""
    c, info = scipy.linalg.lapack.dpotrf(a.gram(), lower=1)
    assert info == 0
    return scipy.linalg.cho_solve((c, True), rhs)


def tridiagonal_collection(m):
    """Row k holds svec coordinates k and k + 1: a tridiagonal Gram."""
    n = int(np.ceil(np.sqrt(2 * (m + 1))))
    iu, ju = np.triu_indices(n)
    return SparseSymList(n, [(iu[k:k + 2], ju[k:k + 2], [1.0, 0.5]) for k in range(m)])


class TestSvec:
    def test_round_trip(self, rng):
        x = random_sym(rng, 6)
        assert np.allclose(smat(svec(x), 6), x, atol=1e-14)

    def test_preserves_inner_product(self, rng):
        a, b = random_sym(rng, 5), random_sym(rng, 5)
        assert np.isclose(svec(a) @ svec(b), np.vdot(a, b), atol=1e-12)


class TestProjectPsd:
    def test_diagonal_clamp(self):
        out = project_psd(np.diag([2.0, -1.0]))
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-14)

    def test_identity_on_cone(self, rng):
        m = random_psd(rng, 6)
        assert np.linalg.norm(project_psd(m) - m) <= 1e-12

    def test_nearest_point_against_projected_gradient(self, rng):
        # oracle: projected gradient on 0.5||Z - M||^2 with an independently
        # assembled spectral projection, run to stationarity
        import scipy.linalg

        def oracle_project(z):
            w, v = scipy.linalg.eigh(0.5 * (z + z.T))
            w = np.clip(w, 0.0, None)
            return v @ np.diag(w) @ v.T

        m = random_sym(rng, 5)
        z = np.zeros((5, 5))
        for _ in range(200):
            z = oracle_project(z - 0.3 * (z - m))
        out = project_psd(m)
        assert np.linalg.norm(out - z) <= 1e-10

    def test_variational_inequality(self, rng):
        # r = proj(m) iff r psd and <m - r, z - r> <= 0 for all psd z
        m = random_sym(rng, 6)
        r = project_psd(m)
        assert np.linalg.eigvalsh(r).min() >= -1e-12 * max(1.0, np.abs(r).max())
        for _ in range(50):
            z = random_psd(rng, 6, scale=2.0)
            assert np.vdot(m - r, z - r) <= 1e-10

    def test_idempotent_and_nonexpansive(self, rng):
        for _ in range(100):
            a, b = random_sym(rng, 5), random_sym(rng, 5)
            pa, pb = project_psd(a), project_psd(b)
            assert np.linalg.norm(project_psd(pa) - pa) <= 1e-12
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_moreau_decomposition(self, rng):
        for _ in range(20):
            m = random_sym(rng, 7)
            assert np.linalg.norm(m - (project_psd(m) - project_psd(-m))) <= 1e-10

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            project_psd(bad)

    @pytest.mark.parametrize("n", [1, 9, 49])
    @pytest.mark.parametrize("negatives", ["none", "one", "few", "most", "all"])
    def test_matches_full_eigendecomposition(self, n, negatives):
        # only the negative eigenpairs are computed; the reference clamps
        # the full spectrum of a dense eigh
        rng = np.random.default_rng(n)
        k = {"none": 0, "one": 1, "few": max(1, n // 5), "most": n - max(1, n // 5),
             "all": n}[negatives]
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = rng.uniform(0.1, 10.0, n) * np.where(np.arange(n) < k, -1.0, 1.0)
        m = (q * lam) @ q.T + 1e-3 * rng.standard_normal((n, n))
        w, v = np.linalg.eigh(0.5 * (m + m.T))
        ref = (v * np.maximum(w, 0.0)) @ v.T
        assert np.linalg.norm(project_psd(m) - ref) <= 1e-12 * np.linalg.norm(m)

    @staticmethod
    def congruence(b, v):
        bv = b @ v
        t = v @ (bv - 0.5 * (v @ (v.T @ bv))).T
        return b - (t + t.T)

    @staticmethod
    def guarded_dsyevr(b):
        """The nonpositive eigenvectors of b from direct dsyevr calls: one by
        value range to the guard band with abstol BISECTION_TOL * s, and one
        over (-inf, 0] when its eigenvalues do not split into those below
        -tol and those above tol, at least the band plus 2 tol apart."""
        lapack = scipy.linalg.lapack
        s = np.abs(b).max()
        if not 1.0 <= s < linalg.SCALE_LIMIT:
            e = -math.frexp(s)[1]
            b, s = np.ldexp(b, e), math.ldexp(s, e)
        g, tol = linalg.GUARD_BAND * s, linalg.BISECTION_TOL * s
        w, v, m, _, info = lapack.dsyevr(b, compute_v=1, range="V", vl=-np.inf, vu=g,
                                         abstol=tol, lower=1)
        assert info == 0
        wanted, unwanted = w[:m][w[:m] <= 0.0], w[:m][w[:m] > 0.0]
        below = wanted.max() if wanted.size else -np.inf
        above = unwanted.min() if unwanted.size else g + tol
        if below < -tol and above > tol and above - below >= g + 2.0 * tol:
            return v[:, :wanted.size]
        _, v, k, _, info = lapack.dsyevr(b, compute_v=1, range="V", vl=-np.inf, vu=0.0,
                                         lower=1)
        assert info == 0
        return v[:, :k]

    @pytest.mark.parametrize("n", [1, 9, 21, 22, 49])
    def test_same_bits_as_its_lapack_route_on_the_c_ordered_copy(self, n):
        # project_psd hands LAPACK the Fortran-ordered transpose of the
        # symmetrized input; f2py would copy the C-ordered array into the
        # same Fortran layout, so the eigenvectors and the result keep
        # every bit. The route is dsyevr by value range to the guard band,
        # and a second dsyevr call over (-inf, 0] when an eigenvalue lies
        # within tol of zero (the last input); the core at a count of 0 on
        # the symmetrized input gives the same bits
        rng = np.random.default_rng(n + 100)
        inputs = [random_sym(rng, n) for _ in range(20)]
        inputs.append(self.with_eigenvalue_at(n, n // 3, 1e-10, n))
        for m in inputs:
            b = 0.5 * (m + m.T)
            ref = self.congruence(b, self.guarded_dsyevr(b))
            assert np.array_equal(project_psd(m), ref)
            assert np.array_equal(linalg.project_psd_unchecked(b, 0)[0], ref)

    @staticmethod
    def solver_like(kind, n=100):
        """A symmetric input of order n with a spectrum like the solver's
        projection inputs, and its symmetrized form."""
        rng = np.random.default_rng(sum(map(ord, kind)))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = rng.uniform(0.1, 10.0, n)
        if kind == "cluster at zero":   # 20 eigenvalues within 1e-9 of 0
            lam[:20] = rng.uniform(-1e-9, 1e-9, 20)
            lam[20:30] *= -1.0
        elif kind == "repeated negative":   # -2 ten times
            lam[:10] = -2.0
            lam[10:15] *= -1.0
        elif kind == "34 % negative":   # theta at edge density 0.3
            lam[:34] *= -1.0
        m = (q * lam) @ q.T
        return m, 0.5 * (m + m.T)

    @pytest.mark.parametrize("route", ["dsyevr", "dsyevd"])
    @pytest.mark.parametrize("kind", ["cluster at zero", "repeated negative", "34 % negative",
                                      "positive definite"])
    def test_solver_like_spectra_on_both_routes(self, route, kind):
        # project_psd (None) and the core at a count of 0 take dsyevr, the
        # core at a count of n dsyevd; the core gets the symmetrized input
        n = 100
        m, b = self.solver_like(kind, n)
        w, v = np.linalg.eigh(b)
        ref = (v * np.maximum(w, 0.0)) @ v.T
        for count in ([None, 0] if route == "dsyevr" else [n]):
            project = (project_psd if count is None else
                       lambda x: linalg.project_psd_unchecked(0.5 * (x + x.T), count)[0])
            out = project(m)
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(m), count
            lam_min = np.linalg.eigvalsh(out).min()
            assert lam_min >= -n * np.finfo(float).eps * np.linalg.norm(b), count
            if kind == "positive definite":
                assert np.array_equal(project(b), b), count

    @staticmethod
    def failing_lapack(monkeypatch, routine, fails):
        """Make ``routine`` report info 3 on the calls for which
        ``fails(kwargs)`` holds."""
        real = getattr(scipy.linalg.lapack, routine)

        def patched(*args, **kwargs):
            got = real(*args, **kwargs)
            return got[:-1] + (3,) if fails(kwargs) else got

        monkeypatch.setattr(scipy.linalg.lapack, routine, patched)

    @pytest.mark.parametrize("routine, n", [("dsyevr", 9), ("dsyevd", 9)])
    def test_lapack_failure_names_the_routine(self, monkeypatch, routine, n):
        self.failing_lapack(monkeypatch, routine, lambda kwargs: True)
        with pytest.raises(np.linalg.LinAlgError, match=f"project_psd: {routine} failed "
                                                        f"with info 3"):
            # project_psd takes dsyevr, the core at a previous count of n dsyevd
            m = random_sym(np.random.default_rng(0), n)
            project_psd(m) if routine == "dsyevr" else linalg.project_psd_unchecked(m, n)

    @pytest.mark.parametrize("n", [9, 49])
    def test_a_failed_second_dsyevr_call_names_dsyevr(self, monkeypatch, n):
        # the call over (-inf, 0] runs only when the first call's split at
        # zero is unclear, here through an eigenvalue within tol of zero,
        # and it fails alone
        self.failing_lapack(monkeypatch, "dsyevr", lambda kwargs: kwargs["vu"] == 0.0)
        project_psd(random_sym(np.random.default_rng(0), n))
        with pytest.raises(np.linalg.LinAlgError, match="project_psd: dsyevr failed "
                                                        "with info 3"):
            project_psd(self.with_eigenvalue_at(n, 2, 1e-10, 0))

    def test_psd_input_comes_back_unchanged(self):
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
        m = (q * rng.uniform(0.1, 10.0, 9)) @ q.T
        m = 0.5 * (m + m.T)
        assert np.array_equal(project_psd(m), m)

    @staticmethod
    def with_negatives(n, k, seed):
        """A symmetric input of order n with k negative eigenvalues."""
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = rng.uniform(0.1, 10.0, n) * np.where(np.arange(n) < k, -1.0, 1.0)
        m = (q * lam) @ q.T + 1e-3 * rng.standard_normal((n, n))
        return m, 0.5 * (m + m.T)

    @staticmethod
    def with_eigenvalue_at(n, k, at, seed):
        """A symmetric input of order n with k eigenvalues in [-10, -0.1]
        and one at ``at`` times its Frobenius norm, or one at each entry
        of a tuple ``at``."""
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = rng.uniform(0.1, 10.0, n) * np.where(np.arange(n) < k, -1.0, 1.0)
        at = np.atleast_1d(at)
        lam[k:k + at.size] = 0.0
        lam[k:k + at.size] = at * np.linalg.norm(lam)
        m = (q * lam) @ q.T
        return 0.5 * (m + m.T)

    @staticmethod
    def spy(monkeypatch, routine):
        """The list to which every call of ``routine`` appends its keyword
        arguments."""
        calls = []
        real = getattr(scipy.linalg.lapack, routine)
        monkeypatch.setattr(scipy.linalg.lapack, routine,
                            lambda *args, **kwargs: calls.append(kwargs) or real(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("n", [1, 4, 9, 15, 21, 22, 49])
    @pytest.mark.parametrize("share", [0.25, 0.5, 1.0])
    def test_a_count_of_a_quarter_takes_dsyevd(self, monkeypatch, n, share):
        # a previous count of at least n/4 takes a full dsyevd, whose
        # result agrees with the dsyevr route to rounding and is PSD to
        # rounding; the count that comes back is this input's
        taken = []
        real = linalg._nonpositive_eigenvectors_dsyevd
        monkeypatch.setattr(linalg, "_nonpositive_eigenvectors_dsyevd",
                            lambda b: taken.append(b.shape) or real(b))
        k, count = math.ceil(share * n), math.ceil(n / 4)
        for seed in range(10):
            m, b = self.with_negatives(n, k, seed)
            out, got = linalg.project_psd_unchecked(b, count)
            ref = project_psd(m)   # the dsyevr route
            assert got == linalg._nonpositive_eigenvectors_dsyevr(b).shape[1] == k
            assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(b)
            assert np.linalg.eigvalsh(out).min() >= -1e-15 * np.linalg.norm(b)
        assert taken == [(n, n)] * 10

    @pytest.mark.parametrize("n", [4, 9, 15, 21, 22, 30])
    def test_a_count_below_a_quarter_changes_no_bit(self, n):
        # a count below n/4 keeps the route of a call without a count and
        # its bits; one of at least n/4 takes dsyevd, which agrees with it
        # to rounding and is PSD to rounding; every call returns its
        # input's count
        first = math.ceil(n / 4)   # the smallest count that switches
        k = max(1, n // 3)
        for seed in range(5):
            m, b = self.with_negatives(n, k, seed)
            ref = project_psd(m)
            for count in [0, first - 1]:
                out, got = linalg.project_psd_unchecked(b, count)
                assert np.array_equal(out, ref) and got == k, count
            for count in [first, n]:
                out, got = linalg.project_psd_unchecked(b, count)
                assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(b), count
                assert np.linalg.eigvalsh(out).min() >= -1e-15 * np.linalg.norm(b), count
                assert got == k, count
        m, b = self.with_negatives(n, 0, 0)
        assert linalg.project_psd_unchecked(b, n)[1] == 0

    @pytest.mark.parametrize("n", [4, 9, 22, 30, 49])
    def test_exactly_the_counts_from_a_quarter_take_dsyevd(self, monkeypatch, n):
        # on a spectrum clear of the guard band, the counts from n/4 on
        # take one dsyevd call, and the counts below it and project_psd one
        # dsyevr call
        taken = []
        real = linalg._nonpositive_eigenvectors_dsyevd
        monkeypatch.setattr(linalg, "_nonpositive_eigenvectors_dsyevd",
                            lambda b: taken.append(b.shape) or real(b))
        syevr = self.spy(monkeypatch, "dsyevr")
        _, b = self.with_negatives(n, n // 2, 0)
        for count in range(n + 1):
            linalg.project_psd_unchecked(b, count)
        project_psd(b)
        assert len(taken) == n + 1 - math.ceil(n / 4)
        assert len(syevr) == math.ceil(n / 4) + 1

    @pytest.mark.parametrize("n", [22, 30, 49])
    @pytest.mark.parametrize("k", ["one", "a fifth", "a third"])
    def test_bisection_route_agrees_with_dsyevd(self, monkeypatch, n, k):
        # a spectrum clear of the guard band takes one dsyevr call, whose
        # bisection stops at BISECTION_TOL; the result agrees with the
        # dsyevd route to rounding, is PSD to rounding and comes with the
        # input's count
        syevr = self.spy(monkeypatch, "dsyevr")
        k = {"one": 1, "a fifth": n // 5, "a third": n // 3}[k]
        for seed in range(5):
            _, b = self.with_negatives(n, k, seed)
            out, got = linalg.project_psd_unchecked(b, 0)
            ref, count = linalg.project_psd_unchecked(b, n)   # the dsyevd route
            assert got == count == k
            assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(b)
            assert np.linalg.eigvalsh(out).min() >= -1e-15 * np.linalg.norm(b)
        assert len(syevr) == 5 and all(c["abstol"] > 0.0 for c in syevr)

    @pytest.mark.parametrize("scale", [1e-309, 1e-300, 1e-20, 1e-6, 0.5, 1e19, 1e300])
    def test_bisection_route_at_any_scale(self, monkeypatch, scale):
        # unless the input is scaled first, dstein fails to converge on
        # small entries (from about 1e-5 on a random input) and dstebz on
        # entries past 1e154, and a scale formed as a power of two
        # overflows on subnormal entries; the result is the projection of
        # the scaled input, from one dsyevr call
        syevr = self.spy(monkeypatch, "dsyevr")
        for n in (22, 49):
            k = n // 5
            _, b = self.with_negatives(n, k, 1)
            c = scale * b
            ref = linalg.project_psd_unchecked(c / scale, n)[0]
            syevr.clear()
            out, got = linalg.project_psd_unchecked(c, 0)
            assert got == k and len(syevr) == 1, n
            assert np.linalg.norm(out / scale - ref) <= 1e-13 * np.linalg.norm(b), n
            # c is exactly symmetric, so project_psd gives the same bits
            assert np.array_equal(project_psd(c), out) and len(syevr) == 2, n

    @pytest.mark.parametrize("n", [9, 22, 49])
    @pytest.mark.parametrize("at, calls", [
        (1e-10, 2), (-1e-10, 2), pytest.param((3e-8, -3e-8), 2, id="pair at +-3e-08-2"),
        (1e-6, 1), (-1e-6, 1), (1e-3, 1), (-1e-3, 1)])
    def test_an_unclear_split_takes_a_second_dsyevr_call(self, monkeypatch, n, at, calls):
        # an eigenvalue at +-1e-10 ||b|| lies within tol of zero, and a
        # pair at +-3e-8 ||b|| lies closer than the guard band g to each
        # other; either makes a second dsyevr call over (-inf, 0] at the
        # default tolerance. One at +-1e-6 ||b||, inside (-g, g) but clear
        # of tol with the other side far away, does not, nor does a
        # spectrum 1e-3 ||b|| from zero. Either way the result is the
        # projection, and the count is that of the eigenvalues at or
        # below zero
        syevr = self.spy(monkeypatch, "dsyevr")
        b = self.with_eigenvalue_at(n, 2, at, n)
        out, got = linalg.project_psd_unchecked(b, 0)
        assert len(syevr) == calls and syevr[0]["abstol"] > 0.0
        if calls == 2:
            assert syevr[1]["vu"] == 0.0 and "abstol" not in syevr[1]
        assert got == 2 + np.sum(np.atleast_1d(at) < 0)
        w, v = np.linalg.eigh(b)
        ref = (v * np.maximum(w, 0.0)) @ v.T
        assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(b)


class TestFrobNorm:
    """``frob_norm`` is ``float(np.linalg.norm(a))`` bit for bit."""

    @staticmethod
    def same_bits(got, want):
        if math.isnan(want):
            return math.isnan(got)
        return np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("special", [None, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("shape", [(1,), (37,), (1000,), (9, 9), (7, 12), (49, 49)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_numpy_norm(self, rng, shape, order, special):
        a = np.asarray(rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3), order=order)
        if special is not None:
            a.flat[a.size // 2] = special
        views = [a, a[::2], a.T] if a.ndim == 1 else [a, a.T, a[:, ::2], a[1:, 1:]]
        for v in views:
            got = frob_norm(v)
            assert type(got) is float
            assert self.same_bits(got, float(np.linalg.norm(v))), (v.shape, v.strides)

    def test_overflow_and_zero(self):
        with np.errstate(over="ignore"):
            assert frob_norm(np.full((3, 3), 1e200)) == math.inf == np.linalg.norm(
                np.full((3, 3), 1e200))
        z = np.array([[-0.0, 0.0], [0.0, -0.0]])
        assert self.same_bits(frob_norm(z), float(np.linalg.norm(z)))


def from_rows(n, rows):
    """``SparseSymList.from_entries`` of the concatenated triples of
    ``rows``, whose arrays must agree in length."""
    i, j, v = (np.concatenate([np.asarray(r[t], dtype=float) for r in rows] or [[]])
               for t in range(3))
    return SparseSymList.from_entries(n, [len(r[0]) for r in rows], i, j, v)


def from_iterator(n, rows):
    """The per-row constructor given the triples by an iterator, which it
    can read only once."""
    return SparseSymList(n, iter(rows))


# the per-row constructor and the bulk entry point, which share one core
BOTH_ENTRIES = (SparseSymList, from_rows, from_iterator)


class TestSparseSymList:
    def test_validation(self):
        cases = [(3, [([1], [0], [1.0])], "constraint 0: triples must have i <= j"),
                 (3, [([0, 0], [1, 1], [1.0, 2.0])], "constraint 0: duplicate (i, j) entry"),
                 (3, [([0], [3], [1.0])], "constraint 0: index out of range"),
                 (3, [], "constraint list must be nonempty"),
                 (0, [([0], [0], [1.0])], "matrix order must be >= 1")]
        for build in BOTH_ENTRIES:
            for n, rows, message in cases:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    build(n, rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_value_names_the_constraint(self, bad):
        rows = [([0], [0], [1.0]), ([0], [1], [2.0]), ([0, 1], [2, 2], [1.0, bad])]
        for build in BOTH_ENTRIES:
            with pytest.raises(ValueError, match="^constraint 2: non-finite value$"):
                build(3, rows)

    @pytest.mark.parametrize("big", [1e308, -1e308, np.finfo(float).max])
    def test_overflowing_coefficient_names_the_constraint(self, big):
        # an off-diagonal value's coefficient is twice the value, which
        # overflows from half the largest float on; on the diagonal the
        # coefficient is the value itself
        ok = [([0], [0], [big]), ([0], [1], [np.nextafter(0.5 * big, 0.0)])]
        for build in BOTH_ENTRIES:
            assert np.isfinite(build(3, ok)._coef).all()
            with pytest.raises(ValueError, match="^constraint 2: non-finite value$"):
                build(3, ok + [([0, 1], [1, 2], [1.0, big])])

    @pytest.mark.parametrize("args, message", [
        (([[2]], [0, 1], [1, 2], [1.0, 1.0]), "counts must be a vector of nonnegative integers"),
        (([2.0], [0, 1], [1, 2], [1.0, 1.0]), "counts must be a vector of nonnegative integers"),
        (([3, -1], [0, 1], [1, 2], [1.0, 1.0]),
         "counts must be a vector of nonnegative integers"),
        (([1, 2], [0, 1], [1, 2], [1.0, 1.0]), "i, j and values must be vectors of sum(counts) "
                                               "entries"),
        (([2], [0, 1], [1, 2], [[1.0, 1.0]]), "i, j and values must be vectors of sum(counts) "
                                              "entries"),
    ])
    def test_bulk_entry_arrays_must_match_the_counts(self, args, message):
        with pytest.raises(ValueError, match=f"^from_entries: {re.escape(message)}$"):
            SparseSymList.from_entries(3, *args)

    def test_adjoint_identity(self, rng):
        a = random_constraints(rng, 8, 6)
        worst = 0.0
        for _ in range(100):
            u = random_sym(rng, 8)
            v = rng.standard_normal(6)
            lhs = float(a.apply(u) @ v)
            rhs = float(np.vdot(u, a.adjoint(v)))
            worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert worst <= 1e-12

    def test_apply_matches_dense(self, rng):
        a = random_constraints(rng, 6, 4)
        x = random_sym(rng, 6)
        expect = [float(np.vdot(a.matrix(k), x)) for k in range(4)]
        assert np.allclose(a.apply(x), expect, atol=1e-12)

    def test_maps_of_a_collection_without_entries_give_floats(self):
        a = SparseSymList(3, [([], [], [])])
        for got in (a.apply(np.ones((3, 3))), a.gram(), a.gram_apply(np.ones(1)),
                    a.frob_norms_sq()):
            assert got.dtype == np.float64 and not got.any()


def family_collections(spec):
    if spec == "random":   # rows of 2 to 7 entries
        return [random_constraints(np.random.default_rng(7), 9, 30, entries=6)]
    prob = generate_problem(spec)
    return [prob.A_E] + ([prob.A_I] if prob.four_block else [])


FAMILY_SPECS = ["biq:12:3", "ebiq:8:2", "theta:14:1", "rcp:20:1", "fap:10:2", "qap:3:4",
                "random"]
# and ebiq:10:5, whose A_I has 228 rows on 55 positions, each shared by 8
# to 52 of them
MAP_SPECS = FAMILY_SPECS + ["ebiq:10:5"]


def reference_csr(a):
    """The collection as a scipy.sparse CSR matrix P over svec coordinates,
    built from its triples, so that A(X) = P svec(X), A*(y) = smat(P^T y)
    and the Gram matrix is P P^T, up to the roundings of the sqrt 2
    weights (``SVEC_ULPS``)."""
    rows = [a.triples(k) for k in range(a.m)]
    i, j, v = (np.concatenate(part) for part in zip(*rows))
    col = i * (2 * a.n - i + 1) // 2 + (j - i)
    indptr = np.concatenate(([0], np.cumsum([r[0].size for r in rows])))
    return scipy.sparse.csr_matrix((v * np.where(i != j, np.sqrt(2.0), 1.0), col, indptr),
                                   shape=(a.m, a.n * (a.n + 1) // 2))


# The svec CSR products weight an off-diagonal term by a rounded sqrt 2
# twice where the entry form multiplies by 2 once. Each result of one may
# differ from the other's by this many eps times the sum of the moduli of
# its terms; on the collections of FAMILY_SPECS the largest difference is
# about 2.1 eps.
SVEC_ULPS = 4


class EntryReference:
    """The maps of a collection as its docstring defines them, from loops
    over ``triples(k)`` in Python floats (which overflow to inf without a
    warning). An entry (i, j, value) has the coefficient c = 2 value off
    the diagonal and c = value on it.

    - ``apply(x)[k]``: 0.0 plus c * x[i, j] over row k's entries in svec
      order.
    - ``adjoint(y)[i, j]`` and ``[j, i]``: value * y[k] over the rows k
      with an entry at (i, j), in ascending order, summed from 0.0 when
      some position holds entries of two rows, else the one product as it
      is.
    - ``gram()[k, l]``: 0.0 plus c_k * value_l over the positions that
      rows k and l share, in svec order.
    - ``gram_apply(y)``: ``apply`` of ``adjoint(y)``.
    """

    def __init__(self, a):
        self.n, self.m = a.n, a.m
        self.rows = [[(int(i), int(j), float(v), 2.0 * float(v) if i != j else float(v))
                      for i, j, v in zip(*a.triples(k))] for k in range(a.m)]
        self.at = {}   # (i, j) -> [(k, value, c)], rows ascending
        for k, row in enumerate(self.rows):
            for i, j, v, c in row:
                self.at.setdefault((i, j), []).append((k, v, c))
        self.shared = any(len(entries) > 1 for entries in self.at.values())

    def apply(self, x):
        out = np.zeros(self.m)
        for k, row in enumerate(self.rows):
            total = 0.0
            for i, j, _, c in row:
                total += c * float(x[i, j])
            out[k] = total
        return out

    def adjoint(self, y):
        out = np.zeros((self.n, self.n))
        for (i, j), entries in self.at.items():
            total = 0.0 if self.shared else -0.0   # -0.0 + p is p, sign included
            for k, v, _ in entries:
                total += v * float(y[k])
            out[i, j] = out[j, i] = total
        return out

    def gram(self):
        sums = {}
        for pos in sorted(self.at):   # (i, j) sort in svec order
            for k, _, c in self.at[pos]:
                for l, v, _ in self.at[pos]:
                    sums[k, l] = sums.get((k, l), 0.0) + c * v
        g = np.zeros((self.m, self.m))
        for (k, l), total in sums.items():
            g[k, l] = total
        return g

    def gram_apply(self, y):
        return self.apply(self.adjoint(y))

    def factor(self):
        """``gram_factor`` of the Gram above: 1/sqrt of its diagonal when
        every off-diagonal entry is 0.0, else the dpotrf factor."""
        g = self.gram()
        if not g[~np.eye(self.m, dtype=bool)].any():
            return 1.0 / np.sqrt(np.diagonal(g))
        c, info = scipy.linalg.lapack.dpotrf(g, lower=1)
        assert info == 0
        return c


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_within_svec_ulps(got, want, moduli):
    """``got`` differs from the svec CSR result ``want`` by at most
    ``SVEC_ULPS`` eps times ``moduli``, the sum of the moduli of the terms."""
    assert (np.abs(got - want) <= SVEC_ULPS * np.finfo(float).eps * moduli).all()


class TestTransposedCsr:
    @pytest.mark.parametrize("spec", MAP_SPECS)
    def test_adjoint_and_gram_apply_bitwise(self, rng, spec):
        # against the loops of the entry reference, and within SVEC_ULPS of
        # the svec CSR's products
        for a in family_collections(spec):
            for b in (a, SparseSymList(a.n, relabelled(a, 1))):
                ref, p = EntryReference(b), reference_csr(b)
                q = abs(p)
                for _ in range(20):
                    y = rng.standard_normal(b.m)
                    adj = b.adjoint(y)
                    assert_same_bits(adj, ref.adjoint(y))
                    assert_within_svec_ulps(adj, smat(p.T @ y, b.n), smat(q.T @ abs(y), b.n))
                    got = b.gram_apply(y)
                    assert_same_bits(got, ref.gram_apply(y))
                    assert_within_svec_ulps(got, p @ (p.T @ y), q @ (q.T @ abs(y)))
                g = b.gram()
                assert_same_bits(g, ref.gram())
                assert_within_svec_ulps(g, (p @ p.T).toarray(), (q @ q.T).toarray())
                assert_same_bits(b.frob_norms_sq(), np.diagonal(g).copy())

    @pytest.mark.parametrize("spec, name, one_entry", [
        ("biq:12:3", "A_E", True), ("theta:14:1", "A_E", True), ("fap:10:2", "A_E", True),
        ("rcp:20:1", "A_E", False), ("qap:3:4", "A_E", False), ("ebiq:8:2", "A_I", False),
        ("ebiq:10:5", "A_I", False)])
    def test_one_entry_adjoint_skips_the_sum_with_its_bits(self, monkeypatch, rng, spec,
                                                           name, one_entry):
        # where no position holds two entries the adjoint scatters the
        # products without np.bincount, so a product of -0.0 stays -0.0;
        # elsewhere it sums from 0.0, which makes it +0.0
        a = getattr(generate_problem(spec), name)
        ref = EntryReference(a)
        assert ref.shared != one_entry
        ys = [rng.standard_normal(a.m) for _ in range(10)] + [np.full(a.m, -0.0),
                                                              np.zeros(a.m)]
        ys[0][::2] = -0.0
        refs = [ref.adjoint(y) for y in ys]
        # a positive entry times -0.0, or a negative one times +0.0, is -0.0
        assert any(np.signbit(a._raw * y.take(a._row)).any() for y in ys[-2:])
        calls = []
        real = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *args, **kwargs: calls.append(1) or real(
            *args, **kwargs))
        for y, want in zip(ys, refs):
            assert_same_bits(a.adjoint(y), want)
        assert np.signbit(a.adjoint(ys[-2])).any() == one_entry
        assert len(calls) == (0 if one_entry else len(ys) + 1)

    @staticmethod
    def entry_csr(a, data):
        """The collection as a CSR matrix over the flat positions i n + j of
        its entries, with ``data`` (the stored values or coefficients)."""
        return scipy.sparse.csr_matrix((data, a._pos, a._bounds), shape=(a.m, a.n * a.n))

    @pytest.mark.parametrize("spec", MAP_SPECS)
    def test_entry_maps_match_the_csr_bitwise(self, rng, spec):
        # scipy's CSR products over the flat positions, with the
        # coefficients for A and the values for A*, make the entry form's
        # products in its order; X need not be symmetric, A reads its upper
        # triangle. The svec CSR's products agree within SVEC_ULPS.
        for a in family_collections(spec):
            ref, p = EntryReference(a), reference_csr(a)
            coef, raw = self.entry_csr(a, a._coef), self.entry_csr(a, a._raw)
            q = abs(p)
            for _ in range(20):
                x = rng.standard_normal((a.n, a.n))
                y = rng.standard_normal(a.m)
                y[rng.random(a.m) < 0.2] = 0.0
                got = a.apply(x)
                assert_same_bits(got, coef @ x.ravel())
                assert_same_bits(got, ref.apply(x))
                assert_within_svec_ulps(got, p @ svec(x), q @ abs(svec(x)))
                adj = a.adjoint(y)
                sums = (raw.T @ y).reshape(a.n, a.n)
                assert np.array_equal(adj, np.triu(sums) + np.triu(sums, 1).T)
                assert_within_svec_ulps(adj, smat(p.T @ y, a.n), smat(q.T @ abs(y), a.n))
            # the sparse product drops the sums that are 0.0, which the Gram
            # sums from +0.0
            assert_same_bits(a.gram(), (coef @ raw.T).toarray())

    @pytest.mark.parametrize("spec", [s for s in FAMILY_SPECS if s != "random"])
    def test_adjointness_exact_on_integer_data(self, rng, spec):
        # the six families' values are multiples of 2^-20, so with a
        # symmetric integer X and an integer y every product and sum in
        # <A(X), y> and <X, A*(y)> is exact, and the two are equal
        for a in family_collections(spec):
            assert np.array_equal(np.ldexp(np.round(np.ldexp(a._raw, 20)), -20), a._raw)
            for _ in range(20):
                x = rng.integers(-8, 9, (a.n, a.n)).astype(float)
                x += x.T
                y = rng.integers(-8, 9, a.m).astype(float)
                assert float(a.apply(x) @ y) == float(np.vdot(x, a.adjoint(y)))

    def test_wrong_shapes_refused(self, rng):
        a = random_constraints(rng, 6, 5)
        for x in (np.zeros((7, 7)), np.zeros(36), np.zeros((6, 6, 1)), np.zeros((6, 7))):
            with pytest.raises(ValueError, match="apply: X has shape"):
                a.apply(x)
        for y in (np.zeros(6), np.zeros(4), np.zeros((5, 1)), np.zeros((5, 5))):
            with pytest.raises(ValueError, match="adjoint: y has shape"):
                a.adjoint(y)

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_triples_round_trip(self, spec):
        for a in family_collections(spec):
            b = SparseSymList(a.n, [a.triples(k) for k in range(a.m)])
            assert b._bounds == a._bounds
            for name in ("_row", "_pos", "_coef", "_coord", "_upper", "_lower"):
                assert_same_bits(getattr(b, name), getattr(a, name))
            assert a._coef.size == sum(a.triples(k)[0].size for k in range(a.m))
            # a is built by from_entries, b by the per-row constructor
            for c in (a, b):
                i, j, v = c.triples(c.m - 1)
                assert not v.flags.writeable
                for k, same in ((-1, c.m - 1), (-c.m, 0), (np.int64(c.m - 1), c.m - 1),
                                (np.int32(-2), c.m - 2), (np.uint8(0), 0)):
                    assert all(np.array_equal(u, w)
                               for u, w in zip(c.triples(k), c.triples(same)))
                for k in (c.m, -c.m - 1, np.int64(c.m)):
                    with pytest.raises(IndexError):
                        c.triples(k)

    def test_triples_keep_the_given_values_in_svec_order(self):
        # given out of svec order, with an off-diagonal value that sqrt(2)
        # would not scale back exactly, and an empty row
        v = 0.1 + 0.2
        a = SparseSymList(3, [([1, 0, 0], [2, 1, 0], [v, -2.0, 3.0]), ([], [], [])])
        i, j, vals = a.triples(0)
        assert i.tolist() == [0, 0, 1] and j.tolist() == [0, 1, 2]
        assert vals.tolist() == [3.0, -2.0, v]
        assert [t.size for t in a.triples(1)] == [0, 0, 0]
        assert a.apply(np.ones((3, 3)))[1] == 0.0

    def test_built_once(self, rng):
        a = random_constraints(rng, 6, 5)
        names = ("_row", "_raw", "_coef", "_coord", "_upper", "_lower")
        first = [getattr(a, name) for name in names]
        a.adjoint(np.ones(5))
        a.gram_apply(np.ones(5))
        gram_factor(a)
        assert all(getattr(a, name) is arr for name, arr in zip(names, first))


def per_row_reference(n, triples):
    """The stored arrays of a collection as a per-row constructor makes
    them: every triple converted and checked on its own, then all entries
    sorted into CSR order. Raises the collection's messages."""
    ics, jcs, vals = [], [], []
    for k, (ii, jj, vv) in enumerate(triples):
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        vv = np.asarray(vv, dtype=float)
        if ii.shape != jj.shape or ii.shape != vv.shape:
            raise ValueError(f"constraint {k}: triple arrays disagree in length")
        if ii.size and (ii.min() < 0 or jj.max() >= n):
            raise ValueError(f"constraint {k}: index out of range")
        if np.any(ii > jj):
            raise ValueError(f"constraint {k}: triples must have i <= j")
        if np.unique(ii * (2 * n - ii + 1) // 2 + (jj - ii)).size != ii.size:
            raise ValueError(f"constraint {k}: duplicate (i, j) entry")
        ics.append(ii)
        jcs.append(jj)
        vals.append(vv)
    m = len(triples)
    i, j, raw = np.concatenate(ics), np.concatenate(jcs), np.concatenate(vals)
    row = np.repeat(np.arange(m), [ii.size for ii in ics])
    col = i * (2 * n - i + 1) // 2 + (j - i)
    order = np.lexsort((col, row))
    row, col, i, j, raw = row[order], col[order], i[order], j[order], raw[order]
    coef = raw * np.where(i != j, 2.0, 1.0)
    if not np.isfinite(coef).all():
        raise ValueError(f"constraint {row[~np.isfinite(coef)][0]}: non-finite value")
    bounds = [0] + [int(c) for c in np.cumsum(np.bincount(row, minlength=m))]
    # the touched svec coordinates in ascending order, each entry's number
    # among them, and the flat positions the adjoint writes: those of the
    # touched coordinates where two rows share one, else each entry's
    touched = np.flatnonzero(np.bincount(col, minlength=n * (n + 1) // 2))
    iu, ju = np.triu_indices(n)
    upper, lower = (iu * n + ju)[touched], (ju * n + iu)[touched]
    if touched.size == col.size:
        upper, lower = i * n + j, j * n + i
    return {"_i": i, "_j": j, "_raw": raw, "_row": row, "_pos": i * n + j,
            "_coef": coef, "_bounds": bounds, "_coord": np.searchsorted(touched, col),
            "_upper": upper, "_lower": lower}


def assert_same_arrays(a, ref):
    for name, want in ref.items():
        got = getattr(a, name)
        if isinstance(want, list):   # Python ints
            assert got == want and all(type(b) is int for b in got), name
            continue
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert not any(getattr(a, name).flags.writeable for name in ("_i", "_j", "_raw"))


def relabelled(a, seed):
    """Triples of ``a`` after the seeded renaming of variables the
    benchmark applies: ``perm[p]`` becomes ``p``, rows keep their order."""
    perm = np.random.default_rng(seed).permutation(a.n)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(a.n)
    return [(np.minimum(inv[i], inv[j]), np.maximum(inv[i], inv[j]), v)
            for i, j, v in map(a.triples, range(a.m))]


class TestBulkConstruction:
    """The collection is validated and stored from the concatenated
    entries, by ``SparseSymList(n, triples)`` and by
    ``SparseSymList.from_entries``; it must store what a per-row
    constructor stores and report the defect a per-row pass meets
    first."""

    @pytest.mark.parametrize("spec", FAMILY_SPECS + ["ebiq:40:1"])
    def test_same_arrays_as_per_row_construction(self, spec):
        # the builders hand their entry arrays to SparseSymList.from_entries;
        # ebiq:40:1 subsamples its triangle rows
        for a in family_collections(spec):
            rows = [a.triples(k) for k in range(a.m)]
            ref = per_row_reference(a.n, rows)
            assert_same_arrays(a, ref)
            assert_same_arrays(SparseSymList(a.n, rows), ref)
            assert_same_arrays(from_rows(a.n, rows), ref)
            rows = relabelled(a, 1)
            assert_same_arrays(SparseSymList(a.n, rows), per_row_reference(a.n, rows))

    @pytest.mark.parametrize("spec", ["ebiq:8:2", "qap:3:4"])
    def test_same_arrays_after_an_io_round_trip(self, spec):
        doc = problem_to_json(generate_problem(spec))
        prob = problem_from_json(doc)
        for name in ("A_E", "A_I"):
            if doc[name] is not None:
                assert_same_arrays(getattr(prob, name), per_row_reference(
                    prob.n, [tuple(t) for t in doc[name]["mats"]]))

    def test_same_arrays_with_empty_rows_and_mixed_inputs(self):
        v = 0.1 + 0.2
        rows = [([], [], []), ([1, 0, 0], [2, 1, 0], [v, -2.0, 3.0]),
                (np.array([2], dtype=np.int32), (2,), np.array([1], dtype=np.int8)),
                ([], [], [])]
        a = SparseSymList(3, rows)
        assert_same_arrays(a, per_row_reference(3, rows))
        assert a._bounds == [0, 0, 3, 4, 4]
        only_empty = [([], [], [])]
        assert_same_arrays(SparseSymList(3, only_empty), per_row_reference(3, only_empty))

    @pytest.mark.parametrize("rows, message", [
        # two defects in different rows: the earlier row is reported
        ([([0], [0], [1.0]), ([0, 0], [1, 1], [1.0, 2.0]), ([0], [3], [1.0])],
         "constraint 1: duplicate (i, j) entry"),
        ([([0], [3], [1.0]), ([0, 0], [1, 1], [1.0, 2.0])],
         "constraint 0: index out of range"),
        ([([0], [0], [1.0]), ([0], [3], [1.0]), ([0], [0], [1.0]), ([-1], [0], [1.0])],
         "constraint 1: index out of range"),
        ([([0, 0], [1, 1], [1.0, 2.0]), ([0], [0], [1.0]), ([2, 2], [2, 2], [1.0, 2.0])],
         "constraint 0: duplicate (i, j) entry"),
        ([([1], [0], [1.0]), ([0, 1], [0], [1.0])], "constraint 0: triples must have i <= j"),
        ([([0], [0], [1.0]), ([0, 1], [0], [1.0]), ([2], [1], [1.0])],
         "constraint 1: triple arrays disagree in length"),
        ([([0], [0], [1.0]), ([2], [1], [1.0]), ([0, 1], [0], [1.0])],
         "constraint 1: triples must have i <= j"),
        # two defects in one row: length, then range, then order, then repeat
        ([([0], [0], [1.0]), ([0, -1], [0], [1.0, 2.0])],
         "constraint 1: triple arrays disagree in length"),
        ([([0], [0], [1.0]), ([2, 0], [1, 3], [1.0, 2.0])], "constraint 1: index out of range"),
        ([([0], [0], [1.0]), ([1, -1], [0, 1], [1.0, 2.0])], "constraint 1: index out of range"),
        ([([1, 1, 0], [0, 2, 2], [1.0, 2.0, 3.0]), ([0], [0], [1.0])],
         "constraint 0: triples must have i <= j"),
        ([([0], [0], [1.0]), ([2, 0, 0], [1, 1, 1], [1.0, 2.0, 3.0])],
         "constraint 1: triples must have i <= j"),
        # a non-finite value is reported after every other defect
        ([([0], [0], [np.nan]), ([0], [1], [1.0]), ([1, 1], [2, 2], [1.0, 1.0])],
         "constraint 2: duplicate (i, j) entry"),
        ([([0], [0], [1.0]), ([0], [1], [np.inf]), ([0], [1], [-np.inf])],
         "constraint 1: non-finite value"),
        # an entry below the diagonal whose svec position would be that of
        # an entry of an earlier row does not make that row a duplicate
        ([([0, 0, 0], [0, 1, 2], [1.0, 1.0, 1.0]), ([2], [2], [1.0]), ([0], [-11], [1.0])],
         "constraint 2: triples must have i <= j"),
        # the lengths of the values, or of the j's, disagree
        ([([0], [0], [1.0]), ([0, 1], [1, 2], [1.0]), ([0], [1, 2], [1.0])],
         "constraint 1: triple arrays disagree in length"),
        ([([0], [0], [1.0]), ([1], [1], [1.0]), ([0], [1, 2], [1.0, 2.0])],
         "constraint 2: triple arrays disagree in length"),
    ])
    def test_first_defect_reported(self, rows, message):
        builds = [SparseSymList, from_iterator, per_row_reference]
        if all(len(r[0]) == len(r[1]) == len(r[2]) for r in rows):
            builds.append(from_rows)
        for build in builds:
            with pytest.raises(ValueError) as err:
                build(3, rows)
            assert str(err.value) == message

    @pytest.mark.parametrize("rows, k", [
        ([([0], [0], [1.0]), ([0], [1])], 1),
        ([([0], [0]), ([0], [1])], 0),
        ([([0], [0], [1.0]), ([0], [1], [1.0], [2.0]), ([1], [1], [1.0])], 1),
        ([([0], [0], [1.0], [2.0])], 0),
    ])
    def test_triples_of_another_length_refused(self, rows, k):
        for build in (SparseSymList, from_iterator):
            with pytest.raises(ValueError, match=rf"^constraint {k}: expected a triple "
                                                 rf"\(i, j, values\)$"):
                build(3, rows)

    @pytest.mark.parametrize("bad", [0, np.array(1), [[0]], np.zeros((1, 1), dtype=int)])
    def test_parts_must_be_one_dimensional(self, bad):
        rows = [([0], [0], [1.0]), ([0, 1], [1, 2], [1.0, 1.0]), (bad, [0], [1.0])]
        with pytest.raises(ValueError, match="^constraint 2: triple arrays must be "
                                             "one-dimensional$"):
            SparseSymList(3, rows)


class TestLambdaMaxGram:
    def test_single_matrix(self):
        # one matrix with squared Frobenius norm 4
        a = SparseSymList(2, [([0, 1], [0, 1], [2.0, 0.0])])
        assert np.isclose(a.frob_norms_sq()[0], 4.0)
        lam = lambda_max_gram(a)
        assert abs(lam - 4.0 * (1 + 1e-6)) <= 1e-6 * 4.0

    def test_orthonormal_pair(self):
        a = SparseSymList(2, [([0], [0], [1.0]), ([0], [1], [1.0 / np.sqrt(2)])])
        g = a.gram()
        assert np.allclose(g, np.eye(2), atol=1e-12)
        lam = lambda_max_gram(a)
        assert abs(lam - 1.0) <= 2e-6

    def test_matches_dense_eigensolve(self, rng):
        a = random_constraints(rng, 7, 10)
        lam = lambda_max_gram(a)
        dense = float(np.linalg.eigvalsh(dense_gram_independent(a)).max())
        assert abs(lam - dense * (1 + 1e-6)) <= 1e-8 * dense

    def test_upper_bound_property(self, rng):
        # the returned value must dominate the true top eigenvalue
        for seed in range(5):
            r = np.random.default_rng(seed)
            a = random_constraints(r, 6, 8)
            lam = lambda_max_gram(a)
            dense = float(np.linalg.eigvalsh(dense_gram_independent(a)).max())
            assert lam >= dense - 1e-10

    def test_one_gram_application_per_step(self, monkeypatch):
        # the residual's product is the next step's; ebiq:8:2's A_I takes 19
        # steps, for which two products a step made 38 calls and this bound.
        # The Gram products of the entry reference give the same bits (2 ulps
        # below the 0x1.8cc8fa29ad824p+5 of the svec products).
        a = generate_problem("ebiq:8:2").A_I
        want = float.fromhex("0x1.8cc8fa29ad822p+5")
        for gram_apply in (SparseSymList.gram_apply,
                           lambda self, y, ref=EntryReference(a): ref.gram_apply(y)):
            calls = []
            monkeypatch.setattr(SparseSymList, "gram_apply",
                                lambda self, y, f=gram_apply: calls.append(1) or f(self, y))
            assert lambda_max_gram(a) == want
            assert len(calls) == 19 + 1

    def test_infinite_trace_bound_returned_before_the_iteration(self, monkeypatch):
        # ||A_0||^2 = 2e320 overflows: no power step is made on its inf and
        # NaN products, and no warning is raised
        a = SparseSymList(2, [([0], [1], [1e160]), ([0], [0], [1.0])])
        calls = []
        monkeypatch.setattr(SparseSymList, "gram_apply", lambda self, y: calls.append(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lambda_max_gram(a) == math.inf
        assert calls == []

    def test_nonconvergence_falls_back_to_trace(self, rng, monkeypatch):
        a = random_constraints(rng, 6, 5)
        monkeypatch.setattr(linalg, "POWER_STEPS", 0)
        with pytest.warns(PowerIterationWarning):
            lam = lambda_max_gram(a)
        assert np.isclose(lam, float(a.frob_norms_sq().sum()))


class TestGramSolve:
    def test_orthonormal_rows(self):
        a = SparseSymList(2, [([0], [0], [1.0]), ([0], [1], [1.0 / np.sqrt(2)])])
        r = np.array([1.5, -2.0])
        assert np.allclose(gram_solve(a, r), r, atol=1e-12)

    def test_zero_rhs(self, rng):
        a = random_surjective_constraints(rng, 5, 4)
        assert np.allclose(gram_solve(a, np.zeros(4)), 0.0, atol=1e-14)

    def test_matches_dense_solve(self, rng):
        a = random_surjective_constraints(rng, 6, 5)
        rhs = rng.standard_normal(5)
        expect = np.linalg.solve(dense_gram_independent(a), rhs)
        got = gram_solve(a, rhs)
        assert np.linalg.norm(got - expect) <= 1e-10 * max(1.0, np.linalg.norm(expect))

    def test_residual_accuracy(self, rng):
        a = random_surjective_constraints(rng, 6, 5)
        rhs = rng.standard_normal(5)
        y = gram_solve(a, rhs)
        res = a.apply(a.adjoint(y)) - rhs
        assert np.linalg.norm(res) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_singular_names_offending_row(self):
        # duplicate a row so the Gram loses rank at index 2
        base = [([0], [0], [1.0]), ([0], [1], [1.0]), ([0], [0], [1.0])]
        a = SparseSymList(3, base)
        with pytest.raises(GramSingularError) as err:
            gram_solve(a, np.ones(3))
        assert err.value.index == 2

    @pytest.mark.parametrize("spec", ["rcp:8:1", "rcp:30:1", "qap:3:4", "random"])
    def test_dense_path_matches_cho_solve_bitwise(self, rng, spec):
        a = (random_surjective_constraints(rng, 6, 5) if spec == "random"
             else generate_problem(spec).A_E)
        assert gram_factor(a).ndim == 2
        for _ in range(50):
            rhs = rng.standard_normal(a.m) * 10.0 ** rng.uniform(-6, 6)
            assert np.array_equal(gram_solve(a, rhs), dense_cho_solve(a, rhs))

    def test_nonfinite_dense_factor_refused_once(self):
        # finite entries whose Gram overflows: dpotrf returns a NaN factor
        # whose pivots pass the ratio check, so the factor itself is checked;
        # the overflowing products raise no warning
        a = SparseSymList(2, [([0], [0], [1e200]), ([0, 0], [0, 1], [1e200, 1.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Gram factor has non-finite entries$"):
                gram_factor(a)
            g = a.gram()
            assert np.isinf(a.frob_norms_sq()).all()
        assert_same_bits(g, EntryReference(a).gram())
        with pytest.raises(ValueError, match="non-finite"):
            gram_solve(a, np.ones(2))

    @pytest.mark.parametrize("rows, k", [
        ([([0], [1], [1e160])], 0),
        ([([0], [0], [1.0]), ([0], [1], [1e160])], 1),
        ([([0], [1], [1e160]), ([0], [0], [1.0]), ([1], [1], [1e155])], 0),
    ])
    def test_overflowing_diagonal_gram_names_its_row(self, rows, k):
        # ||A_k||^2 = 2e320 overflows: the diagonal factor would hold
        # 1/sqrt(inf) = 0 and every solve would return 0, and beside a
        # healthy row the pivot ratio blamed that row; no warning is raised
        a = SparseSymList(3, rows)
        assert np.isinf(a.frob_norms_sq()[k]) and np.isfinite(a.frob_norms_sq()[:k]).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^Gram factor has non-finite entries at "
                                                 f"constraint {k}$"):
                gram_factor(a)
        assert a._gram_cho is None
        with pytest.raises(ValueError, match="non-finite"):
            gram_solve(a, np.ones(a.m))

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), (4, 3), ()])
    def test_rhs_of_another_shape_refused(self, rng, shape):
        # refused by name on both paths, as apply and adjoint refuse theirs
        for a in (random_diagonal_collection(rng, 5, 4),
                  random_surjective_constraints(rng, 5, 4)):
            with pytest.raises(ValueError, match=re.escape(
                    f"gram_solve: rhs has shape {shape}, expected (4,)")):
                gram_solve(a, np.ones(shape))

    def test_factorization_cached(self, rng):
        for a in (random_surjective_constraints(rng, 5, 3),
                  random_diagonal_collection(rng, 5, 3)):
            gram_solve(a, np.ones(3))
            first = a._gram_cho
            gram_solve(a, np.zeros(3))
            assert a._gram_cho is first


class TestDiagonalGram:
    @pytest.mark.parametrize("spec", ["biq:12:3", "theta:20:1", "fap:10:2", "random"])
    def test_matches_dense_cho_solve_bitwise(self, rng, spec):
        a = (random_diagonal_collection(rng, 9, 20) if spec == "random"
             else generate_problem(spec).A_E)
        assert gram_factor(a).ndim == 1
        for _ in range(200):
            rhs = rng.standard_normal(a.m) * 10.0 ** rng.uniform(-6, 6)
            assert np.array_equal(gram_solve(a, rhs), dense_cho_solve(a, rhs))

    def test_pivot_ratio_names_the_small_row(self):
        # ||A_1||^2 = 1e-14 is positive, but below 1e-12 times ||A_0||^2
        a = SparseSymList(2, [([0], [0], [1.0]), ([1], [1], [1e-7])])
        with pytest.raises(GramSingularError, match="^Gram matrix numerically singular "
                                                    "at constraint 1 ") as err:
            gram_factor(a)
        assert err.value.index == 1 and a._gram_cho is None

    def test_zero_row_names_the_dpotrf_index(self):
        # row 2 is an explicit zero
        rows = [([0], [0], [1.0]), ([0], [1], [2.0]), ([1], [1], [0.0]),
                ([2], [2], [3.0])]
        _, info = scipy.linalg.lapack.dpotrf(SparseSymList(3, rows).gram(), lower=1)
        with pytest.raises(GramSingularError) as err:
            gram_factor(SparseSymList(3, rows))
        assert err.value.index == info - 1 == 2

    def test_nonfinite_rhs_rejected_on_both_paths(self, rng):
        diagonal = random_diagonal_collection(rng, 5, 4)
        dense = random_surjective_constraints(rng, 5, 4)
        assert gram_factor(diagonal).ndim == 1 and gram_factor(dense).ndim == 2
        for a in (diagonal, dense):
            with pytest.raises(ValueError):
                gram_solve(a, np.array([1.0, np.nan, 0.0, 2.0]))


class TestGramFromEntries:
    """``gram``, ``gram_apply`` and ``gram_factor`` sum the products of
    entries that share a position; they must give the entry reference's
    Gram bit for bit, and take the diagonal path exactly when its
    off-diagonal entries are all 0.0."""

    def check(self, a, rng):
        ref = EntryReference(a)
        assert_same_bits(a.gram(), ref.gram())
        for _ in range(10):
            y = rng.standard_normal(a.m)
            assert_same_bits(a.gram_apply(y), ref.gram_apply(y))
        assert_same_bits(gram_factor(a), ref.factor())
        rhs = rng.standard_normal(a.m)
        assert np.array_equal(gram_solve(a, rhs), dense_cho_solve(a, rhs))

    def test_dense_factor_forms_the_gram_terms_once(self, monkeypatch, rng):
        a = random_surjective_constraints(rng, 5, 4)
        calls = []
        terms = SparseSymList._gram_terms
        monkeypatch.setattr(SparseSymList, "_gram_terms",
                            lambda self: calls.append(self) or terms(self))
        assert gram_factor(a).ndim == 2
        assert calls == [a]

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_factor_matches_the_reference(self, spec):
        for a in family_collections(spec):
            ref = EntryReference(a)
            if np.linalg.matrix_rank(ref.gram()) < a.m:
                with pytest.raises(GramSingularError):
                    gram_factor(a)
            else:
                assert_same_bits(gram_factor(a), ref.factor())

    def test_off_diagonal_sum_cancelling_exactly_keeps_the_diagonal_path(self, rng):
        # rows 0 and 1 meet at svec coordinates 0, 3 and 5 with products 1,
        # 1e-16 and -1: in ascending coordinate order 1 + 1e-16 rounds to 1
        # and the sum is exactly 0.0; in another order it would be 1e-16
        assert (1.0 + 1e-8 * 1e-8) - 1.0 == 0.0 != (1.0 - 1.0) + 1e-8 * 1e-8
        a = SparseSymList(3, [([0, 1, 2], [0, 1, 2], [1.0, 1e-8, 1.0]),
                              ([0, 1, 2], [0, 1, 2], [1.0, 1e-8, -1.0]),
                              ([0], [1], [3.0])])
        g = EntryReference(a).gram()
        assert g[0, 1] == 0.0 and np.count_nonzero(g) == 3
        assert gram_factor(a).ndim == 1
        self.check(a, rng)

    # which collections of each family have no svec coordinate with entries
    # of two rows: A_E, then A_I
    SHORTCUT = {"biq:12:3": [True], "ebiq:8:2": [True, False], "theta:14:1": [True],
                "rcp:20:1": [False], "fap:10:2": [True], "qap:3:4": [False], "random": [False]}

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_diagonal_shortcut_agrees_with_the_summed_test(self, monkeypatch, spec):
        # with the shortcut the factor is made without summing Gram terms;
        # it must equal, bit for bit, the factor of the summed test, here
        # the entry reference's Gram, before and after a relabelling
        calls = []
        terms = SparseSymList._gram_terms
        monkeypatch.setattr(SparseSymList, "_gram_terms",
                            lambda self: calls.append(self) or terms(self))
        collections = family_collections(spec)
        assert [a._upper.size == a._coord.size for a in collections] == self.SHORTCUT[spec]
        for a in collections:
            for b in (a, SparseSymList(a.n, relabelled(a, 1))):
                ref = EntryReference(b)
                calls.clear()
                if np.linalg.matrix_rank(ref.gram()) < b.m:
                    with pytest.raises(GramSingularError):
                        gram_factor(b)
                else:
                    assert_same_bits(gram_factor(b), ref.factor())
                shortcut = b._upper.size == b._coord.size
                assert calls == ([] if shortcut else [b])

    def test_explicit_zero_entries(self, rng):
        # stored zeros, some of them -0.0, at shared coordinates: the sums
        # of their products are 0.0 and count as absent
        rows = [([0, 0, 1], [0, 1, 1], [1.0, 0.0, 0.0]),
                ([0, 1], [1, 1], [-0.0, 2.0]),
                ([0, 1], [1, 2], [0.0, 1.5]),
                ([1, 2], [1, 2], [-0.0, 4.0])]
        a = SparseSymList(3, rows)
        assert gram_factor(a).ndim == 1
        self.check(a, rng)
        # one more row that meets row 0 off its zeros makes the Gram dense
        b = SparseSymList(3, rows + [([0, 0, 0], [0, 1, 2], [1.0, 0.0, 1.0])])
        assert gram_factor(b).ndim == 2
        self.check(b, rng)

    def test_one_coordinate_shared_by_many_rows(self, rng):
        # every row holds (0, 0) and one coordinate of its own
        n, m = 30, 300
        iu, ju = np.triu_indices(n)
        own = rng.permutation(np.arange(1, iu.size))[:m]
        a = SparseSymList(n, [([iu[c], 0], [ju[c], 0], [1.0 + rng.random(),
                                                        rng.standard_normal()])
                              for c in own])
        assert gram_factor(a).ndim == 2
        self.check(a, rng)


class TestDenseGramLimit:
    def test_diagonal_gram_beyond_the_dense_limit(self):
        prob = generate_problem("theta:200:1")
        assert prob.A_E.m == 6031 > MAX_DENSE_GRAM
        assert gram_factor(prob.A_E).shape == (6031,)
        res = dnnsdp.cadmm_solve(prob, dnnsdp.SolverConfig(max_iters=5))
        assert res.status == "MaxIters"

    def test_dense_gram_refused_before_allocation(self):
        a = tridiagonal_collection(MAX_DENSE_GRAM + 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the dense limit 5000"):
                gram_factor(a)
            with pytest.raises(ValueError, match="exceeds the dense limit 5000"):
                a.gram()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a._gram_cho is None
        assert peak < a.m * a.m * 8 // 10


class TestPsdDistance:
    def test_matches_projection_norm(self, rng):
        for n in range(1, 9):
            for _ in range(10):
                m = rng.standard_normal((n, n))
                for x in (m, random_sym(rng, n)):
                    ref = np.linalg.norm(project_psd(-x))
                    assert psd_distance(x) == pytest.approx(ref, rel=1e-12)

    def test_zero_on_psd_input(self, rng):
        for n in (1, 4, 9):
            m = random_psd(rng, n)
            assert psd_distance(m) <= 1e-13 * np.linalg.norm(m)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            psd_distance(np.array([[1.0, np.nan], [np.nan, 1.0]]))
