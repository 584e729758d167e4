# -*- coding: utf-8 -*-

"""
Dense symmetric-matrix utilities, sparse symmetric constraint collections,
and the spectral / Gram-system routines the solvers are built on.

Symmetric matrices are plain ``(n, n)`` ndarrays; the upper triangle is
authoritative and ``symmetrize`` is applied wherever round-off could break
symmetry. All inner products are Frobenius / Euclidean.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg


class GramSingularError(ValueError):
    """Raised when the Gram matrix of a constraint collection is numerically
    singular; carries the index of the offending constraint row."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class PowerIterationWarning(UserWarning):
    """Power iteration did not reach its tolerance; a trace-based upper
    bound was returned instead."""


# A Gram matrix that is not diagonal is factored densely (m x m) once;
# beyond this row count that desk-scale dense path is refused.
MAX_DENSE_GRAM = 5000
SYMMETRY_TOL = 1e-10   # is_symmetric's, relative to the largest entry (at least 1)


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def is_symmetric(a: np.ndarray) -> bool:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    if (a == a.T).all():   # the common case, in one pass
        return True
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    return bool(np.abs(a - a.T).max() <= SYMMETRY_TOL * scale)


def frob_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b))


def frob_norm(a: np.ndarray) -> float:
    """Frobenius (Euclidean) norm of a float array: ``float(np.linalg.norm(a))``
    bit for bit, since it is the computation ``norm`` makes, the square
    root of the dot product of the entries in memory order with
    themselves, without its argument dispatch. A NaN entry gives NaN and
    an infinite one inf."""
    v = a.ravel("K")
    return math.sqrt(v.dot(v))


def _svec_index(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    # row-major upper-triangle (including diagonal) flat position of (i, j), i <= j
    return i * (2 * n - i + 1) // 2 + (j - i)


_SQRT2 = np.sqrt(2.0)


class UpperTriangle(NamedTuple):
    """Index data of the row-major upper triangle (diagonal included) of
    an n x n matrix, the coordinate order of :func:`svec`."""

    iu: np.ndarray      # row index of each coordinate
    ju: np.ndarray      # column index
    upper: np.ndarray   # flat C-order position of (iu, ju)
    lower: np.ndarray   # flat C-order position of (ju, iu)
    scale: np.ndarray   # svec weight: 1 on the diagonal, sqrt(2) off it


@functools.lru_cache(maxsize=64)
def upper_triangle(n: int) -> UpperTriangle:
    """:class:`UpperTriangle` of order n, computed once per order. The
    arrays are read-only because every caller shares them."""
    iu, ju = np.triu_indices(n)
    tri = UpperTriangle(iu, ju, iu * n + ju, ju * n + iu,
                        np.where(iu != ju, _SQRT2, 1.0))
    for arr in tri:
        arr.flags.writeable = False
    return tri


def svec(x: np.ndarray) -> np.ndarray:
    """Scaled upper-triangle vectorization: off-diagonals carry sqrt(2) so
    that ``svec(a) @ svec(b)`` equals the Frobenius inner product."""
    tri = upper_triangle(x.shape[0])
    return np.take(x, tri.upper) * tri.scale


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`svec`."""
    tri = upper_triangle(n)
    w = np.asarray(v, dtype=float) / tri.scale
    out = np.empty(n * n)
    out[tri.upper] = w
    out[tri.lower] = w
    return out.reshape(n, n)


def _finite_symmetric(m: np.ndarray, caller: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError(f"{caller}: input has non-finite entries")
    return symmetrize(m)


# project_psd's eigensolver is one dsyevr call by value range, which is
# dsytrd, bisection (dstebz), inverse iteration (dstein) and dormtr: with
# s = max|b_ij|, it takes (-inf, g], g = GUARD_BAND * s, with abstol
# tol = BISECTION_TOL * s. When the eigenvalues it returns split at zero
# into those below -tol and those above tol, at least g + 2 tol apart
# (the first one past g counting as g + tol), its count is exact and each
# wanted vector keeps about tol^3 / g^2 = 1e-14 s of the unwanted side;
# otherwise a second call takes (-inf, 0] at dsyevr's default tolerance.
# dstein assumes entries of order one or more and dstebz squares them, so
# a b with s outside [1, SCALE_LIMIT) is first scaled by a power of two
# into [0.5, 1). README, Numerical notes, has the argument, the errors
# and the guard trips on the solver's own inputs.
BISECTION_TOL = 1e-8
GUARD_BAND = 1e-5
SCALE_LIMIT = 2.0 ** 64


def _lapack_checked(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"project_psd: {routine} failed with info {info}")


def _nonpositive_eigenvectors_dsyevr(b: np.ndarray) -> np.ndarray:
    flat = b.ravel()
    s = abs(float(flat[scipy.linalg.blas.idamax(flat)]))
    if not 1.0 <= s < SCALE_LIMIT:
        e = -math.frexp(s)[1]
        b, s = np.ldexp(b, e), math.ldexp(s, e)
    g, tol = GUARD_BAND * s, BISECTION_TOL * s
    # b is symmetric, so its transpose is the same matrix in Fortran order,
    # which dsyevr reads without a transposing copy; the eigenvalues come
    # in ascending order
    w, v, m, _, info = scipy.linalg.lapack.dsyevr(
        b.T, compute_v=1, range="V", vl=-np.inf, vu=g, abstol=tol, lower=1)
    _lapack_checked("dsyevr", info)
    # Python floats, which a bisect and the compares below read faster
    w = w[:m].tolist()
    k = bisect.bisect_right(w, 0.0)
    below = w[k - 1] if k else -math.inf
    above = w[k] if k < m else g + tol
    if not (below < -tol and above > tol and above - below >= g + 2.0 * tol):
        _, v, k, _, info = scipy.linalg.lapack.dsyevr(
            b.T, compute_v=1, range="V", vl=-np.inf, vu=0.0, lower=1)
        _lapack_checked("dsyevr", info)
    return v[:, :k]


def _nonpositive_eigenvectors_dsyevd(b: np.ndarray) -> np.ndarray:
    # every eigenpair, by divide and conquer; the eigenvalues come in
    # ascending order, so the nonpositive ones lead
    w, v, info = scipy.linalg.lapack.dsyevd(b.T, compute_v=1, lower=1)
    _lapack_checked("dsyevd", info)
    return v[:, :np.searchsorted(w, 0.0, side="right")]


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix: the checks below,
    then :func:`project_psd_unchecked` on the symmetrized input with a
    count of 0.

    Computes only the eigenvectors V of the symmetrized input b whose
    eigenvalues lie in (-inf, 0]; the projections this solver makes have
    few of them, so this is cheaper than a full eigendecomposition. They
    come from LAPACK ``dsyevr`` by value range, guarded as the comment on
    ``GUARD_BAND`` says, or from a full ``dsyevd`` when the count, the
    number of such eigenvalues of a previous, similar input, is at least
    n/4, where that is faster. The result is the congruence P b P with
    P = I - V V^T, formed as ``b - (V G^T + G V^T)`` with
    G = b V - V (V^T b V) / 2. Being a congruence of b, it is PSD up to
    second order in the error of V; ``b - V diag(w) V^T`` is only first
    order, which leaves S with negative eigenvalues ten times the
    rounding.

    Raises ``ValueError`` on non-finite input and ``LinAlgError``, naming
    the routine, when a LAPACK call fails.
    """
    return project_psd_unchecked(_finite_symmetric(m, "project_psd"), 0)[0]


def project_psd_unchecked(b: np.ndarray, negatives: int) -> tuple:
    """:func:`project_psd` without its checks, for a float64 input ``b``
    that is finite and exactly symmetric, by the route that ``negatives``
    picks. Returns ``(projection, count)``, where count is the number of
    V's columns, for the next call. With a count of 0, on such an input,
    the projection has the bits of ``project_psd``'s."""
    if 4 * negatives >= b.shape[0]:
        v = _nonpositive_eigenvectors_dsyevd(b)
    else:
        v = _nonpositive_eigenvectors_dsyevr(b)
    # with no column in V, t is all 0.0 and b - 0.0 keeps b's bits
    bv = b @ v
    t = v @ (bv - 0.5 * (v @ (v.T @ bv))).T
    return b - (t + t.T), v.shape[1]


def psd_distance(m: np.ndarray) -> float:
    """Frobenius distance of the symmetrized input to the PSD cone, from
    its eigenvalues alone: the norm of the negative ones. Equals
    ``norm(project_psd(-m))`` by the Moreau decomposition without
    computing eigenvectors. Raises ``ValueError`` on non-finite input.
    """
    w = np.linalg.eigvalsh(_finite_symmetric(m, "psd_distance"))
    neg = w[w < 0.0]
    return float(np.sqrt(neg @ neg))


def _concatenated(parts: Sequence) -> np.ndarray:
    """One part of every triple (the i's, the j's or the values)
    concatenated in the parts' common numeric type, or as objects, which
    keep each entry's own type, where that type is not numeric. Each
    part must be one-dimensional."""
    if not parts:
        return np.empty(0)
    try:
        flat = np.concatenate(parts)
        if flat.dtype.kind not in "biuf":
            flat = np.concatenate(parts, dtype=object)
    except ValueError:
        _refuse_non_vector(parts)
        raise
    if flat.ndim != 1:
        _refuse_non_vector(parts)
    return flat


def _refuse_non_vector(parts: Sequence) -> None:
    for k, part in enumerate(parts):
        if np.ndim(part) != 1:
            raise ValueError(f"constraint {k}: triple arrays must be one-dimensional")


def _numeric(entries) -> np.ndarray:
    """``entries`` as an array of their common numeric type, or of objects,
    which keep each entry's own type, where that type is not numeric."""
    a = np.asarray(entries)
    return a if a.dtype.kind in "biuf" else np.asarray(entries, dtype=object)


def _integers(a: np.ndarray):
    """Which entries of an array from ``_numeric`` are integers: all of an
    integer array, the finite whole numbers of a float one (a
    concatenation makes floats of the integers next to an empty list),
    and the integers and whole reals among objects."""
    if a.dtype.kind in "biu":
        return True
    if a.dtype.kind == "f":
        return np.isfinite(a) & (np.trunc(a) == a)
    return np.fromiter((isinstance(x, numbers.Integral) or isinstance(x, numbers.Real)
                        and float(x).is_integer() for x in a), bool, a.size)


def _reals(a: np.ndarray):
    """Which entries of an array from ``_numeric`` are real numbers."""
    if a.dtype.kind != "O":
        return True
    return np.fromiter((isinstance(x, numbers.Real) for x in a), bool, a.size)


def _as_indices(a: np.ndarray) -> np.ndarray:
    """Integer entries as int64. Outside the integer types they are
    clipped to [-1, 2**62] first, so no cast overflows and an index out
    of range stays out of range."""
    if a.dtype.kind in "biu":
        return a.astype(np.int64, copy=False)
    return np.clip(a.astype(float), -1.0, 2.0 ** 62).astype(np.int64)


class SparseSymList:
    """A list of m sparse symmetric n x n matrices, i.e. a linear map
    from the symmetric matrices into R^m and its adjoint.

    Each matrix is given by COO entries ``(i, j, value)`` with ``i <= j``;
    an entry with ``i < j`` stands for the pair of symmetric entries. Two
    constructors feed one validating core that works on the whole entry
    arrays, with no per-row pass: ``SparseSymList(n, triples)`` takes one
    triple of one-dimensional sequences per matrix and concatenates them,
    and :meth:`from_entries` takes the concatenated arrays and the number
    of entries of each matrix directly, as the problem builders make them.

    The entries are kept in matrix-entry form, in one order: by row, then
    by svec coordinate (CSR order). Each entry has the coefficient
    c = value * (2 off the diagonal, 1 on it), which counts the pair of
    symmetric entries once, and the ascending number of its svec
    coordinate among those touched. ``apply`` gathers X at each entry's
    flat position (i, j), so it reads the upper triangle, and sums the
    products c * X_ij per row with ``np.bincount``: one rounding per term.
    ``adjoint`` scatters value * y_k into both triangles; only where two
    rows share a position does it sum their products, from 0.0, with
    ``np.bincount`` over the coordinate numbers, whose bins add their
    terms in CSR order, so in ascending row order. ``gram`` sums
    c_k * value_l over the positions that rows k and l share, in
    ascending svec order, which is symmetric bit for bit, and
    ``frob_norms_sq`` is its diagonal; ``gram_apply`` is ``apply`` after
    ``adjoint``. These differ from a CSR product over ``svec``
    coordinates, whose sqrt 2 weights cost two more roundings per
    off-diagonal term, by a few ulps of the sum of the terms' moduli. The
    Gram factor and the Gram spectral bound are cached on the collection
    on first use.
    """

    def __init__(self, n: int, triples: Sequence[tuple]):
        # one pass splits the triples into their three parts; a triple of
        # another length fails the unpacking or zip's strict check
        triples = tuple(triples)
        try:
            ip, jp, vp = tuple(zip(*triples, strict=True)) or ((), (), ())
        except ValueError:
            k = next(k for k, t in enumerate(triples) if len(t) != 3)
            raise ValueError(f"constraint {k}: expected a triple (i, j, values)") from None
        i, j, raw = _concatenated(ip), _concatenated(jp), _concatenated(vp)
        li, lj, lv = np.fromiter(map(len, itertools.chain(ip, jp, vp)), np.intp,
                                 3 * len(ip)).reshape(3, -1)
        uneven = np.flatnonzero((li != lj) | (li != lv))
        paired = uneven[0] if uneven.size else len(li)   # rows whose entries pair up
        size = li[:paired].sum()
        self._set_entries(n, len(li), li[:paired], i[:size], j[:size], raw[:size])

    @classmethod
    def from_entries(cls, n: int, counts, i, j, values) -> "SparseSymList":
        """The collection whose row k holds the next ``counts[k]`` entries
        of ``i``, ``j`` and ``values``, in any order: what
        ``SparseSymList(n, triples)`` makes of the triples these arrays
        split into, with its messages, without making the triples."""
        counts = np.asarray(counts)
        if counts.ndim != 1 or counts.size and (counts.dtype.kind not in "iu"
                                                or counts.min() < 0):
            raise ValueError("from_entries: counts must be a vector of nonnegative integers")
        counts = counts.astype(np.intp, copy=False)
        i, j, raw = _numeric(i), _numeric(j), _numeric(values)
        if not i.shape == j.shape == raw.shape == (counts.sum(),):
            raise ValueError("from_entries: i, j and values must be vectors of "
                             "sum(counts) entries")
        a = cls.__new__(cls)
        a._set_entries(n, counts.size, counts, i, j, raw)
        return a

    def _set_entries(self, n: int, m: int, counts: np.ndarray, i: np.ndarray,
                     j: np.ndarray, raw: np.ndarray) -> None:
        """The validating core of both constructors: m rows, of which the
        first ``counts.size`` hold ``counts`` entries each, given row after
        row by the vectors ``i`` and ``j`` and the vector ``raw`` of values
        (not svec-scaled), each of a numeric type or of objects. Checks the
        entries, sorts them into CSR order and numbers the svec coordinates
        they touch.

        An index that is not an integer, and then a value that is not a
        real number, is reported first, at the first row that holds one.
        Otherwise the first row with a defect is reported, and of its
        defects the first in the order: an index out of range, i > j, a
        repeated (i, j). Rows from ``counts.size`` on are those whose
        triple arrays disagree in length (the per-row constructor's check),
        reported when no earlier row has a defect; a non-finite value, or
        one whose coefficient (twice it off the diagonal) overflows, comes
        last.
        """
        if n < 1:
            raise ValueError("matrix order must be >= 1")
        if m == 0:
            raise ValueError("constraint list must be nonempty")
        self.n, self.m = int(n), int(m)
        row = np.repeat(np.arange(counts.size), counts)
        for ok, what in ((_integers(i) & _integers(j), "indices must be integers"),
                         (_reals(raw), "values must be real numbers")):
            if ok is not True and not ok.all():
                raise ValueError(f"constraint {row[np.argmin(ok)]}: {what}")
        i, j, raw = _as_indices(i), _as_indices(j), raw.astype(float, copy=False)
        out_of_range, below = (i < 0) | (j >= n), i > j
        outside = out_of_range | below
        refused = outside.any()
        col = _svec_index(i, j, n)
        if refused:
            # the svec position of such an entry may lie outside the
            # triangle and so sort into another row; its own row is
            # refused below whatever else it holds, so coordinate 0 will do
            col = np.where(outside, 0, col)
        # one stable sort by row, then coordinate, which leaves every row
        # where it is
        key = row * (n * (n + 1) // 2) + col
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeated = key[1:] == key[:-1]
        if refused or repeated.any():
            defects = ((out_of_range, "index out of range"),
                       (below, "triples must have i <= j"),
                       (np.concatenate(([False], repeated)), "duplicate (i, j) entry"))
            # rows are ascending, so a defect's first entry is in its first row
            firsts = [row[np.argmax(mask)] if mask.any() else m for mask, _ in defects]
            k = min(firsts)
            message = next(msg for first, (_, msg) in zip(firsts, defects) if first == k)
            raise ValueError(f"constraint {k}: {message}")
        if counts.size < m:
            raise ValueError(f"constraint {counts.size}: triple arrays disagree in length")
        col, i, j, raw = col[order], i[order], j[order], raw[order]
        with np.errstate(over="ignore"):   # refused below
            coef = raw * np.where(i != j, 2.0, 1.0)
        if not np.isfinite(coef).all():
            raise ValueError(f"constraint {row[~np.isfinite(coef)][0]}: non-finite value")
        self._bounds = [0] + np.cumsum(counts).tolist()   # Python ints, for triples(k)
        self._i, self._j, self._raw = i, j, raw
        self._row, self._pos, self._coef = row, i * n + j, coef
        for arr in (i, j, raw):
            arr.flags.writeable = False
        # the touched svec coordinates, numbered in ascending order; the
        # adjoint writes to their positions, or to each entry's where no two
        # rows share a position
        touched, self._coord = np.unique(col, return_inverse=True)
        touched = touched if touched.size < col.size else col
        tri = upper_triangle(n)
        self._upper, self._lower = tri.upper[touched], tri.lower[touched]
        self._gram_cho = None
        self._lam_max = None

    def triples(self, k: int) -> tuple:
        """``(i, j, value)`` of constraint k in svec order: read-only views
        of the stored entries, with the values as given (not svec-scaled)."""
        if not 0 <= k < self.m:   # a negative k counts from the end
            k = range(self.m)[k]
        lo, hi = self._bounds[k], self._bounds[k + 1]
        return self._i[lo:hi], self._j[lo:hi], self._raw[lo:hi]

    def matrix(self, k: int) -> np.ndarray:
        """Dense symmetric matrix of constraint k."""
        i, j, v = self.triples(k)
        out = np.zeros((self.n, self.n))
        out[i, j] = v
        out[j, i] = v
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate [<A_k, X>]_k, as floats also when there is no entry:
        the shape check, then :meth:`apply_unchecked`."""
        x = np.asarray(x)
        if x.shape != (self.n, self.n):
            raise ValueError(f"apply: X has shape {x.shape}, expected {(self.n, self.n)}")
        return self.apply_unchecked(x)

    def apply_unchecked(self, x: np.ndarray) -> np.ndarray:
        """:meth:`apply` for an ndarray ``x`` already of shape (n, n)."""
        return np.bincount(self._row, self._coef * x.take(self._pos),
                           minlength=self.m).astype(float, copy=False)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Evaluate sum_k y_k A_k: the shape check, then
        :meth:`adjoint_unchecked`."""
        y = np.asarray(y)
        if y.shape != (self.m,):
            raise ValueError(f"adjoint: y has shape {y.shape}, expected {(self.m,)}")
        return self.adjoint_unchecked(y)

    def adjoint_unchecked(self, y: np.ndarray) -> np.ndarray:
        """:meth:`adjoint` for an ndarray ``y`` already of shape (m,)."""
        v = self._raw * y.take(self._row)
        if self._upper.size < self._coord.size:   # rows share a position
            v = np.bincount(self._coord, v, minlength=self._upper.size)
        out = np.zeros(self.n * self.n)
        out[self._upper] = v
        out[self._lower] = v
        return out.reshape(self.n, self.n)

    def as_block_map(self) -> "LinearBlockMap":
        return LinearBlockMap(apply=self.apply, apply_adjoint=self.adjoint)

    def _gram_terms(self) -> tuple:
        """``(k, l, c_k * value_l)`` for every pair of entries of rows k and
        l at one position, ordered by svec coordinate, so that
        ``np.bincount`` adds each Gram entry's products in ascending
        coordinate order. A product may overflow to inf; the Gram factor
        refuses the result."""
        order = np.argsort(self._coord, kind="stable")   # by coordinate, then row
        coord = self._coord[order]
        counts = np.bincount(coord)   # entries per touched coordinate
        reps, ends = counts[coord], np.cumsum(counts)[coord]
        a = np.repeat(order, reps)   # once per entry at its coordinate
        b = order[np.arange(a.size) - np.repeat(np.cumsum(reps) - ends, reps)]
        with np.errstate(over="ignore"):
            return self._row[a], self._row[b], self._coef[a] * self._raw[b]

    def gram(self) -> np.ndarray:
        """Dense m x m Gram matrix <A_k, A_l>."""
        return self._dense_gram(self._gram_terms())

    def _dense_gram(self, terms: tuple) -> np.ndarray:
        """The dense Gram summed from ``terms``, the ``_gram_terms()`` of
        this collection; refused beyond ``MAX_DENSE_GRAM`` rows."""
        if self.m > MAX_DENSE_GRAM:
            raise ValueError(
                f"Gram matrix with m={self.m} exceeds the dense limit {MAX_DENSE_GRAM}")
        k, l, prod = terms
        g = np.bincount(k * self.m + l, prod, minlength=self.m * self.m)
        return g.astype(float, copy=False).reshape(self.m, self.m)

    def frob_norms_sq(self) -> np.ndarray:
        """||A_k||_F^2 per row: the diagonal of ``gram()``, bit for bit.
        Like ``gram`` and ``gram_apply`` it gives floats also when there is
        no entry, where ``np.bincount`` gives integers."""
        with np.errstate(over="ignore"):
            return np.bincount(self._row, self._coef * self._raw, self.m).astype(float, copy=False)

    def gram_apply(self, y: np.ndarray) -> np.ndarray:
        """Matrix-free application of the Gram operator A A*: ``apply`` of
        ``adjoint(y)``."""
        return self.apply_unchecked(self.adjoint_unchecked(np.asarray(y, float)))


@dataclass(frozen=True)
class LinearBlockMap:
    """A linear map from the shared space into a block space, with adjoint."""

    apply: Callable[[np.ndarray], np.ndarray]
    apply_adjoint: Callable[[np.ndarray], np.ndarray]


def identity_block_map() -> LinearBlockMap:
    return LinearBlockMap(apply=lambda x: x, apply_adjoint=lambda z: z)


POWER_STEPS = 200
POWER_REL_TOL = 1e-8
POWER_SEED = 0


def lambda_max_gram(a: SparseSymList) -> float:
    """Safe upper estimate of the largest eigenvalue of A A*.

    Power iteration on the m x m Gram operator (matrix-free, applied once
    per step: the product that checks a step's residual is the next
    step's) from a random start seeded with ``POWER_SEED``, inflated by
    (1 + 1e-6) so that rho*I - A A* stays positive semidefinite. The
    trace bound sum_k ||A_k||_F^2 is returned as it is when it is 0 or
    overflows to inf, and with a :class:`PowerIterationWarning` when the
    residual is not below ``POWER_REL_TOL`` times the estimate within
    ``POWER_STEPS`` steps.
    """
    trace_bound = float(a.frob_norms_sq().sum())
    if trace_bound in (0.0, math.inf):
        return trace_bound
    v = np.random.default_rng(POWER_SEED).standard_normal(a.m)
    v /= np.linalg.norm(v)
    w = a.gram_apply(v)
    for _ in range(POWER_STEPS):
        lam = float(v @ w)
        v = w / np.linalg.norm(w)
        w = a.gram_apply(v)   # for the residual, and the next step's product
        res = np.linalg.norm(w - lam * v)
        if res <= POWER_REL_TOL * max(lam, 1e-300):
            return lam * (1.0 + 1e-6)
    warnings.warn(
        "power iteration did not converge; returning the trace upper bound",
        PowerIterationWarning)
    return trace_bound


def _gram_singular(k: int) -> GramSingularError:
    return GramSingularError(
        k, f"Gram matrix singular: constraint {k} is dependent on earlier rows")


def _check_pivots(piv: np.ndarray) -> None:
    if piv.min() < 1e-12 * piv.max():
        k = int(np.argmin(piv))
        raise GramSingularError(
            k, f"Gram matrix numerically singular at constraint {k} "
               f"(pivot ratio {piv.min() / piv.max():.2e})")


def gram_factor(a: SparseSymList):
    """Factor of the Gram matrix A A*, cached on the collection.

    When no position holds entries of two rows (as for biq, ebiq's A_E,
    theta and fap), the Gram is diagonal. Otherwise its off-diagonal
    entries are summed first, without forming the m x m matrix; one that
    sums to exactly 0.0 counts as absent, as in a sparse product. When
    none is left the factor is the 1-D array ``1/sqrt(diag)``; otherwise
    it is the dense lower Cholesky factor, a 2-D array from ``dpotrf``,
    and only this dense path is bounded by ``MAX_DENSE_GRAM``. Raises
    :class:`GramSingularError` when a pivot is not positive or falls below
    1e-12 times the largest pivot (the constraint rows are then linearly
    dependent to working precision), with the row index ``dpotrf``
    reports, and ``ValueError`` when the factor has a non-finite entry (a
    Gram that overflows; the diagonal path names the first such row), so
    that ``gram_solve`` need not check the factor on every call.
    """
    if a._gram_cho is not None:
        return a._gram_cho
    terms = None
    if a._upper.size < a._coord.size:   # a position holds entries of two rows
        terms = k, l, prod = a._gram_terms()
        _, pair = np.unique((k * a.m + l)[k != l], return_inverse=True)
        if not np.bincount(pair, prod[k != l]).any():   # the off-diagonal sums
            terms = None
    if terms is None:
        d = a.frob_norms_sq()
        bad = np.flatnonzero(~(d > 0.0))
        if bad.size:
            raise _gram_singular(int(bad[0]))
        bad = np.flatnonzero(np.isinf(d))
        if bad.size:
            raise ValueError(f"Gram factor has non-finite entries at constraint {bad[0]}")
        c_diag = np.sqrt(d)
        _check_pivots(c_diag ** 2)
        a._gram_cho = 1.0 / c_diag
        return a._gram_cho
    c, info = scipy.linalg.lapack.dpotrf(a._dense_gram(terms), lower=1)
    if info > 0:
        raise _gram_singular(info - 1)
    if info < 0:
        raise ValueError(f"dpotrf: illegal argument {-info}")
    _check_pivots(np.diag(c) ** 2)
    if not np.isfinite(c).all():
        raise ValueError("Gram factor has non-finite entries")
    a._gram_cho = c
    return c


def gram_solve(a: SparseSymList, rhs: np.ndarray) -> np.ndarray:
    """Solve (A A*) y = rhs using the cached factor of :func:`gram_factor`.

    The dense path calls ``dpotrs`` on the factor, as ``cho_solve`` does
    after its finiteness checks; the factor's entries were checked once,
    when it was made. On the diagonal path ``(rhs * r) * r`` with
    ``r = 1/sqrt(diag)`` reproduces ``cho_solve`` on the diagonal Cholesky
    factor bit for bit under OpenBLAS (``rhs / diag`` does not, and that
    last-bit drift changes the iterates of long runs). Both paths raise
    ``ValueError`` on a right-hand side that is not a finite vector of
    shape (m,).
    """
    cho = a._gram_cho if a._gram_cho is not None else gram_factor(a)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (a.m,):
        raise ValueError(f"gram_solve: rhs has shape {rhs.shape}, expected {(a.m,)}")
    if not np.isfinite(rhs).all():
        raise ValueError("gram_solve: right-hand side has non-finite entries")
    return gram_solve_unchecked(cho, rhs)


def gram_solve_unchecked(cho: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """:func:`gram_solve` without its check, given the factor ``cho`` that
    :func:`gram_factor` returned and a finite float64 ``rhs``."""
    if cho.ndim == 2:
        y, info = scipy.linalg.lapack.dpotrs(cho, rhs, lower=1)
        if info != 0:
            raise ValueError(f"dpotrs: illegal argument {-info}")
        return y
    return (rhs * cho) * cho
