# -*- coding: utf-8 -*-

"""
Entrywise pattern cones on symmetric matrices, their duals, and the small
proximal oracles used by the block solvers.

A pattern classifies every entry (symmetrically) as Zero, NonNeg or Free.
The dual pattern swaps Zero and Free and keeps NonNeg, so projecting onto
the dual cone is projecting with the dual pattern.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .linalg import project_psd, upper_triangle

ZERO = 0
NONNEG = 1
FREE = 2

_KIND_CHARS = {ZERO: "Z", NONNEG: "N", FREE: "F"}
_CHAR_KINDS = {v: k for k, v in _KIND_CHARS.items()}


class ConePattern:
    """Per-entry cone kinds for an n x n symmetric pattern cone."""

    def __init__(self, kinds: np.ndarray):
        # a private read-only copy, so the cached dual cannot go stale
        kinds = np.array(kinds, dtype=np.int8)
        kinds.flags.writeable = False
        if kinds.ndim != 2 or kinds.shape[0] != kinds.shape[1]:
            raise ValueError("pattern must be square")
        if not np.array_equal(kinds, kinds.T):
            raise ValueError("pattern classification must be symmetric")
        if kinds.size and (kinds.min() < ZERO or kinds.max() > FREE):
            raise ValueError("pattern kinds must be Zero, NonNeg or Free")
        self.kinds = kinds
        self.n = kinds.shape[0]
        self._dual = None
        self._bounds = None

    @classmethod
    def all_nonneg(cls, n: int) -> "ConePattern":
        return cls(np.full((n, n), NONNEG, dtype=np.int8))

    @classmethod
    def all_free(cls, n: int) -> "ConePattern":
        return cls(np.full((n, n), FREE, dtype=np.int8))

    @classmethod
    def from_entries(cls, n: int, default: int, entries: dict) -> "ConePattern":
        """Pattern with ``default`` kind everywhere except the given
        ``{(i, j): kind}`` entries (mirrored onto (j, i))."""
        kinds = np.full((n, n), default, dtype=np.int8)
        for (i, j), kind in entries.items():
            kinds[i, j] = kind
            kinds[j, i] = kind
        return cls(kinds)

    def dual(self) -> "ConePattern":
        """The dual pattern, built and validated on the first call only."""
        if self._dual is None:
            kinds = self.kinds.copy()
            kinds[self.kinds == ZERO] = FREE
            kinds[self.kinds == FREE] = ZERO
            self._dual = ConePattern(kinds)
        return self._dual

    def bounds(self) -> tuple:
        """Entrywise ``(lo, hi)`` with which the projection onto the cone
        is ``min(max(x, lo), hi)``: 0/0, 0/+inf and -inf/+inf for Zero,
        NonNeg and Free. Built on the first call only, read-only."""
        if self._bounds is None:
            lo = np.where(self.kinds == FREE, -np.inf, 0.0)
            hi = np.where(self.kinds == ZERO, 0.0, np.inf)
            lo.flags.writeable = False
            hi.flags.writeable = False
            self._bounds = (lo, hi)
        return self._bounds

    def is_all_nonneg(self) -> bool:
        return bool((self.kinds == NONNEG).all())

    def __eq__(self, other) -> bool:
        return isinstance(other, ConePattern) and np.array_equal(self.kinds, other.kinds)

    def rle(self) -> list:
        """Run-length encoding of the upper-triangle kinds (row-major)."""
        iu, ju = upper_triangle(self.n)[:2]
        flat = self.kinds[iu, ju]
        out = []
        start = 0
        for k in range(1, flat.size + 1):
            if k == flat.size or flat[k] != flat[start]:
                out.append([int(k - start), _KIND_CHARS[int(flat[start])]])
                start = k
        return out

    @classmethod
    def from_rle(cls, n: int, rle: list) -> "ConePattern":
        parts = []
        for count, char in rle:
            parts.append(np.full(int(count), _CHAR_KINDS[char], dtype=np.int8))
        flat = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int8)
        if flat.size != n * (n + 1) // 2:
            raise ValueError("pattern run-length data does not cover the upper triangle")
        kinds = np.zeros((n, n), dtype=np.int8)
        iu, ju = upper_triangle(n)[:2]
        kinds[iu, ju] = flat
        kinds[ju, iu] = flat
        return cls(kinds)


def project_pattern(x: np.ndarray, pattern: ConePattern) -> np.ndarray:
    """Entrywise projection onto the pattern cone; a NaN entry stays NaN.
    The shape check, then :func:`project_pattern_unchecked` on the
    pattern's bounds."""
    if x.shape != pattern.kinds.shape:
        raise ValueError("matrix and pattern dimensions disagree")
    return project_pattern_unchecked(x, pattern.bounds())


def project_pattern_unchecked(x: np.ndarray, bounds: tuple) -> np.ndarray:
    """``min(max(x, lo), hi)`` with ``(lo, hi)`` = ``bounds``, the
    :meth:`ConePattern.bounds` of a pattern of x's shape: the projection
    onto that pattern's cone, without the shape check."""
    lo, hi = bounds
    out = np.maximum(x, lo)
    return np.minimum(out, hi, out=out)


def project_pattern_dual(z: np.ndarray, pattern: ConePattern) -> np.ndarray:
    """Projection onto the dual cone of the pattern cone."""
    return project_pattern(z, pattern.dual())


def project_nonneg(v: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(v, dtype=float), 0.0)


# Proximal oracle factories. Each returns prox(point, t) solving
#   argmin_z theta(z) + 1/(2t) ||z - point||^2.

def prox_nonneg_linear(b: np.ndarray) -> Callable:
    """theta(y) = indicator(y >= 0) - <b, y>."""
    b = np.asarray(b, dtype=float)
    return lambda point, t: np.maximum(point + t * b, 0.0)


def prox_linear(b: np.ndarray) -> Callable:
    """theta(y) = -<b, y>."""
    b = np.asarray(b, dtype=float)
    return lambda point, t: point + t * b


def prox_pattern_dual_linear(m: np.ndarray, pattern: ConePattern) -> Callable:
    """theta(Z) = indicator(Z in dual pattern cone) - <M, Z>."""
    m = np.asarray(m, dtype=float)
    return lambda point, t: project_pattern_dual(point + t * m, pattern)


def prox_psd_indicator() -> Callable:
    """theta(S) = indicator(S positive semidefinite)."""
    return lambda point, t: project_psd(point)
