# -*- coding: utf-8 -*-

"""
Constructors mapping combinatorial relaxation families onto DNN-SDP data,
plus seeded random generators, a brute-force binary oracle, and readers
for the common external text formats.

Constraint rows are emitted in a documented canonical order per family
(diagonal / per-node rows ascending first, then the corner or trace row,
then any remaining families in their definition order), so Gram
factorizations are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cones import FREE, NONNEG, ZERO, ConePattern
from .dnnsdp import DnnSdpProblem
from .linalg import SparseSymList, frob_inner, is_symmetric


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are (i, j) pairs with i < j.
    ``edge_array`` holds them as a read-only (len(edges), 2) int64 array,
    converted once, for the builders."""

    n: int
    edges: tuple
    weights: Optional[dict] = None
    edge_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # checked on the whole edge array; the first bad or repeated edge
        # is reported, a bad one before a repeat of an earlier one
        count = len(self.edges)
        # a copy, which is made read-only below, never the caller's array
        e = np.array(self.edges, dtype=np.int64).reshape(count, 2)
        i, j = e[:, 0], e[:, 1]
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= self.n))
        order = np.lexsort((j, i))
        same = (i[order][1:] == i[order][:-1]) & (j[order][1:] == j[order][:-1])
        repeat = order[1:][same]   # every copy but the first, which lexsort keeps first
        first_bad = bad[0] if bad.size else count
        k = min(first_bad, repeat.min() if repeat.size else count)
        if k < count:
            i, j = self.edges[k]
            raise ValueError(f"{'bad' if k == first_bad else 'duplicate'} edge ({i}, {j})")
        e.flags.writeable = False
        object.__setattr__(self, "edge_array", e)

    def weight(self, i: int, j: int) -> float:
        if self.weights is None:
            return 1.0
        return float(self.weights.get((i, j), self.weights.get((j, i), 0.0)))

    def weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        i, j = self.edge_array.T
        w[i, j] = w[j, i] = [self.weight(*e) for e in self.edges]
        return w


@dataclass(frozen=True)
class BiqData:
    """Binary quadratic data: minimize x'Qx/2 + <c, x> over binary x."""

    Q: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if not is_symmetric(self.Q):
            raise ValueError("Q must be symmetric")
        if self.Q.shape[0] != len(self.c):
            raise ValueError("Q and c dimensions disagree")

    @property
    def n(self) -> int:
        return len(self.c)


def _entries(*runs) -> tuple:
    """``(counts, i, j, values)`` for ``SparseSymList.from_entries``: runs
    of constraint rows in the given order, built from whole arrays. A run
    ``(i, j, v)`` is broadcast to one (rows, entries) shape, one row per
    constraint; a run ``(i, j, v, counts)`` is broadcast, flattened row by
    row and split into constraints of ``counts`` entries."""
    counts, flat = [], []
    for i, j, v, *split in runs:
        i, j, v = np.broadcast_arrays(i, j, v)
        counts.append(split[0] if split else np.full(i.shape[0], i.shape[1]))
        flat.append((i, j, v))
    i, j, v = (np.concatenate(part, axis=None) for part in zip(*flat))
    return np.concatenate(counts), i, j, v


def build_biq(d: BiqData, name: str = "biq") -> DnnSdpProblem:
    """Order n+1 relaxation of the binary quadratic problem.

    Rows: n rows pinning diag(Y) to the linear column (ascending), then
    the corner row fixing the lower-right entry to 1.
    """
    n = d.n
    order = n + 1
    C = np.zeros((order, order))
    C[:n, :n] = 0.5 * d.Q
    C[:n, n] = 0.5 * d.c
    C[n, :n] = 0.5 * d.c
    k = np.arange(n)[:, None]
    a_e = SparseSymList.from_entries(order, *_entries(
        (np.hstack([k, k]), np.hstack([k, np.full_like(k, n)]), [1.0, -0.5]),
        ([[n]], [[n]], [1.0])))
    b = np.zeros(n + 1)
    b[n] = 1.0
    return DnnSdpProblem(
        n=order, C=C, A_E=a_e, b_E=b,
        pattern=ConePattern.all_nonneg(order),
        meta={"family": "biq", "name": name, "obj_sense": "min", "obj_offset": 0.0})


def ext_biq_inequality_rows(n: int):
    """Index sets of the valid cuts added to the order n+1 relaxation.

    Pairwise cuts run over all i < j with j up to n-2 (0-based), three
    rows per pair in the listed order; triangle rows run over unordered
    triples i < j < k in lexicographic order. Returns integer arrays of
    shape (pairs, 2) and (triples, 3).
    """
    j, i = np.tril_indices(max(n - 1, 0), -1)   # by j, then i < j
    r = np.arange(n)
    triples = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))   # i < j < k
    return np.column_stack([i, j]), np.column_stack(triples)


# For n > 25, build_ext_biq keeps TRIANGLE_CAP of the O(n^3) triangle rows
# (there are at least 2 600), drawn uniformly with a generator seeded by 0.
TRIANGLE_CAP = 2000


def build_ext_biq(d: BiqData, name: str = "ebiq") -> DnnSdpProblem:
    """BIQ relaxation plus the pairwise and triangle valid cuts; for
    n > 25 the triangle family is subsampled (``TRIANGLE_CAP``)."""
    base = build_biq(d, name)
    n = d.n
    corner = n
    pairs, triples = ext_biq_inequality_rows(n)
    if n > 25:
        keep = np.random.default_rng(0).choice(len(triples), size=TRIANGLE_CAP,
                                               replace=False)
        triples = triples[np.sort(keep)]
    i, j = pairs[:, :1], pairs[:, 1:]
    c = np.full_like(i, corner)
    # per pair, rows of 2, 2 and 3 entries: -Y_ij + x_i >= 0,
    # -Y_ij + x_j >= 0 and Y_ij - x_i - x_j >= -1
    by_pair = (np.hstack([i, i, i, j, i, i, j]), np.hstack([j, c, j, c, j, c, c]),
               [-0.5, 0.5, -0.5, 0.5, 0.5, -0.5, -0.5], np.tile([2, 2, 3], len(pairs)))
    i, j, k = triples[:, :1], triples[:, 1:2], triples[:, 2:]
    c = np.full_like(i, corner)
    a_i = SparseSymList.from_entries(n + 1, *_entries(
        by_pair, (np.hstack([i, i, j, i, j, k]), np.hstack([j, k, k, c, c, c]),
                  [0.5, 0.5, 0.5, -0.5, -0.5, -0.5])))
    b = np.concatenate([np.tile([0.0, 0.0, -1.0], len(pairs)), np.full(len(triples), -1.0)])
    meta = dict(base.meta)
    meta.update({"family": "ebiq", "name": name})
    return DnnSdpProblem(
        n=n + 1, C=base.C, A_E=base.A_E, b_E=base.b_E,
        A_I=a_i, b_I=b, pattern=base.pattern, meta=meta)


def build_theta_plus(g: Graph, name: str = "theta") -> DnnSdpProblem:
    """Entrywise-nonnegative stable-set relaxation.

    Rows: one vanishing-entry row per edge (lexicographic), then the unit
    trace row.
    """
    n = g.n
    e = g.edge_array
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    d = np.arange(n)
    a_e = SparseSymList.from_entries(n, *_entries((e[:, :1], e[:, 1:], [1.0]), ([d], [d], 1.0)))
    b = np.zeros(a_e.m)
    b[-1] = 1.0
    return DnnSdpProblem(
        n=n, C=-np.ones((n, n)), A_E=a_e, b_E=b,
        pattern=ConePattern.all_nonneg(n),
        meta={"family": "theta", "name": name, "obj_sense": "max", "obj_offset": 0.0})


def build_rcp(w: np.ndarray, kappa: int, name: str = "rcp") -> DnnSdpProblem:
    """Clustering relaxation: minimize <W, I - X> over doubly stochastic-ish
    PSD X with trace kappa.

    Rows: n row-sum rows ascending, then the trace row.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if not is_symmetric(w):
        raise ValueError("affinity matrix must be symmetric")
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must lie in [1, {n}]")
    # row r holds (min(r, c), max(r, c)) for c = 0, ..., n-1
    d = np.arange(n)
    a_e = SparseSymList.from_entries(n, *_entries(
        (np.minimum(d[:, None], d), np.maximum(d[:, None], d),
         np.where(d[:, None] == d, 1.0, 0.5)),
        ([d], [d], 1.0)))
    b = np.ones(n + 1)
    b[n] = float(kappa)
    return DnnSdpProblem(
        n=n, C=-w, A_E=a_e, b_E=b, pattern=ConePattern.all_nonneg(n),
        meta={"family": "rcp", "name": name, "obj_sense": "min",
              "obj_offset": float(np.trace(w))})


def build_fap(g: Graph, u_edges: Sequence[tuple], kappa: int,
              name: str = "fap") -> DnnSdpProblem:
    """Frequency-assignment relaxation with a shifted pattern cone.

    Equalities pin the diagonal to one (ascending). The shift matrix has
    -1/(kappa-1) on every edge; edges in U are Zero-kind (their shifted
    entries are pinned), the remaining edges NonNeg, everything else Free.
    """
    if kappa < 2:
        raise ValueError("kappa must be an integer > 1")
    u_set = {(min(i, j), max(i, j)) for (i, j) in u_edges}
    if not u_set <= set(g.edges):
        raise ValueError("U must be a subset of the edge set")
    n = g.n
    w = g.weight_matrix()
    lap = np.diag(w.sum(axis=1)) - w
    obj = ((kappa - 1) / (2.0 * kappa)) * lap - 0.5 * np.diag(w.sum(axis=1))
    d = np.arange(n)[:, None]
    a_e = SparseSymList.from_entries(n, *_entries((d, d, 1.0)))
    b = np.ones(n)
    i, j = g.edge_array.T
    m = np.zeros((n, n))
    m[i, j] = m[j, i] = -1.0 / (kappa - 1)
    kinds = np.full((n, n), FREE, dtype=np.int8)
    kinds[i, j] = kinds[j, i] = NONNEG
    i, j = np.asarray(list(u_set), dtype=np.int64).reshape(-1, 2).T
    kinds[i, j] = kinds[j, i] = ZERO
    return DnnSdpProblem(
        n=n, C=-obj, A_E=a_e, b_E=b, M=m, pattern=ConePattern(kinds),
        meta={"family": "fap", "name": name, "obj_sense": "max", "obj_offset": 0.0})


MAX_QAP_ORDER = 8


def build_qap(a: np.ndarray, b: np.ndarray, name: str = "qap") -> DnnSdpProblem:
    """Assignment relaxation over the lifted n^2 x n^2 matrix.

    Rows per family, in order: the block-sum-to-identity rows (one per
    upper-triangle entry (r, s), row-major), the per-block trace rows
    (blocks (i, j) with i <= j, row-major), then the per-block all-ones
    rows in the same block order. The trace and all-ones rows of the last
    diagonal block are implied by the rest (the families are rank
    deficient by exactly two) and are omitted so the equality map stays
    surjective.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != b.shape or not is_symmetric(a) or not is_symmetric(b):
        raise ValueError("A and B must be symmetric of the same order")
    if n > MAX_QAP_ORDER:
        raise ValueError(f"order {n} exceeds the desk-scale cap {MAX_QAP_ORDER} "
                         f"(lifted order would be {n * n})")
    order = n * n
    d = np.arange(n)
    r, s = np.triu_indices(n)   # entries (r, s) and blocks (i, j) = (r, s)
    diag = (r == s)[:, None]
    # sum_i Y^{ii} = I, entry (r, s)
    sums = (d * n + r[:, None], d * n + s[:, None], np.where(diag, 1.0, 0.5))
    rhs = [np.where(diag[:, 0], 1.0, 0.0)]
    # <I, Y^{ij}> = delta_ij (last diagonal block implied, omitted)
    traces = (r[:-1, None] * n + d, s[:-1, None] * n + d, np.where(diag[:-1], 1.0, 0.5))
    rhs.append(np.where(diag[:-1, 0], 1.0, 0.0))
    # <ones, Y^{ij}> = 1 (last diagonal block implied, omitted): the upper
    # triangle of a diagonal block, every entry of the others (row-major)
    rr, ss = np.repeat(d, n), np.tile(d, n)
    i, j = r[:-1, None], s[:-1, None]
    keep = (i != j) | (rr <= ss)
    ones = [x[keep] for x in np.broadcast_arrays(i * n + rr, j * n + ss,
                                                 np.where(i == j, 1.0, 0.5))]
    ones.append(keep.sum(axis=1))
    rhs.append(np.ones(r.size - 1))
    a_e = SparseSymList.from_entries(order, *_entries(sums, traces, ones))
    c = np.kron(b, a)
    return DnnSdpProblem(
        n=order, C=c, A_E=a_e, b_E=np.concatenate(rhs),
        pattern=ConePattern.all_nonneg(order),
        meta={"family": "qap", "name": name, "obj_sense": "min", "obj_offset": 0.0})


def family_objective(prob: DnnSdpProblem, x: np.ndarray) -> float:
    """The original family objective value at a primal matrix X."""
    cx = frob_inner(prob.C, x)
    sense = prob.meta.get("obj_sense", "max")
    offset = prob.meta.get("obj_offset", 0.0)
    return offset + (cx if sense == "min" else -cx)


def brute_force_biq(d: BiqData) -> float:
    """Exact binary minimum by enumeration; refuses n > 20."""
    n = d.n
    if n > 20:
        raise ValueError("enumeration limited to n <= 20")
    best = np.inf
    chunk = 1 << 14
    total = 1 << n
    shifts = np.arange(n, dtype=np.int64)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        x = ((codes[:, None] >> shifts) & 1).astype(float)
        vals = 0.5 * np.einsum("bi,ij,bj->b", x, d.Q, x) + x @ d.c
        best = min(best, float(vals.min()))
    return best


# ---------------------------------------------------------------------------
# Seeded random generators (the primary desk-scale instance source).

def random_biq(n: int, seed: int) -> BiqData:
    rng = np.random.default_rng(seed)
    q = rng.integers(-10, 11, size=(n, n)).astype(float)
    q = np.triu(q, 1)
    q = q + q.T
    np.fill_diagonal(q, rng.integers(-10, 11, size=n).astype(float))
    c = rng.integers(-10, 11, size=n).astype(float)
    return BiqData(Q=q, c=c)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Each pair i < j is an edge with probability p. The pair uniforms
    are drawn in one call, in the row-major order of the upper triangle:
    the stream and the edges of one scalar draw per pair in that order."""
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)
    keep = rng.random(i.size) < p
    return Graph(n=n, edges=tuple(zip(i[keep].tolist(), j[keep].tolist())))


def random_weighted_graph(n: int, p: float, seed) -> Graph:
    """Random graph with integer weights 1..10; ``seed`` is anything
    ``np.random.default_rng`` takes."""
    rng = np.random.default_rng(seed)
    edges = []
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
                weights[(i, j)] = float(rng.integers(1, 11))
    return Graph(n=n, edges=tuple(edges), weights=weights)


AFFINITY_BANDWIDTH = 1.0   # the kernel bandwidth h of gaussian_affinity
RCP_KAPPA = 2              # the cluster count of random_rcp


def gaussian_affinity(points: np.ndarray) -> np.ndarray:
    """Gaussian-kernel affinity W_ij = exp(-||p_i - p_j||^2 / (2 h^2)),
    h = ``AFFINITY_BANDWIDTH``."""
    points = np.asarray(points, dtype=float)
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * AFFINITY_BANDWIDTH ** 2))


def random_rcp(n: int, seed: int) -> DnnSdpProblem:
    """Two-cluster points in the plane with a Gaussian-kernel affinity."""
    rng = np.random.default_rng(seed)
    half = n // 2
    pts = np.vstack([
        rng.normal(loc=(-2.0, 0.0), scale=0.5, size=(half, 2)),
        rng.normal(loc=(2.0, 0.0), scale=0.5, size=(n - half, 2)),
    ])
    w = gaussian_affinity(pts)
    return build_rcp(w, RCP_KAPPA, name=f"rcp{n}s{seed}")


# random_fap's settings. An empty graph is redrawn up to FAP_REDRAWS times:
# on two vertices all 65 draws are empty with probability 0.6**65 < 1e-14.
FAP_P = 0.4            # edge probability
FAP_KAPPA = 3
FAP_U_FRACTION = 0.25  # share of the edges in U
FAP_REDRAWS = 64


def random_fap(n: int, seed: int) -> DnnSdpProblem:
    # kappa = 2 pins the U-edge entries of X at -1, which together with the
    # unit diagonal puts every feasible point on the psd boundary; kappa >= 3
    # keeps the pinned value at -1/(kappa-1) and the instances well behaved.
    # An empty graph is redrawn, from the streams seeded by (seed, 1),
    # (seed, 2), ..., up to FAP_REDRAWS times; a graph that has an edge on
    # the first draw is kept, so such instances do not depend on the bound.
    g = random_weighted_graph(n, FAP_P, seed)
    for redraw in range(1, FAP_REDRAWS + 1):
        if g.edges:
            break
        g = random_weighted_graph(n, FAP_P, [seed, redraw])
    rng = np.random.default_rng(seed + 1)
    edges = sorted(g.edges)
    if not edges:
        raise ValueError("random graph came out empty; use a larger p or n")
    n_u = max(1, int(FAP_U_FRACTION * len(edges)))
    keep = rng.choice(len(edges), size=n_u, replace=False)
    u = [edges[k] for k in sorted(keep)]
    return build_fap(g, u, FAP_KAPPA, name=f"fap{n}s{seed}")


def random_qap(n: int, seed: int) -> DnnSdpProblem:
    rng = np.random.default_rng(seed)
    a = symupper(rng.integers(0, 10, size=(n, n)).astype(float))
    b = symupper(rng.integers(0, 10, size=(n, n)).astype(float))
    return build_qap(a, b, name=f"qap{n}s{seed}")


def symupper(a: np.ndarray) -> np.ndarray:
    out = np.triu(a)
    return out + np.triu(out, 1).T


# ---------------------------------------------------------------------------
# External text-format readers (optional inputs; lenient on whitespace,
# strict on counts).

def read_biqmac(path) -> BiqData:
    """Read the sparse triple format: header "n m", then m entries "i j v"
    (1-based, each pair once in either order; entries count from 1). The
    file encodes max x'Rx over binary x; this is converted to the min
    x'Qx/2 + <c, x> form with Q = -2 (R - Diag(R)) and c = -diag(R),
    using x_i^2 = x_i.
    """
    tokens = _tokens(path)
    if len(tokens) < 2:
        raise ValueError("truncated header: expected 'n m'")
    n, m = _ints(tokens[:2], "header")
    body = tokens[2:]
    if len(body) != 3 * m:
        raise ValueError(f"expected {3 * m} entry tokens, found {len(body)}")
    r = np.zeros((n, n))
    seen = {}
    for k in range(1, m + 1):
        i, j = _ints(body[3 * k - 3:3 * k - 1], f"entry {k}")
        v = _float(body[3 * k - 1], f"entry {k}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"entry {k}: index out of range")
        first = seen.setdefault((min(i, j), max(i, j)), k)
        if first != k:
            raise ValueError(f"entry {k}: ({i}, {j}) repeats entry {first}")
        r[i - 1, j - 1] = r[j - 1, i - 1] = v
    q = -2.0 * (r - np.diag(np.diag(r)))
    c = -np.diag(r).copy()
    return BiqData(Q=q, c=c)


def read_qaplib(path):
    """Read "n, then A rows, then B rows"; returns (A, B)."""
    tokens = _tokens(path)
    if not tokens:
        raise ValueError("empty file")
    n, = _ints(tokens[:1], "header")
    need = 1 + 2 * n * n
    if len(tokens) != need:
        raise ValueError(f"expected {need} tokens for order {n}, found {len(tokens)}")
    vals = np.asarray([_float(t, f"token {k}") for k, t in enumerate(tokens[1:], 2)])
    a = vals[:n * n].reshape(n, n)
    b = vals[n * n:].reshape(n, n)
    return a, b


def read_dimacs(path) -> Graph:
    """Read the edge format: "p edge n m" then m lines "e i j" (1-based,
    each edge once); comment lines starting with "c" are skipped."""
    n = m = None
    edges = {}   # (i, j), 0-based with i < j: the line that gave it
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                if len(parts) < 4 or parts[1] != "edge":
                    raise ValueError(f"line {lineno}: malformed problem line")
                n, m = _ints(parts[2:4], f"line {lineno}")
            elif parts[0] == "e":
                if n is None:
                    raise ValueError(f"line {lineno}: edge before problem line")
                if len(parts) < 3:
                    raise ValueError(f"line {lineno}: an edge needs two vertices")
                i, j = _ints(parts[1:3], f"line {lineno}")
                if not (1 <= i <= n and 1 <= j <= n):
                    raise ValueError(f"line {lineno}: vertex {j if 1 <= i <= n else i} "
                                     f"is not in 1..{n}")
                if i == j:
                    raise ValueError(f"line {lineno}: self-loop")
                first = edges.setdefault((min(i, j) - 1, max(i, j) - 1), lineno)
                if first != lineno:
                    raise ValueError(f"line {lineno}: edge ({i}, {j}) repeats line {first}")
            else:
                raise ValueError(f"line {lineno}: unknown record '{parts[0]}'")
    if n is None:
        raise ValueError("missing problem line")
    if m is not None and len(edges) != m:
        raise ValueError(f"edge count mismatch: header says {m}, found {len(edges)}")
    return Graph(n=n, edges=tuple(sorted(edges)))


def _ints(tokens: list, where: str) -> list:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"{where}: expected integers, got {' '.join(tokens)!r}") from None


def _float(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"{where}: expected a number, got {token!r}") from None


def _tokens(path) -> list:
    with open(path) as fh:
        return fh.read().split()
