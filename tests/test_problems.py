# -*- coding: utf-8 -*-

import hashlib
import itertools
import re

import numpy as np
import pytest

from cadmm.cli import generate_problem
from cadmm.cones import FREE, NONNEG, ZERO
from cadmm.dnnsdp import SolverConfig, cadmm_solve
from cadmm.io import problem_to_json
from cadmm.problems import (TRIANGLE_CAP, BiqData, Graph, brute_force_biq,
                            build_biq, build_ext_biq, build_fap, build_qap,
                            build_rcp, build_theta_plus, ext_biq_inequality_rows,
                            family_objective, gaussian_affinity, random_biq,
                            random_fap, random_graph, random_rcp,
                            random_weighted_graph, read_biqmac, read_dimacs,
                            read_qaplib)


def lift(x):
    v = np.concatenate([x, [1.0]])
    return np.outer(v, v)


class TestGraph:
    def test_rejects_bad_edges(self):
        for edges, message in ((((0, 0),), "bad edge (0, 0)"), (((1, 0),), "bad edge (1, 0)"),
                               (((0, 1), (0, 1)), "duplicate edge (0, 1)")):
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                Graph(3, edges)

    def test_edges_kept_as_given_and_converted_once(self):
        for edges in (((1, 2), (0, 2)), [(0, 1)], np.array([[0, 2]]), ()):
            g = Graph(3, edges)
            assert g.edges is edges
            e = g.edge_array
            assert e.dtype == np.int64 and e.shape == (len(edges), 2)
            assert e.tolist() == [list(x) for x in edges]
            assert not e.flags.writeable
            assert e is not edges and not np.shares_memory(e, edges)
        assert Graph(3, ((0, 1),)) == Graph(3, ((0, 1),))
        assert "edge_array" not in repr(Graph(3, ((0, 1),)))

    def test_weight_matrix(self):
        g = Graph(3, ((0, 1),), weights={(0, 1): 2.5})
        w = g.weight_matrix()
        assert w[0, 1] == w[1, 0] == 2.5
        assert w.sum() == 5.0


class TestBuildBiq:
    def test_row_count_and_rhs(self):
        d = random_biq(6, 1)
        prob = build_biq(d)
        assert prob.A_E.m == 7
        assert prob.b_E[-1] == 1.0
        assert np.allclose(prob.b_E[:-1], 0.0)

    def test_objective_encodes_quadratic(self, rng):
        d = random_biq(5, 2)
        prob = build_biq(d)
        x = (rng.random(5) < 0.5).astype(float)
        expect = 0.5 * x @ d.Q @ x + d.c @ x
        assert np.vdot(prob.C, lift(x)) == pytest.approx(expect, abs=1e-12)

    def test_binary_lifts_feasible(self):
        d = random_biq(5, 3)
        prob = build_biq(d)
        for bits in itertools.product((0.0, 1.0), repeat=5):
            x = lift(np.asarray(bits))
            assert np.allclose(prob.A_E.apply(x), prob.b_E, atol=1e-12)

    def test_corner_row_on_trivial_point(self):
        prob = build_biq(random_biq(4, 4))
        x = np.zeros((5, 5))
        x[4, 4] = 1.0
        assert np.allclose(prob.A_E.apply(x), prob.b_E, atol=1e-12)

    def test_tight_single_variable_relaxation(self):
        d = BiqData(Q=np.zeros((1, 1)), c=np.array([-1.0]))
        prob = build_biq(d)
        res = cadmm_solve(prob, SolverConfig(tol=1e-8))
        assert res.status == "Converged"
        assert family_objective(prob, res.x) == pytest.approx(-1.0, abs=1e-5)
        assert brute_force_biq(d) == pytest.approx(-1.0)


class TestBuildExtBiq:
    def test_row_counts_match_enumeration(self):
        for n in (3, 5, 8):
            pairs, triples = ext_biq_inequality_rows(n)
            assert len(pairs) == (n - 1) * (n - 2) // 2
            assert len(triples) == n * (n - 1) * (n - 2) // 6
            prob = build_ext_biq(random_biq(n, 1))
            assert prob.A_I.m == 3 * len(pairs) + len(triples)

    def test_binary_lifts_satisfy_cuts(self):
        for n, seed in ((4, 1), (6, 2)):
            prob = build_ext_biq(random_biq(n, seed))
            for bits in itertools.product((0.0, 1.0), repeat=n):
                x = lift(np.asarray(bits))
                assert (prob.A_I.apply(x) >= prob.b_I - 1e-12).all()

    def test_equality_block_reproduces_base(self):
        d = random_biq(6, 5)
        base = build_biq(d)
        ext = build_ext_biq(d)
        doc_base = problem_to_json(base)
        doc_ext = problem_to_json(ext)
        for key in ("C", "A_E", "b_E", "pattern", "M", "n"):
            assert doc_base[key] == doc_ext[key]

    def test_triangle_cap_subsamples(self):
        # all 2 300 triangle rows up to n = 25, TRIANGLE_CAP of them beyond
        for n, triangles in ((25, 2300), (26, TRIANGLE_CAP)):
            prob = build_ext_biq(random_biq(n, 1))
            pairs, _ = ext_biq_inequality_rows(n)
            assert prob.A_I.m == 3 * len(pairs) + triangles


class TestBuildThetaPlus:
    def test_row_count(self):
        g = random_graph(8, 0.4, 1)
        prob = build_theta_plus(g)
        assert prob.A_E.m == len(g.edges) + 1

    def test_complete_graph_value_one(self):
        g = Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
        prob = build_theta_plus(g)
        res = cadmm_solve(prob, SolverConfig(tol=1e-8))
        assert res.status == "Converged"
        assert family_objective(prob, res.x) == pytest.approx(1.0, abs=1e-5)

    def test_empty_graph_value_n(self):
        prob = build_theta_plus(Graph(5, ()))
        res = cadmm_solve(prob, SolverConfig(tol=1e-8))
        assert res.status == "Converged"
        assert family_objective(prob, res.x) == pytest.approx(5.0, abs=5e-4)

    def test_five_cycle_value(self):
        # the pentagon's stable-set relaxation value is sqrt(5)
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
        prob = build_theta_plus(g)
        res = cadmm_solve(prob, SolverConfig(tol=1e-8))
        assert family_objective(prob, res.x) == pytest.approx(np.sqrt(5.0), abs=1e-4)


class TestBuildRcp:
    def test_row_count_and_rhs(self):
        w = gaussian_affinity(np.random.default_rng(0).random((6, 2)))
        prob = build_rcp(w, 2)
        assert prob.A_E.m == 7
        assert prob.b_E[-1] == 2.0
        assert np.allclose(prob.b_E[:-1], 1.0)

    def test_kappa_equals_n_forces_identity(self):
        rng = np.random.default_rng(1)
        w = gaussian_affinity(rng.random((6, 2)))
        prob = build_rcp(w, 6)
        res = cadmm_solve(prob, SolverConfig(tol=1e-8))
        assert res.status == "Converged"
        assert family_objective(prob, res.x) == pytest.approx(0.0, abs=1e-5)
        assert np.linalg.norm(res.x - np.eye(6)) <= 1e-4

    def test_two_cluster_feasible_point_bounds_value(self):
        prob = random_rcp(10, 7, kappa=2)
        w = -prob.C
        # block-averaging matrix over the two clusters of the generator
        x_feas = np.zeros((10, 10))
        x_feas[:5, :5] = 1.0 / 5
        x_feas[5:, 5:] = 1.0 / 5
        assert np.allclose(prob.A_E.apply(x_feas), prob.b_E, atol=1e-12)
        feas_value = float(np.vdot(w, np.eye(10) - x_feas))
        res = cadmm_solve(prob, SolverConfig(tol=1e-7))
        assert res.status == "Converged"
        assert family_objective(prob, res.x) <= feas_value + 1e-5

    def test_kappa_out_of_range(self):
        w = np.eye(4)
        with pytest.raises(ValueError, match="kappa"):
            build_rcp(w, 0)
        with pytest.raises(ValueError, match="kappa"):
            build_rcp(w, 5)


class TestBuildFap:
    def test_pinned_entry_with_kappa_two(self):
        g = Graph(3, ((0, 1), (1, 2)), weights={(0, 1): 1.0, (1, 2): 2.0})
        prob = build_fap(g, [(0, 1)], kappa=2)
        assert prob.pattern.kinds[0, 1] == ZERO
        assert prob.pattern.kinds[1, 2] == NONNEG
        assert prob.pattern.kinds[0, 2] == FREE
        assert prob.pattern.kinds[0, 0] == FREE
        assert prob.M[0, 1] == pytest.approx(-1.0)
        assert prob.M[1, 2] == pytest.approx(-1.0)
        assert prob.M[0, 2] == 0.0

    def test_laplacian_row_sums_vanish(self):
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (0, 4)),
                  weights={(0, 1): 2.0, (1, 2): 1.0, (2, 3): 3.0, (0, 4): 1.5})
        w = g.weight_matrix()
        lap = np.diag(w.sum(axis=1)) - w
        assert np.allclose(lap @ np.ones(5), 0.0, atol=1e-12)

    def test_triangle_instance_certificate(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)),
                  weights={(0, 1): 1.0, (0, 2): 2.0, (1, 2): 1.0})
        prob = build_fap(g, [(0, 1)], kappa=3)
        res = cadmm_solve(prob, SolverConfig(tol=1e-6))
        assert res.status == "Converged"
        assert res.report.eta < 1e-6
        # the pinned entry sits at the shift value
        assert res.x[0, 1] == pytest.approx(prob.M[0, 1], abs=1e-4)

    def test_u_must_be_subset(self):
        g = Graph(3, ((0, 1),))
        with pytest.raises(ValueError, match="subset"):
            build_fap(g, [(1, 2)], kappa=2)


ASYMMETRIC = np.array([[1.0, 0.5], [0.2, 1.0]])


@pytest.mark.parametrize("build, message", [
    (lambda: BiqData(Q=ASYMMETRIC, c=np.zeros(2)), "Q must be symmetric"),
    (lambda: BiqData(Q=np.eye(2), c=np.zeros(3)), "Q and c dimensions disagree"),
    (lambda: build_rcp(ASYMMETRIC, 1), "affinity matrix must be symmetric"),
    (lambda: build_fap(Graph(2, ((0, 1),)), [], kappa=1), "kappa must be an integer > 1"),
    (lambda: build_qap(np.eye(2), np.eye(3)), "A and B must be symmetric of the same order"),
    (lambda: build_qap(ASYMMETRIC, np.eye(2)), "A and B must be symmetric of the same order"),
], ids=["biq-Q-asymmetric", "biq-c-length", "rcp-asymmetric", "fap-kappa-1",
        "qap-orders", "qap-asymmetric"])
def test_builder_input_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def problem_digest(prob) -> str:
    """sha256 (16 hex digits) of the data of a problem without inequality
    block: n, C, b_E, M, the pattern and every constraint's triples."""
    h = hashlib.sha256(str(prob.n).encode())
    for a in (prob.C, prob.b_E, prob.M, prob.pattern.kinds):
        h.update(np.ascontiguousarray(a).tobytes())
    for k in range(prob.A_E.m):
        for a in prob.A_E.triples(k):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def triples_digest(prob) -> str:
    """sha256 (16 hex digits) of the constraint data of a problem: for
    A_E and then A_I, the order, row count, right-hand side and every
    row's stored triples with their dtypes."""
    h = hashlib.sha256()
    for a, b in ((prob.A_E, prob.b_E), (prob.A_I, prob.b_I)):
        if a is None:
            continue
        h.update(f"{a.n} {a.m}".encode())
        h.update(np.ascontiguousarray(b).tobytes())
        for k in range(a.m):
            for t in a.triples(k):
                h.update(t.dtype.str.encode())
                h.update(t.tobytes())
    return h.hexdigest()[:16]


class TestBuilderRows:
    """The builders make their rows with whole-array numpy; the rows, in
    the canonical order the module documents, must not drift."""

    # taken with the per-row builders; ebiq:27:1 subsamples its triangles
    DIGESTS = {"biq:12:3": "9d63b5c567231ade", "ebiq:8:2": "b52e068970acd7bc",
               "ebiq:27:1": "702391cf4b4f37b3", "theta:14:1": "54b6d1bd4daad847",
               "rcp:20:1": "e005d9e8167bda86", "fap:10:2": "1dd73727fb616d19",
               "qap:3:4": "97813ec1b8defa3b"}

    @pytest.mark.parametrize("spec", sorted(DIGESTS))
    def test_family_rows_pinned(self, spec):
        assert triples_digest(generate_problem(spec)) == self.DIGESTS[spec]

    def test_benchmark_theta_rows_pinned(self):
        prob = build_theta_plus(random_graph(48, 0.85, 2))
        assert prob.A_E.m == 948
        assert triples_digest(prob) == "5a621efb8f98a550"

    def test_theta_edge_rows_in_lexicographic_order(self):
        prob = build_theta_plus(Graph(4, ((2, 3), (0, 2), (1, 2), (0, 1))))
        rows = [tuple(int(t[0]) for t in prob.A_E.triples(k)[:2]) for k in range(4)]
        assert rows == [(0, 1), (0, 2), (1, 2), (2, 3)]

    @pytest.mark.parametrize("n", [2, 14, 48])
    @pytest.mark.parametrize("p", [0.3, 0.85])
    def test_random_graph_matches_one_draw_per_pair(self, n, p):
        for seed in range(1, 41):
            rng = np.random.default_rng(seed)
            edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < p)
            assert random_graph(n, p, seed).edges == edges

    def test_graph_reports_the_first_bad_or_repeated_edge(self):
        cases = [(((0, 1), (1, 2), (0, 1), (-1, 2)), "duplicate edge (0, 1)"),
                 (((0, 1), (-1, 2), (0, 1)), "bad edge (-1, 2)"),
                 (((2, 1), (2, 1)), "bad edge (2, 1)"),
                 (((0, 2), (0, 1), (0, 2), (1, 1)), "duplicate edge (0, 2)"),
                 (((0, 1), (0, 2), (0, 2), (0, 1)), "duplicate edge (0, 2)"),
                 (((0, 1), (1, 3)), "bad edge (1, 3)")]
        for edges, message in cases:
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                Graph(3, edges)
        assert Graph(3, ()).edges == ()


class TestRandomFap:
    # digests of the problems random_fap built before it redrew empty
    # graphs; an instance whose first graph has an edge must not move
    BENCHMARK_DIGESTS = {"fap:12:4": "ff8faa16d0e97e25", "fap:30:1": "df369448a95a2b62"}
    SMALL_DIGEST = "12bf6388e2e3635d"   # fap:n:s, n = 2..6, s = 1..40, first draw nonempty

    @pytest.mark.parametrize("spec", sorted(BENCHMARK_DIGESTS))
    def test_benchmark_instances_unchanged(self, spec):
        assert problem_digest(generate_problem(spec)) == self.BENCHMARK_DIGESTS[spec]

    def test_instances_that_built_before_unchanged(self):
        h = hashlib.sha256()
        redrawn = 0
        for n in range(2, 7):
            for seed in range(1, 41):
                if not random_weighted_graph(n, 0.4, seed).edges:
                    redrawn += 1
                    continue
                h.update(problem_digest(generate_problem(f"fap:{n}:{seed}")).encode())
        # 24 of the seeds at n = 2 and 8 at n = 3 draw an empty graph first
        assert redrawn == 32
        assert h.hexdigest()[:16] == self.SMALL_DIGEST

    @pytest.mark.parametrize("n", [2, 3])
    def test_smallest_sizes_build_for_every_seed(self, n):
        for seed in range(1, 41):
            prob = generate_problem(f"fap:{n}:{seed}")
            prob.validate()
            assert prob.meta["name"] == f"fap{n}s{seed}"

    def test_graph_without_possible_edge_still_refused(self):
        with pytest.raises(ValueError, match="random graph came out empty"):
            random_fap(1, 1)


class TestBuildQap:
    def test_row_count_hand_count(self):
        # three families of n(n+1)/2 rows each, minus the two implied rows
        prob = build_qap(np.eye(2), np.eye(2))
        assert prob.A_E.m == 9 - 2
        assert prob.n == 4
        prob3 = build_qap(np.eye(3), np.eye(3))
        assert prob3.A_E.m == 18 - 2

    def test_equality_map_is_surjective(self):
        for n in (2, 3, 4):
            prob = build_qap(np.eye(n), np.ones((n, n)))
            prob.validate()

    def test_permutation_lifts_feasible(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            a = rng.integers(0, 5, size=(n, n)).astype(float)
            a = np.triu(a) + np.triu(a, 1).T
            b = rng.integers(0, 5, size=(n, n)).astype(float)
            b = np.triu(b) + np.triu(b, 1).T
            prob = build_qap(a, b)
            for perm in itertools.permutations(range(n)):
                p = np.zeros((n, n))
                p[list(perm), range(n)] = 1.0
                x = p.T.reshape(-1)  # column-stacked vec
                y = np.outer(x, x)
                assert np.allclose(prob.A_E.apply(y), prob.b_E, atol=1e-12)
                assert np.vdot(prob.C, y) == pytest.approx(
                    np.vdot(p, a @ p @ b), abs=1e-10)

    def test_relaxation_lower_bounds_assignments(self):
        rng = np.random.default_rng(4)
        n = 3
        a = rng.integers(0, 5, size=(n, n)).astype(float)
        a = np.triu(a) + np.triu(a, 1).T
        b = rng.integers(0, 5, size=(n, n)).astype(float)
        b = np.triu(b) + np.triu(b, 1).T
        prob = build_qap(a, b)
        res = cadmm_solve(prob, SolverConfig(tol=1e-7))
        assert res.status == "Converged"
        best = min(np.vdot(p, a @ p @ b)
                   for perm in itertools.permutations(range(n))
                   for p in [np.eye(n)[:, list(perm)]])
        assert family_objective(prob, res.x) <= best + 1e-4

    def test_order_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_qap(np.eye(9), np.eye(9))


class TestBruteForce:
    def test_separable_examples(self):
        assert brute_force_biq(BiqData(Q=np.zeros((2, 2)),
                                       c=np.array([1.0, -1.0]))) == -1.0
        d = BiqData(Q=2.0 * np.eye(3), c=np.full(3, -3.0))
        assert brute_force_biq(d) == -6.0

    def test_refuses_large_n(self):
        with pytest.raises(ValueError, match="n <= 20"):
            brute_force_biq(BiqData(Q=np.zeros((21, 21)), c=np.zeros(21)))

    def test_relaxation_bound_on_random_instance(self):
        d = random_biq(10, 11)
        prob = build_biq(d)
        res = cadmm_solve(prob, SolverConfig(tol=1e-7))
        assert res.status == "Converged"
        assert family_objective(prob, res.x) <= brute_force_biq(d) + 1e-5


class TestDeterminism:
    def test_builders_are_deterministic(self):
        for build in (lambda: build_biq(random_biq(6, 9)),
                      lambda: build_ext_biq(random_biq(5, 9)),
                      lambda: build_theta_plus(random_graph(7, 0.4, 9)),
                      lambda: random_rcp(6, 9),
                      lambda: build_qap(np.eye(3), np.ones((3, 3)))):
            assert problem_to_json(build()) == problem_to_json(build())


class TestReaders:
    def test_biqmac_round_trip_semantics(self, tmp_path):
        # file encodes: maximize x'Rx with R = [[1, 2], [2, -3]]
        path = tmp_path / "toy.sparse"
        path.write_text("2 3\n1 1 1.0\n1 2 2.0\n2 2 -3.0\n")
        d = read_biqmac(path)
        # enumeration agreement: min form value equals -max x'Rx
        r = np.array([[1.0, 2.0], [2.0, -3.0]])
        best = max(x @ r @ x for x in
                   (np.array(b, dtype=float)
                    for b in itertools.product((0, 1), repeat=2)))
        assert brute_force_biq(d) == pytest.approx(-best)

    def test_biqmac_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.sparse"
        path.write_text("2 3\n1 1 1.0\n1 2 2.0\n")
        with pytest.raises(ValueError, match="entry tokens"):
            read_biqmac(path)

    def test_qaplib_round_trip(self, tmp_path):
        path = tmp_path / "toy.dat"
        a = np.arange(4.0).reshape(2, 2)
        b = np.arange(4.0, 8.0).reshape(2, 2)
        body = "2\n" + "\n".join(" ".join(str(v) for v in row) for row in a)
        body += "\n" + "\n".join(" ".join(str(v) for v in row) for row in b)
        path.write_text(body + "\n")
        got_a, got_b = read_qaplib(path)
        assert np.array_equal(got_a, a)
        assert np.array_equal(got_b, b)

    def test_qaplib_token_count(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("2\n1 2 3\n")
        with pytest.raises(ValueError, match="tokens"):
            read_qaplib(path)

    def test_dimacs(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 1 4\n")
        g = read_dimacs(path)
        assert g.n == 4
        assert g.edges == ((0, 1), (0, 3), (1, 2))

    def test_dimacs_count_mismatch(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 4 3\ne 1 2\n")
        with pytest.raises(ValueError, match="mismatch"):
            read_dimacs(path)

    @pytest.mark.parametrize("text, message", [
        ("p edge 3 1\ne 1\n", "line 2: an edge needs two vertices"),
        ("p edge three 1\ne 1 2\n", "line 1: expected integers, got 'three 1'"),
        ("c x\np edge 3 1\ne 1 b\n", "line 3: expected integers, got '1 b'"),
    ])
    def test_dimacs_malformed_line_named(self, tmp_path, text, message):
        path = tmp_path / "g.col"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_dimacs(path)


class TestGaussianAffinity:
    def test_unit_diagonal_and_symmetry(self, rng):
        pts = rng.random((5, 3))
        w = gaussian_affinity(pts, bandwidth=0.8)
        assert np.allclose(np.diag(w), 1.0)
        assert np.allclose(w, w.T)
        assert (w > 0).all() and (w <= 1.0).all()
