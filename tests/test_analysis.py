"""Torus inner products, quadrature, Laplacian eigenvalues, symmetry checks."""
import contextlib
import inspect
import random
import re
import tracemalloc
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from orbitpoly import analysis, chebyshev, orbit_functions as of, weyl
from orbitpoly.exp_ring import exp_sum
from conftest import dominant_weights, forced_break_even, weights
from oracles import (alpha_to_e_point, fold, norm_sq, signed_permutations, sparse_gram,
                     strictly_dominant_weights, torus_inner_product)


class TestTorusInnerProduct:
    def test_c_diagonal_is_orbit_size(self):
        for lam in [(1,), (3,), (1, 0), (2, 2), (1, 0, 2)]:
            s = exp_sum(lam, "C")
            assert torus_inner_product(s, s) == weyl.orbit(lam).size

    def test_c_off_diagonal_vanishes(self):
        a = exp_sum((1, 0), "C")
        b = exp_sum((0, 1), "C")
        assert torus_inner_product(a, b) == 0

    def test_s_diagonal_is_group_order(self):
        for lam in [(2,), (1, 1), (1, 2, 1)]:
            s = exp_sum(lam, "S")
            assert torus_inner_product(s, s) == factorial(len(lam) + 1)

    def test_e_diagonal_counts_even_orbit(self):
        for lam in [(2,), (1, 1), (2, 0)]:
            s = exp_sum(lam, "E")
            assert torus_inner_product(s, s) == len(weyl.orbit(lam).even_points)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            torus_inner_product(exp_sum((1,), "C"), exp_sum((1, 0), "C"))

    @given(dominant_weights(max_rank=3, max_coord=3))
    @settings(max_examples=40, deadline=None)
    def test_distinct_orbits_are_orthogonal(self, lam):
        other = tuple(c + 1 for c in lam)
        a, b = exp_sum(lam, "C"), exp_sum(other, "C")
        assert torus_inner_product(a, b) == 0

    @pytest.mark.parametrize("kind,expected", [
        ("C", "orbit size"), ("S", "3!"), ("E", "even-orbit size"),
    ])
    def test_orthogonality_report(self, kind, expected):
        rep = {r.kind: r for r in analysis.orthogonality_reports(2, 2)}[kind]
        assert rep.passed
        assert rep.max_deviation == 0
        assert rep.expected_diagonal == expected
        assert rep.as_dict()["pairs_tested"] == rep.pairs_tested > 0


def gram_by_pairs(sums: list) -> dict:
    """Every entry (i, j), i <= j, of the exact Gram by the pair loop of
    ``torus_inner_product``, zeros left out: the oracle of ``sparse_gram``."""
    out = {}
    for i, a in enumerate(sums):
        for j in range(i, len(sums)):
            value = torus_inner_product(a, sums[j])
            if value:
                out[i, j] = value
    return out


def family(kind: str, n: int, coord_bound: int) -> list:
    labels = (strictly_dominant_weights if kind == "S" else analysis.dominant_weights)(
        n, coord_bound)
    return [exp_sum(lam, kind) for lam in labels]


class TestSparseGram:
    @pytest.mark.parametrize("n,coord_bound", [(1, 3), (2, 3), (3, 2), (4, 1)])
    @pytest.mark.parametrize("kind", ["C", "S", "E"])
    def test_equals_the_pair_loop(self, kind, n, coord_bound):
        sums = family(kind, n, coord_bound)
        assert sparse_gram(sums) == gram_by_pairs(sums)

    @pytest.mark.parametrize("n_points", [6, 8, 16])
    @pytest.mark.parametrize("n,kind", [(1, "C"), (2, "C"), (2, "S"), (3, "C"), (3, "E")])
    def test_equals_the_pair_loop_on_folded_sums(self, n, kind, n_points):
        # Folding merges weights, so sums meet off the diagonal.
        sums = [fold(s, n_points) for s in family(kind, n, 3)]
        gram = sparse_gram(sums)
        assert gram == gram_by_pairs(sums)
        if n > 1 and n_points < 16:
            assert any(i != j for i, j in gram)

    def test_one_changed_coefficient_changes_the_report(self, monkeypatch):
        # A sign flip keeps every c^2 on disjoint supports, so the exact
        # Gram cannot see one; a changed magnitude shows on the diagonal.
        assert analysis.orthogonality_reports(2, 2)[0].max_deviation == 0
        real = analysis.exp_sum

        def changed(lam, kind):
            s = real(lam, kind)
            if lam == (1, 1):
                s = type(s)(s.rank, {**s.terms, (1, 1): 2})
            return s

        monkeypatch.setattr(analysis, "exp_sum", changed)
        rep = analysis.orthogonality_reports(2, 2)[0]
        assert rep.max_deviation == 3 and not rep.passed  # 5 + 4 against the orbit size 6

    def test_one_flipped_coefficient_changes_the_quadrature_deviation(self, monkeypatch):
        # The prediction reads no exact sum and no grid value, so the sign
        # flipped is one of one label's values at the nodes: it moves the
        # grid Gram away from the prediction.
        labels = analysis.dominant_weights(3, 3)
        assert analysis._quadrature_gram_deviation(labels, 8) < 1e-9
        real = analysis._EVALUATORS["C"]

        def flipped(lam, x, basis):
            values = real(lam, x, basis=basis)
            if lam == (3, 3, 3):
                top = np.argmax(np.abs(values))
                values[top] = -values[top]
            return values

        monkeypatch.setitem(analysis._EVALUATORS, "C", flipped)
        assert analysis._quadrature_gram_deviation(labels, 8) > 1

    def test_a_wrong_folded_stabilizer_changes_the_quadrature_deviation(self, monkeypatch):
        labels = analysis.dominant_weights(3, 3)
        real = analysis._folded_orbit

        def wrong(lam, n_points):
            key, order = real(lam, n_points)
            return key, 2 * order if lam == (1, 0, 1) else order

        monkeypatch.setattr(analysis, "_folded_orbit", wrong)
        assert analysis._quadrature_gram_deviation(labels, 8) > 1

    def test_the_quadrature_cross_check_builds_no_exp_sum(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the cross-check built an ExpSum")

        monkeypatch.setattr(analysis, "exp_sum", must_not_run)
        monkeypatch.setattr(analysis.weyl, "orbit", must_not_run)
        assert analysis._quadrature_gram_deviation(analysis.dominant_weights(3, 3), 8) < 1e-9

    def test_a_diagonal_the_index_never_reaches_counts_as_zero(self, monkeypatch):
        real = analysis.exp_sum
        monkeypatch.setattr(analysis, "exp_sum", lambda lam, kind: (
            type(real(lam, kind))(len(lam), {}) if lam == (2, 1) else real(lam, kind)))
        rep = analysis.orthogonality_reports(2, 2)[1]
        assert rep.max_deviation == factorial(3) and rep.pairs_tested == 10


class TestOrthogonalityWalk:
    def test_a_stray_point_outside_the_box_fails_the_c_report(self, monkeypatch):
        # C_(1,1) trades its point (-1, 2) for (-3, 3), a point of C_(3,0):
        # no sum of the c = 2 family holds (-3, 3), so no pair of the
        # family shares it and a Gram of the family reads all zeros off the
        # diagonal, but the point's dominant weight is not (1, 1).
        assert (-3, 3) in weyl.orbit((3, 0)).points
        real = analysis.exp_sum

        def swapped(lam, kind):
            s = real(lam, kind)
            if lam == (1, 1) and kind == "C":
                terms = {w: c for w, c in s.terms.items() if w != (-1, 2)}
                s = type(s)(s.rank, {**terms, (-3, 3): 1})
            return s

        monkeypatch.setattr(analysis, "exp_sum", swapped)
        rep = analysis.orthogonality_reports(2, 2)[0]
        assert rep.kind == "C" and rep.max_deviation == 1 and not rep.passed

    def test_one_orbit_build_per_label(self, monkeypatch):
        # An orbit cache of 8 points holds one generic rank-2 orbit: the
        # walk builds each of the 16 labels' orbits once for its C, S and E
        # sums, where one pass per kind would build them again.
        small = weyl._bounded_cache(lambda orb: len(orb.points), 8, weyl._orbit_key)(
            weyl.orbit.__wrapped__)
        monkeypatch.setattr(weyl, "orbit", small)
        reports = analysis.orthogonality_reports(2, 3)
        assert all(rep.passed for rep in reports)
        assert small.cache_info().misses == 16


class TestQuadrature:
    def test_matches_exact_diagonal(self):
        assert analysis.quadrature_inner_product("C", (1, 0), (1, 0), 8) == pytest.approx(3)
        assert analysis.quadrature_inner_product("C", (1, 0), (0, 1), 8) == pytest.approx(
            0, abs=1e-12
        )
        assert analysis.quadrature_inner_product("S", (2,), (2,), 8) == pytest.approx(2)

    def test_warns_below_nyquist(self):
        with pytest.warns(analysis.AliasingWarning):
            analysis.quadrature_inner_product("C", (3,), (3,), 6)

    def test_undersampling_demonstrably_aliases(self):
        with pytest.warns(analysis.AliasingWarning):
            value = analysis.quadrature_inner_product("C", (3,), (3,), 6)
        assert value.real == pytest.approx(4.0)  # exact value is 2

    @pytest.mark.parametrize("n_points", [0, -3, 2.5, True, "8", None])
    def test_refuses_a_grid_that_is_not_a_positive_int(self, n_points, monkeypatch):
        monkeypatch.setattr(analysis, "exp_sum", None)  # refused before any sum is built
        with pytest.raises(ValueError, match=re.escape(
                f"n_points must be a positive integer, not {n_points!r}")):
            analysis.quadrature_inner_product("C", (1, 0), (1, 0), n_points)

    def test_refuses_labels_of_unequal_rank(self, monkeypatch):
        monkeypatch.setattr(analysis, "exp_sum", None)
        with pytest.raises(ValueError, match=re.escape("rank mismatch: 2 vs 3")):
            analysis.quadrature_inner_product("C", (1, 0), (1, 0, 0), 8)

    def test_nyquist_bound(self):
        a = exp_sum((3,), "C")
        assert analysis.nyquist_points(a, a) == 7

    @given(dominant_weights(max_rank=2, max_coord=3))
    @settings(max_examples=20, deadline=None)
    def test_exact_above_bound(self, lam):
        s = exp_sum(lam, "C")
        n_points = analysis.nyquist_points(s, s)
        got = analysis.quadrature_inner_product("C", lam, lam, n_points)
        assert got == pytest.approx(torus_inner_product(s, s), abs=1e-9)


class TestFoldedQuadrature:
    def test_grid_gram_is_the_folded_prediction_below_nyquist(self):
        # Rank 3, coordinate bound 3: support bound 9, alias-free from N = 19.
        labels = analysis.dominant_weights(3, 3)
        sums = [exp_sum(w, "C") for w in labels]
        gram = analysis.quadrature_gram([("C", w) for w in labels], 8)
        folded = [fold(s, 8) for s in sums]
        predicted = np.array([[torus_inner_product(a, b) for b in folded]
                              for a in folded])
        exact = np.array([[torus_inner_product(a, b) for b in sums] for a in sums])
        assert np.abs(gram - predicted).max() < 1e-9
        assert np.abs(gram - exact).max() == pytest.approx(72.0)
        assert analysis._quadrature_gram_deviation(labels, 8) < 1e-9

    def test_folding_is_exact_from_nyquist_on(self):
        sums = [exp_sum(w, "C") for w in analysis.dominant_weights(2, 3)]
        n_points = max(analysis.nyquist_points(s, s) for s in sums)
        folded = [fold(s, n_points) for s in sums]
        for a, fa in zip(sums, folded):
            assert len(fa.terms) == len(a.terms)
            for b, fb in zip(sums, folded):
                assert torus_inner_product(fa, fb) == torus_inner_product(a, b)

    def test_fold_predicts_the_aliasing_control(self):
        a = exp_sum((3,), "C")
        with pytest.warns(analysis.AliasingWarning):
            value = analysis.quadrature_inner_product("C", (3,), (3,), 6)
        assert value.real == pytest.approx(
            torus_inner_product(fold(a, 6), fold(a, 6)))

    @pytest.mark.parametrize("n,coord_bound", [
        (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 1), (5, 2)])
    def test_closed_form_is_the_gram_of_the_folds(self, n, coord_bound):
        # Aliased grids included: from N = 1, where every weight folds to 0.
        labels = analysis.dominant_weights(n, coord_bound)
        sums = [exp_sum(lam, "C") for lam in labels]
        for n_points in (1, 2, 3, 4, 5, 6, 7, 16):
            gram = analysis._folded_gram(labels, n_points)
            rows, cols = np.nonzero(np.triu(gram))
            closed = {(int(i), int(j)): int(gram[i, j]) for i, j in zip(rows, cols)}
            assert closed == sparse_gram([fold(s, n_points) for s in sums]), n_points

    def test_folded_stabilizer_counts_the_shifts(self):
        # r = (3, 2, 1, 0) mod 4: every shift permutes r, so |W_a'| is 4, not 1,
        # and C_(1,1,1) folds onto 24/4 = 6 points, 4 times each.
        assert analysis._folded_orbit((1, 1, 1), 4) == ((0, 1, 2, 3), 4)
        assert analysis._folded_gram([(1, 1, 1)], 4)[0, 0] == 6 * 4 * 4 == 4 * 24
        assert analysis._folded_orbit((1, 1, 1), 16) == ((0, 1, 2, 3), 1)

    def test_memory_budget(self):
        # On the W+-orbit nodes rank 4 needs MiB and rank 5 fits; rank 6,
        # 4 096 labels on ~21 000 nodes, does not.  Rank 7 fits at
        # coordinate bound 1 and rank 6 at 2, whose exact walk holds one
        # orbit at a time; rank 8 at 1 does not, for its node values.
        budget = analysis.QUADRATURE_BYTE_BUDGET
        assert analysis.quadrature_bytes(3, 3, 16) < budget
        assert analysis.quadrature_bytes(4, 3, 16) < 64 << 20
        assert analysis.quadrature_bytes(5, 3, 16) < budget
        assert analysis.quadrature_bytes(6, 3, 16) > budget
        assert analysis.quadrature_bytes(7, 1, 16) <= budget
        assert analysis.quadrature_bytes(6, 2, 16) <= budget
        assert analysis.quadrature_bytes(8, 1, 16) > budget
        # Rank 1 runs no grid: its walk's two-point sums, the orbit cache
        # it fills (two points a label), its label list and one chunk.
        assert analysis.quadrature_bytes(1, 3, 16) == (
            450 * 2 + 260 * 2 * 4 + 84 * 4 + 24 * of.CHUNK_CELLS)
        assert analysis.quadrature_bytes(1, 12_000_000, 16) <= budget
        assert analysis.quadrature_bytes(1, 13_000_000, 16) > budget
        with pytest.raises(ValueError, match="GiB"):
            analysis.run_ortho_suite(rank_bound=6)

    @pytest.mark.parametrize("n,c", [(4, 3), (5, 1), (1, 50000)])
    def test_suite_peak_stays_under_the_estimate(self, n, c):
        # Measured 14.3 MiB against 58.4 MiB at (4, 3), 11.9 against 40.0
        # at (5, 1), and 23.1 against 52.8 at (1, 50000) on x86-64 Linux.
        tracemalloc.start()
        try:
            report = analysis.run_ortho_suite(rank_bound=n, coord_bound=c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed, report.render_text()
        assert peak < analysis.quadrature_bytes(n, c, analysis.ORTHO_POINTS)


def torus_grid(n: int, n_points: int) -> np.ndarray:
    """(n_points^n, n) array of the rectangle-rule nodes on [0,1)^n in alpha
    coordinates: the full grid, the oracle of ``analysis.grid_orbits``."""
    axis = np.arange(n_points) / n_points
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def full_grid_gram(sums: list, n_points: int) -> np.ndarray:
    """Rectangle-rule Gram matrix of the sums at every node of the grid."""
    grid = torus_grid(sums[0].rank, n_points)
    values = np.array([s.evaluate(grid) for s in sums])
    return values @ values.conj().T / len(grid)


def residues(e_points: np.ndarray, n_points: int) -> list[tuple[int, ...]]:
    """Integer e-coordinates mod n_points of grid points given as e-points;
    fails on a point off the grid."""
    scaled = e_points * n_points
    k = np.rint(scaled).astype(int)
    assert np.abs(scaled - k).max() < 1e-9, "node off the grid"
    return [tuple(row) for row in k % n_points]


def grid_residues(n: int, n_points: int) -> list[tuple[int, ...]]:
    """The residues of every node of ``torus_grid``."""
    alpha = torus_grid(n, n_points)
    zero = np.zeros((len(alpha), 1))
    return residues(np.hstack([alpha, zero]) - np.hstack([zero, alpha]), n_points)


def even_orbit_key(r: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest rearrangement of r by an even permutation: one key per W+-orbit."""
    return min(tuple(r[i] for i in perm)
               for perm, sign in signed_permutations(tuple(range(len(r)))) if sign > 0)


SMALL_GRIDS = [(1, 1), (1, 2), (1, 5), (1, 6), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
               (2, 7), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 5)]


class TestReducedGrid:
    """``grid_orbits``, one node per W+-orbit weighted by its size, against
    the full grid of ``torus_grid``."""

    @pytest.mark.parametrize("n,n_points", SMALL_GRIDS + [(2, 16), (3, 16), (4, 16)])
    def test_weights_sum_to_the_grid_size(self, n, n_points):
        nodes, sizes = analysis.grid_orbits(n, n_points)
        assert nodes.shape == (len(sizes), n + 1)
        assert np.abs(nodes.sum(axis=1)).max() < 1e-12
        assert sizes.sum() == n_points ** n

    @pytest.mark.parametrize("n,n_points", SMALL_GRIDS)
    def test_one_node_per_even_orbit_weighted_by_its_size(self, n, n_points):
        orbits: dict = {}
        for r in grid_residues(n, n_points):
            key = even_orbit_key(r)
            orbits[key] = orbits.get(key, 0) + 1
        nodes, sizes = analysis.grid_orbits(n, n_points)
        got = {even_orbit_key(r): size for r, size in zip(residues(nodes, n_points), sizes)}
        assert len(got) == len(nodes)
        assert got == orbits

    @pytest.mark.parametrize("n,n_points", SMALL_GRIDS)
    def test_one_node_per_weyl_orbit_weighted_by_its_size(self, n, n_points):
        orbits: dict = {}
        for r in grid_residues(n, n_points):
            key = tuple(sorted(r))
            orbits[key] = orbits.get(key, 0) + 1
        nodes, sizes = analysis.grid_orbits(n, n_points, even=False)
        got = {tuple(sorted(r)): size for r, size in zip(residues(nodes, n_points), sizes)}
        assert len(got) == len(nodes)
        assert got == orbits

    def test_node_counts_at_sixteen_points(self):
        assert [len(analysis.grid_orbits(n, 16)[0]) for n in (2, 3, 4)] == [86, 360, 1242]
        assert [len(analysis.grid_orbits(n, 16, even=False)[0])
                for n in (2, 3, 4)] == [51, 245, 969]
        assert [analysis.grid_orbit_count(n, 16) for n in (2, 3, 4)] == [51, 245, 969]

    @pytest.mark.parametrize("n,n_points", [(n, k) for n in range(1, 5) for k in range(1, 10)
                                            if k ** n <= 5000])
    def test_orbit_count_formula(self, n, n_points):
        w_orbits = {tuple(sorted(r)) for r in grid_residues(n, n_points)}
        assert analysis.grid_orbit_count(n, n_points) == len(w_orbits)
        assert len(analysis.grid_orbits(n, n_points, even=False)[0]) == len(w_orbits)
        assert len(analysis.grid_orbits(n, n_points)[0]) <= 2 * len(w_orbits)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("n_points", [6, 7, 16])
    def test_c_gram_on_weyl_orbits_is_the_even_orbit_gram(self, n, n_points, monkeypatch):
        nodes, sizes = analysis.grid_orbits(n, n_points, even=False)
        assert len(nodes) == len(sizes) == analysis.grid_orbit_count(n, n_points)
        assert sizes.sum() == n_points ** n
        assert np.abs(nodes.sum(axis=1)).max() < 1e-12
        labels = analysis.dominant_weights(n, 2 if n <= 3 else 1)
        nodes, sizes = analysis.grid_orbits(n, n_points)
        values = np.array([of.eval_c(lam, nodes, basis="e") for lam in labels])
        even = (values * sizes) @ values.conj().T / n_points ** n
        real, picked = analysis.grid_orbits, []
        monkeypatch.setattr(analysis, "grid_orbits", lambda n, N, even=True: (
            picked.append(even) or real(n, N, even)))
        gram = analysis.quadrature_gram([("C", lam) for lam in labels], n_points)
        assert picked == [False]
        assert np.abs(gram - even).max() < 1e-12 * factorial(n + 1)

    @pytest.mark.parametrize("n,points", [(1, (3, 6, 16)), (2, (4, 7, 16)), (3, (3, 8, 16))])
    def test_gram_equals_the_full_grid(self, n, points):
        # C and E on walls and off them, S, and E of reflected labels: every
        # sum is W+-invariant, and the generic E sums are not W-invariant.
        labels = analysis.dominant_weights(n, 2)
        functions = [("C", w) for w in labels]
        functions += [("S", w) for w in strictly_dominant_weights(n, 2)]
        functions += [("E", w) for w in labels]
        functions += [("E", weyl.reflect_weight(1, w)) for w in labels if w[0]]
        sums = [exp_sum(w, kind) for kind, w in functions]
        bound = max(analysis.nyquist_points(s, s) for s in sums)
        assert min(points) < bound <= max(points)
        e_only = [i for i, (kind, _) in enumerate(functions) if kind == "E"]
        for n_points in points:
            full = full_grid_gram(sums, n_points)
            reduced = analysis.quadrature_gram(functions, n_points)
            assert np.abs(reduced - full).max() < 1e-11
            reduced = analysis.quadrature_gram([functions[i] for i in e_only], n_points)
            assert np.abs(reduced - full[np.ix_(e_only, e_only)]).max() < 1e-11
            c_only = len(labels)  # the C-functions come first and take the W-orbit nodes
            reduced = analysis.quadrature_gram(functions[:c_only], n_points)
            assert np.abs(reduced - full[:c_only, :c_only]).max() < 1e-11


class TestHyperplaneFrame:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_orthonormal_and_in_hyperplane(self, n, reverse):
        frame = analysis.hyperplane_frame(n, reverse=reverse)
        assert frame.shape == (n, n + 1)
        assert np.allclose(frame @ frame.T, np.eye(n), atol=1e-12)
        assert np.allclose(frame @ np.ones(n + 1), 0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_cached_read_only_and_fresh(self, n, reverse):
        frame = analysis.hyperplane_frame(n, reverse)
        fresh = analysis.hyperplane_frame.__wrapped__(n, reverse)
        assert frame is not fresh and analysis.hyperplane_frame(n, reverse) is frame
        assert not frame.flags.writeable
        assert frame.shape == fresh.shape and frame.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            frame[0, 0] = 0.0


class TestRandomEPoints:
    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_two_stacks(self, m, n):
        # The construction it replaced, on the same seeded stream.
        rng, again = random.Random(404), random.Random(404)
        points = analysis._random_e_points(rng, m, n)
        alpha = np.array([[again.random() for _ in range(n)] for _ in range(m)])
        zero = np.zeros((m, 1))
        stacked = np.hstack([alpha, zero]) - np.hstack([zero, alpha])
        assert points.shape == stacked.shape == (m, n + 1)
        assert points.tobytes() == stacked.tobytes()
        assert rng.getstate() == again.getstate()


def errors_by_draw(kind, lam, rng, points, draws, steps):
    """The per-draw loop: one point drawn and its stencil evaluated at a
    time, until ``points`` of them pass the |f| filter or ``draws`` are
    spent: the oracle of the block path ``_drawn_errors``."""
    n = len(lam)
    size = weyl.orbit_size(lam)
    min_abs = min(0.05 * size, 0.5 * np.sqrt(size))
    factor = 4 * np.pi ** 2 * float(norm_sq(lam))
    frame = analysis.hyperplane_frame(n)
    out = []
    for _ in range(draws):
        alpha = [rng.random() for _ in range(n)]
        point = np.concatenate([alpha, [0.0]]) - np.concatenate([[0.0], alpha])
        stencil = [point] + [point + s * h * frame for h in steps for s in (1, -1)]
        values = analysis._EVALUATORS[kind](lam, np.vstack(stencil), basis="e")
        val = values[0]
        if abs(val) >= min_abs:
            shells = values[1:].reshape(len(steps), 2, n)
            laps = [(plus - 2 * val + minus).sum() / (h * h)
                    for (plus, minus), h in zip(shells, steps)]
            out.append([abs(lap + factor * val) / (factor * abs(val)) for lap in laps])
            if len(out) == points:
                break
    return out


class TestLaplacian:
    def test_rank_one_closed_form(self):
        # 2cos(2*pi*x) has squared-norm label 1/2 in this normalization.
        assert float(norm_sq((1,))) == 0.5
        (err,), = analysis._relative_errors("C", (1,), np.array([[0.2, -0.2]]), (1e-3,))
        assert err < 1e-4

    @given(weights(max_rank=8, min_coord=-10**9, max_coord=10**12))
    def test_float_norm_is_the_rounded_fraction(self, lam):
        assert analysis._norm_sq(lam) == float(norm_sq(lam))

    @pytest.mark.parametrize("draws", [25, 400])
    @pytest.mark.parametrize("kind", ["C", "S", "E"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_blocks_draw_and_keep_what_one_draw_at_a_time_does(self, n, kind, draws):
        # 25 draws run out before 20 points pass at most ranks; 400 do not.
        # E sums the table rows on both sides: left to the cost model, a
        # block's stencils of E(1, 1, 1, 1) expand while one draw's 17 do
        # not, and the two paths' last bits, divided by h^2, differ by more
        # than the 1e-12 compared here.
        steps = (1e-3, 5e-4)
        rng_blocks, rng_loop = random.Random(n), random.Random(n)
        with forced_break_even(float("inf")) if kind == "E" else contextlib.nullcontext():
            got = analysis._drawn_errors(kind, (1,) * n, rng_blocks, 20, draws, steps)
            want = errors_by_draw(kind, (1,) * n, rng_loop, 20, draws, steps)
        assert rng_blocks.getstate() == rng_loop.getstate()
        assert len(got) == len(want) > 0
        assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12

    def test_a2_s_function(self):
        errs = analysis._drawn_errors("S", (1, 1), random.Random(11), 1, 64, (1e-3,))
        assert len(errs) == 1 and errs[0][0] < 1e-4

    def test_h_squared_scaling(self):
        x = np.asarray(alpha_to_e_point((0.23, 0.61)))
        (e1, e2), = analysis._relative_errors("C", (1, 1), x[None], (1e-3, 5e-4))
        assert 3.0 <= e1 / e2 <= 5.0

    def test_degenerate_points_report_none(self, monkeypatch):
        # No point passes the |f| filter: every label reports one failed
        # check with no error figures, and the frame check still runs.
        monkeypatch.setattr(analysis, "_relative_errors", lambda *args: [])
        monkeypatch.setattr(analysis, "LAPLACE_POINTS", 2)
        report = analysis.run_laplace_suite(rank_bound=1)
        assert not report.passed
        assert [(c.name, c.passed, c.detail) for c in report.checks[:-1]] == [
            (f"A1 {name} eigenvalue", False, "all points degenerate")
            for name in ("C_1", "S_1", "E_1", "C_2")]
        assert report.checks[-1].passed

    @pytest.mark.parametrize("lam", [(1,), (1, 1), (2, 0, 1), (1, 1, 1)])
    def test_default_threshold_below_rank_four_is_linear(self, lam):
        # Orbits of <= 100 points keep the bound 0.05 |W lam|.
        size = weyl.orbit_size(lam)
        points = analysis._random_e_points(random.Random(2), 40, len(lam))
        for kind in ("C", "E"):
            values = analysis._EVALUATORS[kind](lam, points, basis="e")
            kept = len(analysis._relative_errors(kind, lam, points, (1e-3,)))
            assert kept == np.count_nonzero(np.abs(values) >= 0.05 * size)

    @pytest.mark.parametrize("kind", ["C", "S", "E"])
    def test_large_orbits_find_a_point(self, kind):
        # |f| of 8! unit phases is ~200, far below 0.05 * 8! = 2016.
        errs = analysis._drawn_errors(kind, (1,) * 7, random.Random(5), 1, 40, (1e-3,))
        assert len(errs) == 1 and errs[0][0] < 1e-4

    def test_frame_choice_is_irrelevant(self):
        lam = (1, 1)
        x = np.asarray(alpha_to_e_point((0.19, 0.41)))
        out = [analysis._fd_block("C", lam, x[None], (1e-3,), analysis.hyperplane_frame(2, rev))
               [1][0, 0] for rev in (False, True)]
        scale = 4 * np.pi**2 * float(norm_sq(lam)) * abs(of.eval_c(lam, x, basis="e"))
        assert abs(out[0] - out[1]) < 1e-4 * scale

    def test_frame_check_takes_one_point_in_two_frames(self, monkeypatch):
        # The suite's frame check is two one-row blocks at the same drawn
        # point, in the default frame and in the reversed one.
        seen = []
        block = analysis._fd_block

        def recorded(kind, lam, x_e, steps, frame=None):
            seen.append((x_e, frame))
            return block(kind, lam, x_e, steps, frame)

        monkeypatch.setattr(analysis, "_drawn_errors", lambda *args: [[1e-6, 2.5e-7]])
        monkeypatch.setattr(analysis, "_fd_block", recorded)
        report = analysis.run_laplace_suite(rank_bound=2)
        (x1, f1), (x2, f2) = seen
        assert x1.shape == (1, 3) and np.array_equal(x1, x2)
        assert f1 is None and np.array_equal(f2, analysis.hyperplane_frame(2, reverse=True))
        assert report.checks[-1].passed


class TestSymmetrySuite:
    def test_a2_rho_passes(self):
        rep = analysis.symmetry_suite((1, 1))
        assert rep.passed
        assert rep.scale == 6

    def test_a1_sign_flip_directly(self):
        x = 0.3
        assert of.eval_s((3,), (-x,)) == pytest.approx(-of.eval_s((3,), (x,)), abs=1e-12)

    def test_zero_weight_trivial(self, monkeypatch):
        monkeypatch.setattr(analysis, "SYMMETRY_TRIALS", 5)
        rep = analysis.symmetry_suite((0, 0))
        assert rep.passed

    @pytest.mark.parametrize("lam", [(1, 2), (0, 2, 0), (1, 1, 1, 1, 1)])
    def test_e_deviation_is_measured(self, lam, monkeypatch):
        # E at the permuted points is a different sum over the same orbit:
        # rounding shows, where comparing E with itself would read 0.
        monkeypatch.setattr(analysis, "SYMMETRY_TRIALS", 20)
        assert analysis.symmetry_suite(lam).max_e_dev > 0

    def test_odd_row_in_the_even_table_fails(self, monkeypatch):
        """One odd arrangement swapped into the E rows breaks the even
        element invariance from rank 2 on; at rank 1 the single even row and
        the single odd one are exchanged by r_1, so nothing can see it."""
        # Every call sums its table, where the odd row is: a batch of 20
        # points at rank 5 would otherwise take the column expansion.  The
        # fresh cache holds the altered tables, so none outlives the check.
        monkeypatch.setattr(analysis, "SYMMETRY_TRIALS", 20)
        with forced_break_even(float("inf")) as tables:
            real = tables.__wrapped__

            def odd_row(key):
                weights, coeffs = real(key)
                dom, kind, basis = key
                if kind == "E" and 0 not in dom:
                    whole, signs = of._tables((dom, "S", basis))
                    weights = np.vstack([weights[:-1], whole[signs < 0][:1]])
                return weights, coeffs

            with mock.patch.object(of, "_tables", weyl._bounded_cache(
                    of._entry_rows, of.TABLE_ROW_BOUND)(odd_row)):
                for n in range(2, 6):
                    assert not analysis.symmetry_suite((1,) * n).passed, n
                assert analysis.symmetry_suite((1,)).passed
                assert not analysis.run_symmetry_suite(rank_bound=3).passed
        assert analysis.run_symmetry_suite(rank_bound=3).passed

    def test_report_dict_carries_seed(self, monkeypatch):
        monkeypatch.setattr(analysis, "SYMMETRY_TRIALS", 3)
        rep = analysis.symmetry_suite((1, 1), seed=99)
        data = rep.as_dict()
        assert data["seed"] == 99 and data["trials"] == 3
        assert data["passed"]


class TestSuiteRunners:
    def test_ortho(self):
        report = analysis.run_ortho_suite(rank_bound=2, coord_bound=2)
        assert report.passed

    def test_laplace(self, monkeypatch):
        monkeypatch.setattr(analysis, "LAPLACE_POINTS", 6)
        report = analysis.run_laplace_suite(rank_bound=2)
        assert report.passed

    @pytest.mark.parametrize("suite", [*analysis.SUITES, "all"])
    @pytest.mark.parametrize("bounds,message", [
        ({"rank_bound": 0}, "rank bound must lie in 1..8"),
        ({"rank_bound": 9}, "rank bound must lie in 1..8"),
        ({"coord_bound": 0}, "coordinate bound must be >= 1"),
        ({"coord_bound": -2}, "coordinate bound must be >= 1"),
        ({"rank_bound": 2.5}, "rank bound must lie in 1..8"),
        ({"rank_bound": True}, "rank bound must lie in 1..8"),
        ({"coord_bound": 1.5}, "coordinate bound must be >= 1"),
        ({"coord_bound": True}, "coordinate bound must be >= 1"),
        ({"seed": -1}, "seed must be a non-negative integer, not -1"),
        ({"seed": 1.5}, "seed must be a non-negative integer, not 1.5"),
        ({"seed": "7"}, "seed must be a non-negative integer, not '7'"),
        ({"seed": True}, "seed must be a non-negative integer, not True"),
    ])
    def test_bounds_refused_before_any_work(self, suite, bounds, message, monkeypatch):
        # A suite that ignores a bound refuses a bad one too.
        def must_not_run(**kwargs):
            raise AssertionError("suite work started before the refusal")

        for name in analysis.SUITES:
            monkeypatch.setitem(analysis.SUITES, name, must_not_run)
        with pytest.raises(ValueError, match=re.escape(message)):
            analysis.run_suite(suite, **bounds)

    def test_laplace_at_rank_eight(self):
        # Every rank-7 and rank-8 label finds points above the magnitude
        # filter; their orbits are evaluated by the column expansion.
        report = analysis.run_laplace_suite(rank_bound=8)
        assert report.passed, report.render_text()

    @pytest.mark.parametrize("seed", [2, 4, 32])
    def test_laplace_bound_follows_the_truncation_term(self, seed):
        # Each seed draws a rank 6-8 label whose error exceeds 1e-4 yet stays
        # within its truncation term; every rank <= 3 row keeps 1e-4.
        report = analysis.run_laplace_suite(rank_bound=8, seed=seed)
        assert report.passed, report.render_text()
        rows = [c for c in report.checks if "relative error" in c.name]
        over = {c.name[:2] for c in rows if float(c.detail.split()[1]) > 1e-4}
        assert over and over <= {"A6", "A7", "A8"}
        assert all(" < 1e-4 at " in c.name for c in rows if c.name[:2] in ("A1", "A2", "A3"))

    def test_laplace_fails_a_tenth_of_a_percent_eigenvalue_error_at_every_rank(self, monkeypatch):
        norm_sq = analysis._norm_sq
        monkeypatch.setattr(analysis, "_norm_sq", lambda lam: 1.001 * norm_sq(lam))
        report = analysis.run_laplace_suite(rank_bound=8)
        failed = {c.name[:2] for c in report.checks
                  if "relative error" in c.name and not c.passed}
        assert failed == {f"A{n}" for n in range(1, 9)}

    def test_symmetry(self, monkeypatch):
        monkeypatch.setattr(analysis, "SYMMETRY_TRIALS", 25)
        report = analysis.run_symmetry_suite(rank_bound=2, coord_bound=2)
        assert report.passed

    @pytest.mark.parametrize("n,c,seed", [(3, 3, 1729), (2, 5, 7), (4, 2, 3), (3, 1, 1729)])
    def test_symmetry_labels_are_the_pool_draw(self, n, c, seed, monkeypatch):
        # The draw as it was: two entries of the whole c^k pool, by the same rng.
        rng = random.Random(seed)
        names = []
        for k in range(1, n + 1):
            pool = strictly_dominant_weights(k, c)
            idx = rng.sample(range(len(pool)), min(2, len(pool)))
            lams = {(1,) * k, *(pool[i] for i in idx), (c,) + (0,) * (k - 1)}
            names += [f"A{k} symmetry at {lam}" for lam in sorted(lams)]
        monkeypatch.setattr(analysis, "SYMMETRY_TRIALS", 3)
        report = analysis.run_symmetry_suite(rank_bound=n, coord_bound=c, seed=seed)
        assert [check.name for check in report.checks] == names

    def test_symmetry_at_a_pool_too_large_to_build(self, monkeypatch):
        # 20^8 labels, far too many to build: two are drawn by index.
        monkeypatch.setattr(analysis, "SYMMETRY_TRIALS", 3)
        report = analysis.run_symmetry_suite(rank_bound=8, coord_bound=20)
        assert report.passed, report.render_text()
        assert report.checks[-1].name.startswith("A8 symmetry at ")
        with pytest.raises(ValueError, match="int64"):
            analysis.run_symmetry_suite(rank_bound=8, coord_bound=300)

    def test_chebyshev(self):
        assert analysis.run_chebyshev_suite().passed

    def test_chebyshev_identity_row_checks_the_package(self, monkeypatch):
        # A first-kind step one multiplicity too high at (7,) must fail the
        # identity row too, not only the closed-form row: the identities are
        # checked on poly_t and poly_u themselves.
        step = chebyshev._orbit_terms

        def off_by_one(lam, j, mu):
            terms = step(lam, j, mu)
            return [(nu, mult + 1) for nu, mult in terms] if lam == (7,) else terms

        monkeypatch.setattr(chebyshev, "_orbit_terms", off_by_one)
        monkeypatch.setattr(chebyshev, "_T_MEMO", {})
        rows = {c.name: c.passed for c in analysis.run_chebyshev_suite().checks}
        assert rows == {
            "T-polynomials reduce to doubled first kind, m=1..20": False,
            "T at m=0 is the unit (distinct-point normalization)": True,
            "U-polynomials reduce to second kind, m=0..20": True,
            "classical identity suite exact, m<= 20": False,
            "fixed low-degree coefficient tables": True,
        }

    def test_detforms(self, monkeypatch):
        monkeypatch.setattr(analysis, "DETFORMS_SAMPLES", 25)
        report = analysis.run_detforms_suite(rank_bound=2)
        assert report.passed

    def test_detforms_at_rank_seven(self, monkeypatch):
        # Each form sums 8! unit exponentials: the bound scales with (n+1)!.
        monkeypatch.setattr(analysis, "DETFORMS_SAMPLES", 1)
        report = analysis.run_detforms_suite(rank_bound=7)
        assert report.passed, report.render_text()

    def test_detforms_memory_estimate(self, monkeypatch):
        # A label's batch of P points holds at most one chunk, never its
        # P * (n+1)!/2 alternating-form terms or the permanent's Ryser row
        # sums over the 2^m - 1 column subsets (m = n+1), plus per point an
        # m^2 complex allowance and a few per-point results.
        monkeypatch.setattr(of, "CHUNK_CELLS", 1 << 14)
        lam, m, count = (1, 2, 1, 1, 1, 1), 7, 400
        rng = random.Random(3)
        xs = np.array([analysis._random_e_points(rng, 1, 6)[0] for _ in range(count)])
        analysis._form_deviations(lam, xs[:3])  # the cached tables are not transients
        tracemalloc.start()
        try:
            devs = analysis._form_deviations(lam, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(devs.values()) < 1e-9 * factorial(m)
        per_point = 16 * m * m + 16 * 8
        assert peak <= 32 * of.CHUNK_CELLS + count * per_point
        assert peak < count * (factorial(m) // 2) * 24  # one shot's kernel terms

    def test_detforms_evaluates_once_per_label(self, monkeypatch):
        calls, drawn = {}, set()
        for name in ("d_plus", "d_minus", "d_alt", "eval_c", "eval_s", "eval_e"):
            def counted(*args, _f=getattr(of, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                if _name == "eval_s":
                    drawn.add(args[0])
                return _f(*args, **kwargs)
            monkeypatch.setattr(of, name, counted)
        monkeypatch.setattr(analysis, "DETFORMS_SAMPLES", 6)
        report = analysis.run_detforms_suite(rank_bound=3, coord_bound=3, seed=4)
        assert report.passed
        # Replay the suite's draws: a rank's labels, then their points, then
        # the wall's points.  Six samples a rank leave most of the 3 + 9 + 27
        # labels undrawn, so only the suite's own draw order finds its set.
        rng = random.Random(4)
        labels = set()
        for n in range(1, 4):
            labels.update(tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(6))
            for _ in range((6 + 10 * (n >= 2)) * n):  # the samples' points, then the wall's
                rng.random()
        assert len(labels) < 3 + 9 + 27
        assert drawn == labels  # eval_s takes every drawn label, and only those
        per_label = dict.fromkeys(("d_plus", "d_minus", "d_alt", "eval_c"), len(labels) + 2)
        assert calls == {**per_label, "eval_s": len(labels), "eval_e": len(labels)}

    def test_run_suite_dispatch(self):
        reports = analysis.run_suite("chebyshev")
        assert len(reports) == 1 and reports[0].passed
        with pytest.raises(ValueError):
            analysis.run_suite("nope")

    @pytest.mark.parametrize("name", list(analysis.SUITES))
    def test_run_suite_passes_the_same_keywords_to_every_suite(self, name):
        params = inspect.signature(analysis.SUITES[name]).parameters
        assert list(params)[:3] == ["rank_bound", "coord_bound", "seed"]
        kwargs = dict(rank_bound=2, coord_bound=2, seed=5)
        assert analysis.run_suite(name, **kwargs) == [analysis.SUITES[name](**kwargs)]

    @pytest.mark.parametrize("function,names", [
        *[(suite, ["rank_bound", "coord_bound", "seed"]) for suite in analysis.SUITES.values()],
        (analysis.symmetry_suite, ["lam", "seed", "tolerance"]),
    ])
    def test_suites_take_only_their_bounds_and_seed(self, function, names):
        # Sample sizes, steps and tolerances are module constants, so no
        # caller can shrink a suite to a check of nothing.
        assert list(inspect.signature(function).parameters) == names

    def test_run_suite_keeps_suite_defaults(self):
        assert analysis.run_suite("detforms", seed=5) == [analysis.run_detforms_suite(seed=5)]

    def test_reports_render(self):
        report = analysis.run_chebyshev_suite()
        text = report.render_text()
        assert "PASS" in text and "suite chebyshev" in text
        assert report.as_dict()["passed"] is True
