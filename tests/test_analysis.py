"""Torus inner products, quadrature, Laplacian eigenvalues, symmetry checks."""
import inspect
import re
import tracemalloc
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from orbitpoly import analysis, chebyshev, lie, orbit_functions as of, weyl
from orbitpoly.exp_ring import exp_sum
from conftest import dominant_weights, forced_break_even, weights
from oracles import alpha_to_e_point, fold, signed_permutations


class TestTorusInnerProduct:
    def test_c_diagonal_is_orbit_size(self):
        for lam in [(1,), (3,), (1, 0), (2, 2), (1, 0, 2)]:
            s = exp_sum(lam, "C")
            assert analysis.torus_inner_product(s, s) == weyl.orbit(lam).size

    def test_c_off_diagonal_vanishes(self):
        a = exp_sum((1, 0), "C")
        b = exp_sum((0, 1), "C")
        assert analysis.torus_inner_product(a, b) == 0

    def test_s_diagonal_is_group_order(self):
        for lam in [(2,), (1, 1), (1, 2, 1)]:
            s = exp_sum(lam, "S")
            assert analysis.torus_inner_product(s, s) == factorial(len(lam) + 1)

    def test_e_diagonal_counts_even_orbit(self):
        for lam in [(2,), (1, 1), (2, 0)]:
            s = exp_sum(lam, "E")
            assert analysis.torus_inner_product(s, s) == len(weyl.orbit(lam).even_points)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            analysis.torus_inner_product(exp_sum((1,), "C"), exp_sum((1, 0), "C"))

    @given(dominant_weights(max_rank=3, max_coord=3))
    @settings(max_examples=40, deadline=None)
    def test_distinct_orbits_are_orthogonal(self, lam):
        other = tuple(c + 1 for c in lam)
        a, b = exp_sum(lam, "C"), exp_sum(other, "C")
        assert analysis.torus_inner_product(a, b) == 0

    @pytest.mark.parametrize("kind,expected", [
        ("C", "orbit size"), ("S", "3!"), ("E", "even-orbit size"),
    ])
    def test_orthogonality_report(self, kind, expected):
        rep = analysis.orthogonality_report(kind, 2, 2)
        assert rep.passed
        assert rep.max_deviation == 0
        assert rep.expected_diagonal == expected
        assert rep.as_dict()["pairs_tested"] == rep.pairs_tested > 0


def gram_by_pairs(sums: list) -> dict:
    """Every entry (i, j), i <= j, of the exact Gram by the pair loop of
    ``torus_inner_product``, zeros left out: the oracle of ``_sparse_gram``."""
    out = {}
    for i, a in enumerate(sums):
        for j in range(i, len(sums)):
            value = analysis.torus_inner_product(a, sums[j])
            if value:
                out[i, j] = value
    return out


def family(kind: str, n: int, coord_bound: int) -> list:
    labels = (analysis.strictly_dominant_weights if kind == "S" else analysis.dominant_weights)(
        n, coord_bound)
    return [exp_sum(lam, kind) for lam in labels]


class TestSparseGram:
    @pytest.mark.parametrize("n,coord_bound", [(1, 3), (2, 3), (3, 2), (4, 1)])
    @pytest.mark.parametrize("kind", ["C", "S", "E"])
    def test_equals_the_pair_loop(self, kind, n, coord_bound):
        sums = family(kind, n, coord_bound)
        assert analysis._sparse_gram(sums) == gram_by_pairs(sums)

    @pytest.mark.parametrize("n_points", [6, 8, 16])
    @pytest.mark.parametrize("n,kind", [(1, "C"), (2, "C"), (2, "S"), (3, "C"), (3, "E")])
    def test_equals_the_pair_loop_on_folded_sums(self, n, kind, n_points):
        # Folding merges weights, so sums meet off the diagonal.
        sums = [fold(s, n_points) for s in family(kind, n, 3)]
        gram = analysis._sparse_gram(sums)
        assert gram == gram_by_pairs(sums)
        if n > 1 and n_points < 16:
            assert any(i != j for i, j in gram)

    def test_one_changed_coefficient_changes_the_report(self, monkeypatch):
        # A sign flip keeps every c^2 on disjoint supports, so the exact
        # Gram cannot see one; a changed magnitude shows on the diagonal.
        assert analysis.orthogonality_report("C", 2, 2).max_deviation == 0
        real = analysis.exp_sum

        def changed(lam, kind):
            s = real(lam, kind)
            if lam == (1, 1):
                s = type(s)(s.rank, {**s.terms, (1, 1): 2})
            return s

        monkeypatch.setattr(analysis, "exp_sum", changed)
        rep = analysis.orthogonality_report("C", 2, 2)
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
        rep = analysis.orthogonality_report("S", 2, 2)
        assert rep.max_deviation == factorial(3) and rep.pairs_tested == 10


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

    def test_nyquist_bound(self):
        a = exp_sum((3,), "C")
        assert analysis.nyquist_points(a, a) == 7

    @given(dominant_weights(max_rank=2, max_coord=3))
    @settings(max_examples=20, deadline=None)
    def test_exact_above_bound(self, lam):
        s = exp_sum(lam, "C")
        n_points = analysis.nyquist_points(s, s)
        got = analysis.quadrature_inner_product("C", lam, lam, n_points)
        assert got == pytest.approx(analysis.torus_inner_product(s, s), abs=1e-9)


class TestFoldedQuadrature:
    def test_grid_gram_is_the_folded_prediction_below_nyquist(self):
        # Rank 3, coordinate bound 3: support bound 9, alias-free from N = 19.
        labels = analysis.dominant_weights(3, 3)
        sums = [exp_sum(w, "C") for w in labels]
        gram = analysis.quadrature_gram([("C", w) for w in labels], 8)
        folded = [fold(s, 8) for s in sums]
        predicted = np.array([[analysis.torus_inner_product(a, b) for b in folded]
                              for a in folded])
        exact = np.array([[analysis.torus_inner_product(a, b) for b in sums] for a in sums])
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
                assert analysis.torus_inner_product(fa, fb) == analysis.torus_inner_product(a, b)

    def test_fold_predicts_the_aliasing_control(self):
        a = exp_sum((3,), "C")
        with pytest.warns(analysis.AliasingWarning):
            value = analysis.quadrature_inner_product("C", (3,), (3,), 6)
        assert value.real == pytest.approx(
            analysis.torus_inner_product(fold(a, 6), fold(a, 6)))

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
            assert closed == analysis._sparse_gram([fold(s, n_points) for s in sums]), n_points

    def test_folded_stabilizer_counts_the_shifts(self):
        # r = (3, 2, 1, 0) mod 4: every shift permutes r, so |W_a'| is 4, not 1,
        # and C_(1,1,1) folds onto 24/4 = 6 points, 4 times each.
        assert analysis._folded_orbit((1, 1, 1), 4) == ((0, 1, 2, 3), 4)
        assert analysis._folded_gram([(1, 1, 1)], 4)[0, 0] == 6 * 4 * 4 == 4 * 24
        assert analysis._folded_orbit((1, 1, 1), 16) == ((0, 1, 2, 3), 1)

    def test_memory_budget(self):
        # On the W+-orbit nodes rank 4 needs MiB and rank 5 fits; rank 6,
        # 4 096 labels on ~21 000 nodes, does not.  Charged real orbit
        # sizes, rank 7 fits at coordinate bound 1; rank 6 at 2 does not.
        budget = analysis.QUADRATURE_BYTE_BUDGET
        assert analysis.quadrature_bytes(3, 3, 16) < budget
        assert analysis.quadrature_bytes(4, 3, 16) < 64 << 20
        assert analysis.quadrature_bytes(5, 3, 16) < budget
        assert analysis.quadrature_bytes(6, 3, 16) > budget
        assert analysis.quadrature_bytes(7, 1, 16) <= budget
        assert analysis.quadrature_bytes(6, 2, 16) > budget
        # Rank 1 runs no grid: only its exact reports and one chunk count.
        assert analysis.quadrature_bytes(1, 3, 16) == (
            240 * max(analysis._exact_terms(1, 3)) + 480 * 4 + 24 * of.CHUNK_CELLS)
        assert analysis.quadrature_bytes(1, 1_000_000, 16) <= budget
        assert analysis.quadrature_bytes(1, 1_100_000, 16) > budget
        with pytest.raises(ValueError, match="GiB"):
            analysis.run_ortho_suite(rank_bound=6)

    def test_exact_terms_are_the_brute_force_sums(self):
        for n in range(1, 6):
            for c in range(1, 4):
                c_terms = sum(weyl.orbit_size(lam) for lam in analysis.dominant_weights(n, c))
                s_terms = len(analysis.strictly_dominant_weights(n, c)) * factorial(n + 1)
                assert analysis._exact_terms(n, c) == (c_terms, s_terms), (n, c)

    @pytest.mark.parametrize("n,c", [(4, 3), (5, 1), (1, 50000)])
    def test_suite_peak_stays_under_the_estimate(self, n, c):
        # Measured 17.2 MiB against 54.7 MiB at (4, 3), 12.0 against 35.1
        # at (5, 1), and 60.6 against 69.8 at (1, 50000), where charging
        # the terms alone gave 46.9, on x86-64 Linux.
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
        functions += [("S", w) for w in analysis.strictly_dominant_weights(n, 2)]
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
        rng, again = np.random.default_rng(404), np.random.default_rng(404)
        points = analysis._random_e_points(rng, m, n)
        alpha = again.random((m, n))
        zero = np.zeros((m, 1))
        stacked = np.hstack([alpha, zero]) - np.hstack([zero, alpha])
        assert points.shape == stacked.shape == (m, n + 1)
        assert points.tobytes() == stacked.tobytes()
        assert rng.bit_generator.state == again.bit_generator.state


def errors_by_draw(kind, lam, rng, points, draws, steps, upfront=False, x=None):
    """The per-draw loop: one point drawn and its stencil evaluated at a
    time, until ``points`` of them pass the |f| filter or ``draws`` are
    spent (with ``upfront``, x first if given and every draw made before
    any evaluation, as ``laplacian_eigenvalue_check`` takes them): the
    oracle of the block path."""
    n = len(lam)
    size = weyl.orbit_size(lam)
    min_abs = min(0.05 * size, 0.5 * np.sqrt(size))
    factor = 4 * np.pi ** 2 * float(lie.norm_sq(lam))
    frame = analysis.hyperplane_frame(n)

    def draw():
        alpha = rng.random(n)
        return np.concatenate([alpha, [0.0]]) - np.concatenate([[0.0], alpha])

    candidates = (draw() for _ in range(draws))
    if upfront:
        candidates = ([] if x is None else [np.asarray(x, dtype=float)]) + list(candidates)
    out = []
    for point in candidates:
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
        assert float(lie.norm_sq((1,))) == 0.5
        err = analysis.laplacian_eigenvalue_check(
            "C", (1,), x=np.array([0.2, -0.2]), h=1e-3
        )
        assert err is not None and err < 1e-4

    @given(weights(max_rank=8, min_coord=-10**9, max_coord=10**12))
    def test_float_norm_is_the_rounded_fraction(self, lam):
        assert analysis._norm_sq(lam) == float(lie.norm_sq(lam))

    def test_zero_weight_is_harmonic(self):
        assert analysis.laplacian_eigenvalue_check("C", (0, 0)) == 0.0

    @pytest.mark.parametrize("draws", [25, 400])
    @pytest.mark.parametrize("kind", ["C", "S"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_blocks_draw_and_keep_what_one_draw_at_a_time_does(self, n, kind, draws):
        # 25 draws run out before 20 points pass at most ranks; 400 do not.
        steps = (1e-3, 5e-4)
        rng_blocks, rng_loop = np.random.default_rng(n), np.random.default_rng(n)
        got = analysis._drawn_errors(kind, (1,) * n, rng_blocks, 20, draws, steps)
        want = errors_by_draw(kind, (1,) * n, rng_loop, 20, draws, steps)
        assert rng_blocks.bit_generator.state == rng_loop.bit_generator.state
        assert len(got) == len(want) > 0
        assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12

    @pytest.mark.parametrize("kind,lam", [("C", (1, 1)), ("S", (1, 2, 1)), ("E", (1,) * 4),
                                          ("S", (1,) * 5)])
    @pytest.mark.parametrize("given_x", [False, True])
    def test_check_takes_the_first_passing_draw_of_its_block(self, kind, lam, given_x):
        # Both sides sum the table rows.  Left to the cost model, a block's
        # 270 stencil points of E(1, 1, 1, 1) expand while one draw's 9 do
        # not, and the two paths' last bits, divided by h^2, differ by more
        # than the 1e-12 compared here.
        x = np.asarray(alpha_to_e_point([0.37] * len(lam))) if given_x else None
        rng_block, rng_loop = np.random.default_rng(4), np.random.default_rng(4)
        with forced_break_even(float("inf")):
            got = analysis.laplacian_eigenvalue_check(kind, lam, x=x, rng=rng_block, retries=30)
            want = errors_by_draw(kind, lam, rng_loop, 1, 30, (1e-3,), upfront=True, x=x)
        assert rng_block.bit_generator.state == rng_loop.bit_generator.state
        assert got == pytest.approx(want[0][0], abs=1e-12)

    def test_a2_s_function(self):
        rng = np.random.default_rng(11)
        err = analysis.laplacian_eigenvalue_check("S", (1, 1), h=1e-3, rng=rng)
        assert err is not None and err < 1e-4

    def test_h_squared_scaling(self):
        x = np.asarray(alpha_to_e_point((0.23, 0.61)))
        e1 = analysis.laplacian_eigenvalue_check("C", (1, 1), x=x, h=1e-3)
        e2 = analysis.laplacian_eigenvalue_check("C", (1, 1), x=x, h=5e-4)
        assert e1 is not None and e2 is not None
        assert 3.0 <= e1 / e2 <= 5.0

    def test_degenerate_points_report_none(self):
        # An impossible magnitude threshold forces every retry to fail.
        err = analysis.laplacian_eigenvalue_check("C", (1,), min_abs=1e9, retries=3)
        assert err is None

    @pytest.mark.parametrize("lam", [(1,), (1, 1), (2, 0, 1), (1, 1, 1)])
    def test_default_threshold_below_rank_four_is_linear(self, lam):
        # Orbits of <= 100 points keep the bound 0.05 |W lam|.
        size = weyl.orbit_size(lam)
        for kind in ("C", "E"):
            default = analysis.laplacian_eigenvalue_check(kind, lam, rng=np.random.default_rng(2))
            linear = analysis.laplacian_eigenvalue_check(kind, lam, rng=np.random.default_rng(2),
                                                         min_abs=0.05 * size)
            assert default == linear

    @pytest.mark.parametrize("kind", ["C", "S", "E"])
    def test_large_orbits_find_a_point(self, kind):
        # |f| of 8! unit phases is ~200, far below 0.05 * 8! = 2016.
        err = analysis.laplacian_eigenvalue_check(kind, (1,) * 7, rng=np.random.default_rng(5),
                                                  retries=40)
        assert err is not None and err < 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_seven_s_finds_a_point_with_the_default_retries(self, seed):
        # |S_rho| is a product of 28 sines: at rank 7 only ~1 draw in 8
        # passes the filter, so S draws more points than C and E by default.
        err = analysis.laplacian_eigenvalue_check("S", (1,) * 7, rng=np.random.default_rng(seed))
        assert err is not None and err < 1e-4

    def test_frame_choice_is_irrelevant(self):
        lam = (1, 1)
        x = np.asarray(alpha_to_e_point((0.19, 0.41)))
        out = []
        for rev in (False, True):
            frame = analysis.hyperplane_frame(2, reverse=rev)
            out.append(analysis.fd_laplacian("C", lam, x, 1e-3, frame=frame))
        scale = 4 * np.pi**2 * float(lie.norm_sq(lam)) * abs(of.eval_c(lam, x, basis="e"))
        assert abs(out[0] - out[1]) < 1e-4 * scale

    def test_step_guard(self):
        with pytest.raises(ValueError):
            analysis.laplacian_eigenvalue_check("C", (1,), h=0.5)


class TestSymmetrySuite:
    def test_a2_rho_passes(self):
        rep = analysis.symmetry_suite((1, 1), trials=100)
        assert rep.passed
        assert rep.scale == 6

    def test_a1_sign_flip_directly(self):
        x = 0.3
        assert of.eval_s((3,), (-x,)) == pytest.approx(-of.eval_s((3,), (x,)), abs=1e-12)

    def test_zero_weight_trivial(self):
        rep = analysis.symmetry_suite((0, 0), trials=5)
        assert rep.passed

    @pytest.mark.parametrize("lam", [(1, 2), (0, 2, 0), (1, 1, 1, 1, 1)])
    def test_e_deviation_is_measured(self, lam):
        # E at the permuted points is a different sum over the same orbit:
        # rounding shows, where comparing E with itself would read 0.
        assert analysis.symmetry_suite(lam, trials=20).max_e_dev > 0

    def test_odd_row_in_the_even_table_fails(self):
        """One odd arrangement swapped into the E rows breaks the even
        element invariance from rank 2 on; at rank 1 the single even row and
        the single odd one are exchanged by r_1, so nothing can see it."""
        # Every call sums its table, where the odd row is: a batch of 20
        # points at rank 5 would otherwise take the column expansion.  The
        # fresh cache holds the altered tables, so none outlives the check.
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
                    assert not analysis.symmetry_suite((1,) * n, trials=20).passed, n
                assert analysis.symmetry_suite((1,), trials=20).passed
                assert not analysis.run_symmetry_suite(rank_bound=3, trials=20).passed
        assert analysis.run_symmetry_suite(rank_bound=3, trials=20).passed

    def test_report_dict_carries_seed(self):
        rep = analysis.symmetry_suite((1, 1), trials=3, seed=99)
        data = rep.as_dict()
        assert data["seed"] == 99
        assert data["passed"]


class TestSuiteRunners:
    def test_ortho(self):
        report = analysis.run_ortho_suite(rank_bound=2, coord_bound=2)
        assert report.passed

    def test_laplace(self):
        report = analysis.run_laplace_suite(rank_bound=2, points=6)
        assert report.passed

    def test_laplace_at_rank_eight(self):
        # Every rank-7 and rank-8 label finds points above the magnitude
        # filter; their orbits are evaluated by the column expansion.
        report = analysis.run_laplace_suite(rank_bound=8)
        assert report.passed, report.render_text()

    def test_symmetry(self):
        report = analysis.run_symmetry_suite(rank_bound=2, coord_bound=2, trials=25)
        assert report.passed

    @pytest.mark.parametrize("n,c,seed", [(3, 3, 1729), (2, 5, 7), (4, 2, 3), (3, 1, 1729)])
    def test_symmetry_labels_are_the_pool_draw(self, n, c, seed):
        # The draw as it was: two entries of the whole c^k pool, by the same rng.
        rng = np.random.default_rng(seed)
        names = []
        for k in range(1, n + 1):
            pool = analysis.strictly_dominant_weights(k, c)
            idx = rng.choice(len(pool), size=min(2, len(pool)), replace=False)
            lams = {(1,) * k, *(pool[i] for i in idx), (c,) + (0,) * (k - 1)}
            names += [f"A{k} symmetry at {lam}" for lam in sorted(lams)]
        with mock.patch.object(analysis, "strictly_dominant_weights",
                               side_effect=AssertionError("the label pool was built")):
            report = analysis.run_symmetry_suite(rank_bound=n, coord_bound=c, seed=seed, trials=3)
        assert [check.name for check in report.checks] == names

    def test_symmetry_at_a_pool_too_large_to_build(self):
        # 20^8 labels: two are drawn by index, the pool is never built.
        with mock.patch.object(analysis, "strictly_dominant_weights",
                               side_effect=AssertionError("the label pool was built")):
            report = analysis.run_symmetry_suite(rank_bound=8, coord_bound=20, trials=3)
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

    def test_detforms(self):
        report = analysis.run_detforms_suite(rank_bound=2, samples=25)
        assert report.passed

    def test_detforms_at_rank_seven(self):
        # Each form sums 8! unit exponentials: the bound scales with (n+1)!.
        report = analysis.run_detforms_suite(rank_bound=7, samples=1)
        assert report.passed, report.render_text()

    def test_detforms_memory_estimate(self, monkeypatch):
        # A label's batch of P points holds at most one chunk, never its
        # P * (n+1)!/2 alternating-form terms or the permanent's Ryser row
        # sums over the 2^m - 1 column subsets (m = n+1), plus per point an
        # m^2 complex allowance and a few per-point results.
        monkeypatch.setattr(of, "CHUNK_CELLS", 1 << 14)
        lam, m, count = (1, 2, 1, 1, 1, 1), 7, 400
        rng = np.random.default_rng(3)
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
        report = analysis.run_detforms_suite(rank_bound=3, coord_bound=3, samples=6, seed=4)
        assert report.passed
        # Replay the suite's draws: a rank's labels, then their points, then
        # the wall's points.  Six samples a rank leave most of the 3 + 9 + 27
        # labels undrawn, so only the suite's own draw order finds its set.
        rng = np.random.default_rng(4)
        labels = set()
        for n in range(1, 4):
            labels.update(map(tuple, rng.integers(1, 4, size=(6, n)).tolist()))
            rng.random((6, n))
            if n >= 2:
                rng.random((10, n))
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

    def test_run_suite_keeps_suite_defaults(self):
        assert analysis.run_suite("detforms", seed=5) == [analysis.run_detforms_suite(seed=5)]

    def test_reports_render(self):
        report = analysis.run_chebyshev_suite()
        text = report.render_text()
        assert "PASS" in text and "suite chebyshev" in text
        assert report.as_dict()["passed"] is True
