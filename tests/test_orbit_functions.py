"""Numeric orbit-function values, their symmetries, and the permanent /
determinant / alternating exponential forms."""
import cmath
import itertools
import re
import tracemalloc
import warnings
from fractions import Fraction
from math import cos, factorial, inf, pi, prod, sin

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
import hypothesis.strategies as st

from orbitpoly import cli, exp_ring, lie, orbit_functions as of, weyl
from orbitpoly.exp_ring import exp_sum
from conftest import dominant_weights, forced_break_even, strict_weights
from oracles import (alpha_to_e_point, omega_to_e, omega_to_e_matrix, ryser_permanent,
                     signed_permutations)

RNG = np.random.default_rng(20259)


def permanent_naive(a: np.ndarray) -> complex:
    """Permanent by direct expansion over all permutations: the independent
    oracle for the inclusion-exclusion path."""
    total = 0j
    for perm, _ in signed_permutations(tuple(range(a.shape[0]))):
        prod = 1.0 + 0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return complex(total)


def d_alt_loop(l, x) -> complex:
    """The alternating form as one exponential per even permutation summed
    in a loop: the independent oracle for the kernel path."""
    total = 0j
    for perm, sign in signed_permutations(tuple(range(len(l)))):
        if sign == 1:
            total += cmath.exp(2j * pi * sum(l[i] * x[j] for i, j in enumerate(perm)))
    return total


def e_point(rng, n):
    return np.asarray(alpha_to_e_point(rng.random(n)), dtype=float)


class TestRankOneClosedForms:
    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    @pytest.mark.parametrize("x", [0.0, 0.1, 0.37, 0.9])
    def test_c_is_doubled_cosine(self, m, x):
        expect = 2 * cos(2 * pi * m * x) if m else 1.0
        assert of.eval_c((m,), (x,)) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("x", [0.1, 0.37, 0.9])
    def test_s_is_doubled_imaginary_sine(self, m, x):
        assert of.eval_s((m,), (x,)) == pytest.approx(2j * sin(2 * pi * m * x), abs=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_e_is_plain_exponential(self, m):
        x = 0.21
        assert of.eval_e((m,), (x,)) == pytest.approx(cmath.exp(2j * pi * m * x), abs=1e-12)


class TestValuesAtSpecialPoints:
    @pytest.mark.parametrize("lam", [(1,), (2, 0), (1, 1), (2, 1, 0)])
    def test_c_at_origin_counts_orbit(self, lam):
        x = (0.0,) * len(lam)
        assert of.eval_c(lam, x) == pytest.approx(weyl.orbit(lam).size)

    @pytest.mark.parametrize("lam", [(1,), (1, 1), (2, 1, 1)])
    def test_s_vanishes_at_origin(self, lam):
        x = (0.0,) * len(lam)
        assert of.eval_s(lam, x) == pytest.approx(0.0, abs=1e-12)

    def test_e_of_zero_weight_is_one(self):
        assert of.eval_e((0, 0), (0.3, 0.8)) == pytest.approx(1.0)

    def test_a2_fundamental_at_third(self):
        # Three orbit exponentials summed directly.
        x = (1 / 3, 1 / 3)
        expect = sum(
            cmath.exp(2j * pi * (mu[0] * x[0] + mu[1] * x[1]))
            for mu in [(1, 0), (-1, 1), (0, -1)]
        )
        assert of.eval_c((1, 0), x) == pytest.approx(expect, abs=1e-12)


class TestDomainHandling:
    def test_c_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            of.eval_c((1, -1), (0.1, 0.2))

    def test_s_on_wall_returns_zero_with_warning(self):
        with pytest.warns(of.NonGenericWeightWarning):
            value = of.eval_s((1, 0), (0.123, 0.456))
        assert value == 0j

    def test_s_on_wall_checks_its_point(self):
        with pytest.raises(ValueError, match="length 2"):
            of.eval_s((1, 0), (0.1,) * 5)
        with pytest.raises(ValueError):
            of.eval_s((1, 0), "ab")
        with pytest.raises(ValueError, match="length 3"):
            of.eval_s((1, 0), (0.1, 0.2), basis="e")

    def test_s_on_wall_batch_is_zeros_with_one_warning(self):
        with pytest.warns(of.NonGenericWeightWarning) as caught:
            values = of.eval_s((1, 0), np.full((4, 2), 0.3))
        assert len(caught) == 1
        assert values.shape == (4,) and values.tolist() == [0j] * 4

    def test_s_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            of.eval_s((-1, 2), (0.1, 0.2))

    def test_e_accepts_reflected_labels(self):
        x = (0.11, 0.29)
        assert of.eval_e((-1, 2), x) == pytest.approx(of.eval_e((1, 1), x))

    def test_basis_entry_points_agree(self):
        lam = (2, 1)
        x = (0.17, 0.62)
        xe = alpha_to_e_point(x)
        assert of.eval_c(lam, xe, basis="e") == pytest.approx(of.eval_c(lam, x))
        assert of.eval_s(lam, xe, basis="e") == pytest.approx(of.eval_s(lam, x))

    def test_e_point_shift_along_ones_is_irrelevant(self):
        lam = (1, 1)
        xe = np.array(alpha_to_e_point((0.2, 0.5)))
        shifted = xe + 0.77
        assert of.eval_c(lam, shifted, basis="e") == pytest.approx(
            of.eval_c(lam, xe, basis="e")
        )


def batch_labels(kind, n, rng):
    """A few labels of one kind at rank n; reflected labels for E."""
    low = 1 if kind == "S" else 0
    labels = [tuple(int(c) for c in rng.integers(low, 3, size=n)) for _ in range(3)]
    if kind == "E":
        labels += [weyl.reflect_weight(int(rng.integers(1, n + 1)), lam) for lam in labels]
    return labels


class TestBatches:
    @pytest.mark.parametrize("kind", ["C", "S", "E"])
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("basis", ["alpha", "e"])
    @pytest.mark.parametrize("m", [1, 7])
    def test_batch_matches_the_per_point_loop(self, kind, n, basis, m):
        f = {"C": of.eval_c, "S": of.eval_s, "E": of.eval_e}[kind]
        rng = np.random.default_rng(100 * n + m)
        xs = rng.random((m, n)) * 4 - 2
        if basis == "e":
            xs = np.array([alpha_to_e_point(row) for row in xs]) + rng.random((m, 1))
        for lam in batch_labels(kind, n, rng):
            values = f(lam, xs, basis=basis)
            assert isinstance(values, np.ndarray) and values.shape == (m,)
            loop = [f(lam, row, basis=basis) for row in xs]
            size = weyl.orbit_size(weyl.dominant_representative(lam)[0])
            assert np.abs(values - loop).max() <= 1e-12 * size
            assert all(type(v) is complex for v in loop)


class TestWeightRows:
    @pytest.mark.parametrize("lam", [(1, 2, 1, 1, 2, 1), (2, 1, 3), (1, 0, 2, 0, 1), (0, 3, 0), (5,)])
    @pytest.mark.parametrize("basis", ["alpha", "e"])
    def test_bitwise_equal_to_the_array_route(self, lam, basis):
        # Generic labels have S rows too; wall labels only C and E.
        n = len(lam)
        for kind in ("C", "S", "E") if lie.is_strictly_dominant(lam) else ("C", "E"):
            weights = list(exp_sum(lam, kind).terms)
            rows = np.array(weights, dtype=float).reshape(len(weights), n)
            if basis == "e":
                rows = rows @ np.array(omega_to_e_matrix(n), dtype=float).T
            got = of.weight_rows(weights, n, basis)
            assert got.dtype == rows.dtype and got.shape == rows.shape
            assert got.tobytes() == rows.tobytes()

    def test_empty(self):
        assert of.weight_rows((), 3, "alpha").shape == (0, 3)
        assert of.weight_rows((), 3, "e").shape == (0, 4)


def exact_table(lam, kind, basis):
    """The exact path: the terms of exp_sum(lam, kind), in order, as rows
    through weight_rows and their coefficients as floats."""
    s = exp_sum(lam, kind)
    return (of.weight_rows(list(s.terms), len(lam), basis),
            np.array(list(s.terms.values()), dtype=float))


@pytest.fixture
def tables():
    """The module's table cache, emptied before and after the test."""
    of._tables.cache_clear()
    yield of._tables
    of._tables.cache_clear()


def table(lam, kind, basis):
    """(weights, coefficients) of lam's table entry, built whatever the
    label's size; None coefficients (C and E) are the unit ones, as floats."""
    with forced_break_even(float("inf")):
        weights, coeffs = of._tables((lam, kind, basis))
    return weights, np.ones(len(weights)) if coeffs is None else coeffs


def assert_tables_match_the_exact_path(lam):
    for basis in ("alpha", "e"):
        for kind in ("C", "S", "E") if lie.is_strictly_dominant(lam) else ("C", "E"):
            for got, want in zip(table(lam, kind, basis), exact_table(lam, kind, basis)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        if not lie.is_strictly_dominant(lam):
            # S is never summed on a wall, but its signs keep the orbit's
            # convention: the parity of each point's stable descending sort.
            signs = table(lam, "S", basis)[1]
            assert signs.tolist() == list(weyl.orbit(lam).signs)


def hexes(values) -> list[tuple[str, str]]:
    """Every bit of a complex value or array, as float.hex pairs."""
    return [(z.real.hex(), z.imag.hex()) for z in np.atleast_1d(values).tolist()]


def assert_bits_match_exp_sum(lam, rng, points=None):
    """eval_c/s/e of lam (every reflected label too for E) at one point, or
    a batch of ``points``, in both bases, give ``exp_sum(lam,
    kind).evaluate``'s bits."""
    n = len(lam)
    for basis, width in (("alpha", n), ("e", n + 1)):
        x = rng.random(width if points is None else (points, width)) * 4 - 2
        for kind in ("C", "S", "E") if all(lam) else ("C", "E"):
            want = hexes(exp_sum(lam, kind).evaluate(x, basis=basis))
            labels = {lam}
            if kind == "E":
                labels |= {weyl.reflect_weight(i, lam) for i in range(1, n + 1)}
            for label in labels:
                assert hexes(EVALUATORS[kind](label, x, basis=basis)) == want, (label, kind, basis)


class TestTableBits:
    """A call that sums its table gives ``ExpSum.evaluate``'s value bit for
    bit, as the README says: every one-point call up to rank 5 and every
    batch up to rank 3 (``TABLE_FLOOR_ROWS``)."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_one_point_at_every_label_of_a_box(self, n):
        rng = np.random.default_rng(n)
        for lam in itertools.product(range(3), repeat=n):
            assert_bits_match_exp_sum(lam, rng)

    @pytest.mark.parametrize("points", [1, 3, 17])
    @pytest.mark.parametrize("n", range(1, 4))
    def test_batches_up_to_rank_three(self, n, points):
        rng = np.random.default_rng(10 * n + points)
        for lam in itertools.product(range(3), repeat=n):
            assert_bits_match_exp_sum(lam, rng, points)


class TestOmegaToE:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cached_float_matrix_is_read_only_and_fresh(self, n):
        matrix = of._omega_to_e(n)
        fresh = np.array(omega_to_e_matrix(n), dtype=float)
        assert not matrix.flags.writeable
        assert matrix.shape == fresh.shape == (n + 1, n)
        assert matrix.tobytes() == fresh.tobytes()
        assert of._omega_to_e(n) is matrix

    def test_e_rows_match_the_fraction_matrix(self):
        rows = RNG.integers(-3, 4, size=(7, 4)).astype(float)
        fresh = rows @ np.array(omega_to_e_matrix(4), dtype=float).T
        assert of._in_basis(rows, "e").tobytes() == fresh.tobytes()


class TestOrbitTables:
    """``_tables`` builds the rows from ``weyl``'s arrangement templates;
    ``weyl.orbit`` and ``exp_sum`` are the exact path it must equal bit for
    bit."""

    @pytest.mark.parametrize("lam", [(1,) * 7, (2, 1, 1, 3, 1, 2, 1), (1, 0, 2, 0, 1, 1, 0),
                                     (0,) * 7, (0, 3, 0), (5,), (0,)])
    def test_fixed_labels(self, lam):
        assert_tables_match_the_exact_path(lam)

    @given(dominant_weights(max_rank=7, max_coord=2))
    @settings(max_examples=40, deadline=None)
    def test_random_labels(self, lam):
        assert_tables_match_the_exact_path(lam)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_zero_pattern(self, n):
        # Every pattern of zero coordinates is its own template; hypothesis
        # samples only a few of the 254 at ranks 1-7.
        for zeros in itertools.product((False, True), repeat=n):
            assert_tables_match_the_exact_path(
                tuple(0 if zero else 1 + i % 3 for i, zero in enumerate(zeros)))

    @pytest.mark.parametrize("m", range(1, 10))
    def test_permutation_table(self, m):
        # The arrangements of m distinct values are the permutation table.
        rows, parities = weyl._arrangements((1,) * m)
        perms = [tuple(rows[i:i + m]) for i in range(0, len(rows), m)]
        assert perms == list(itertools.permutations(range(m)))  # m! rows, lexicographic
        # A permutation's parity is the sign of its arrangement of descending values.
        assert [1 - 2 * parity for parity in parities] == [
            weyl.stable_sort_sign([-i for i in row]) for row in perms]

    def test_eval_builds_no_orbit(self, monkeypatch, tables):
        calls = []
        monkeypatch.setattr(exp_ring, "exp_sum", lambda *args: calls.append(args))
        before = weyl.orbit.cache_info()
        for lam in [(1, 2, 1, 1, 3, 1), (2, 0, 1, 1, 0, 3), (1, 1, 2, 1, 1, 2, 1),
                    (3, 1, 0, 2, 1, 1, 1)]:
            x = RNG.random((2, len(lam)))
            of.eval_c(lam, x)
            of.eval_e(lam, x)
            of.eval_e(weyl.reflect_weight(1, lam), x[0], basis="alpha")
            if lie.is_strictly_dominant(lam):
                of.eval_s(lam, x)
        after = weyl.orbit.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert calls == []
        # The rank-7 labels expand: only the rank-6 ones hold table rows.
        assert {dom for (dom, _, _), (weights, _) in tables.entries.items()
                if weights is not None} <= {(1, 2, 1, 1, 3, 1), (2, 0, 1, 1, 0, 3)}

    def test_products_build_no_orbit(self):
        before = weyl.orbit.cache_info()
        for n in range(1, 9):
            # At rank 8 the smaller orbit, (0,1,0,1,0,1,0,1)'s, has 22 680 points.
            a, b = tuple(1 + i % 2 for i in range(n)), tuple(i % 2 for i in range(n))
            for x, y in [(a, b), (b, a), (b, b)]:
                exp_ring.orbit_product(x, y)
        result = CliRunner().invoke(cli.main, ["decompose", "-a", "2,1,2,1", "-b", "0,1,0,1"])
        assert result.exit_code == 0 and "C_(2, 2, 2, 2)" in result.output
        after = weyl.orbit.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits, before.misses, before.currsize)

    def test_cache_holds_at_most_its_bound(self):
        assert of.TABLE_ROW_BOUND >= 5 * factorial(9) // 2 + 3 * of.TABLE_ENTRY_ROWS
        rng = np.random.default_rng(77)
        labels = list(dict.fromkeys(tuple(rng.integers(1, 4, size=7).tolist()) for _ in range(25)))
        labels.insert(10, (1, 0, 2, 0, 1, 1, 0))
        with forced_break_even(float("inf")) as tables:
            for lam in labels:
                for kind in ("C", "E"):
                    of._tables((lam, kind, "alpha"))
                    recount = sum(len(weights) + of.TABLE_ENTRY_ROWS
                                  for weights, _ in tables.entries.values())
                    assert tables.cache_info().held == recount <= of.TABLE_ROW_BOUND
            kept = list(dict.fromkeys(dom for dom, _, _ in tables.entries))
        assert 1 < len(kept) < len(labels) and kept == labels[-len(kept):]

    def test_kinds_share_rows(self):
        lam, wall = (2, 1, 3), (2, 0, 1)
        for basis in ("alpha", "e"):
            assert of._tables((lam, "S", basis))[0] is of._tables((lam, "C", basis))[0]
            assert all(e is c for e, c in zip(of._tables((wall, "E", basis)),
                                              of._tables((wall, "C", basis))))


def every_label_expands():
    """Every label takes the column expansion, whatever its size."""
    return forced_break_even(1)


def expands(dom, kind, points=1):
    """Whether ``eval_*`` evaluates ``exp_sum(dom, kind)`` of a dominant dom
    at ``points`` points by the column expansion: from the break-even of
    ``_costs`` on."""
    return points >= of._costs(dom, kind)[0]


EVALUATORS = {"C": of.eval_c, "S": of.eval_s, "E": of.eval_e}


def kernel_products(lam, kind) -> int:
    """The products the expansion of kind runs a point, counted from the
    label's Glynn plan: (n+1) * T * (d + 1) for C and for E on a chamber
    wall, one LU of (n+1)^3 / 3 for S, both for a generic E."""
    p = lie.suffix_sums(lam)
    distinct = sorted(set(p), reverse=True)
    terms = len(of._glynn_plan(tuple(map(p.count, distinct)))[1])
    glynn, lu = len(p) * terms * (len(distinct) + 1), len(p) ** 3 // 3
    return {"C": glynn, "S": lu}.get(kind, glynn + lu if len(distinct) == len(p) else glynn)


def labels_of_rank(low, high, max_coord=2):
    """Dominant labels of rank low..high, about half of them strictly
    dominant and half drawn with chamber walls allowed."""
    return st.integers(low, high).flatmap(lambda n: st.one_of(
        st.tuples(*[st.integers(1, max_coord)] * n),
        st.tuples(*[st.integers(0, max_coord)] * n)))


def assert_matches_exp_sum(lam, rng, points=3):
    """eval_c/s/e of lam (a reflected label too for E) against the exact
    path ``exp_sum(lam, kind).evaluate``, at one point and at a batch, in
    both bases, within 1e-12 * |W lam|."""
    n = len(lam)
    size = weyl.orbit_size(lam)
    xs = rng.random((points, n)) * 4 - 2
    x_e = np.array([alpha_to_e_point(row) for row in xs]) + rng.random((points, 1))
    for kind in ("C", "S", "E") if lie.is_strictly_dominant(lam) else ("C", "E"):
        want = exp_sum(lam, kind).evaluate(xs)
        labels = [lam, weyl.reflect_weight(int(rng.integers(1, n + 1)), lam)] if kind == "E" else [lam]
        for label in labels:
            for basis, x in (("alpha", xs), ("e", x_e)):
                got = EVALUATORS[kind](label, x, basis=basis)
                assert np.abs(got - want).max() <= 1e-12 * size
                assert abs(EVALUATORS[kind](label, x[0], basis=basis) - want[0]) <= 1e-12 * size


class TestColumnExpansion:
    """Large orbits are evaluated column by column over value multisets;
    ``exp_sum(lam, kind).evaluate`` (the exact orbit) and the permanent and
    determinant forms are its oracles."""

    @given(labels_of_rank(5, 7))
    @settings(max_examples=30, deadline=None)
    def test_forced_on_every_label_matches_exp_sum(self, lam):
        with every_label_expands():
            assert_matches_exp_sum(lam, np.random.default_rng(sum(lam)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_multiplicity_pattern_matches_exp_sum(self, n):
        # The {0, 1}^n labels hold every multiplicity pattern of rank n
        # once, so Glynn's sum runs with every grouping of equal rows.
        rng = np.random.default_rng(n)
        with every_label_expands():
            for lam in itertools.product((0, 1), repeat=n):
                assert_matches_exp_sum(lam, rng)

    def test_every_rank_eight_pattern_matches_ryser(self):
        # exp_sum would build 7.1 M orbit points over the 256 patterns of
        # rank 8; Ryser's permanent of exp(2*pi*i p_j y_k) over the
        # stabilizer order is C, the LU determinant S.
        rng = np.random.default_rng(8)
        with every_label_expands():
            for lam in itertools.product((0, 1), repeat=8):
                x = rng.random((3, 8)) * 4 - 2
                y = np.diff(x, prepend=0, append=0)  # the column coordinates
                p = np.array(lie.suffix_sums(lam), dtype=float)
                a = np.exp(2j * np.pi * p[:, None] * y[:, None, :])
                want = {"C": ryser_permanent(a) / weyl.stabilizer_order(lam)}
                want["E"] = want["C"]
                if all(lam):
                    want["S"] = np.linalg.det(a)
                    want["E"] = (want["C"] + want["S"]) / 2
                size = weyl.orbit_size(lam)
                for kind, values in want.items():
                    assert np.abs(EVALUATORS[kind](lam, x) - values).max() <= 1e-12 * size
                    assert abs(EVALUATORS[kind](lam, x[0]) - values[0]) <= 1e-12 * size

    @given(labels_of_rank(6, 7))
    @settings(max_examples=25, deadline=None)
    def test_chosen_path_matches_exp_sum(self, lam):
        assert_matches_exp_sum(lam, np.random.default_rng(len(lam)))

    @pytest.mark.parametrize("lam", [(1, 0, 0, 2, 0, 0, 1), (3, 0, 0, 0, 0, 0, 0), (0,) * 6,
                                     (1, 0, 1, 0, 1, 0, 1), (2, 1, 1, 3, 1, 2, 1)])
    def test_forced_walls_count_each_point_once(self, lam):
        with every_label_expands():
            # At the origin every distinct orbit point contributes 1.
            assert of.eval_c(lam, (0.0,) * len(lam)) == pytest.approx(weyl.orbit_size(lam),
                                                                    abs=1e-9)
            assert_matches_exp_sum(lam, np.random.default_rng(3), points=2)

    @pytest.mark.parametrize("lam", [(1,) * 8, (2, 1, 3, 1, 1, 2, 1, 1), (1, 0, 2, 1, 0, 0, 3, 1),
                                     (0, 2, 0, 0, 1, 0, 0, 0)])
    def test_rank_eight_against_the_forms(self, lam):
        assert expands(lam, "C")
        rng = np.random.default_rng(8)
        l_e = np.array([float(v) for v in omega_to_e(lam)])
        xs = np.array([e_point(rng, 8) for _ in range(3)])
        size = weyl.orbit_size(lam)
        c = of.eval_c(lam, xs, basis="e")
        assert np.abs(c - of.d_plus(l_e, xs) / weyl.stabilizer_order(lam)).max() <= 1e-12 * size
        if lie.is_strictly_dominant(lam):
            s = of.eval_s(lam, xs, basis="e")
            assert np.abs(s - of.d_minus(l_e, xs)).max() <= 1e-12 * size
            e = of.eval_e(lam, xs[0], basis="e")
            assert abs(e - (c[0] + s[0]) / 2) <= 1e-12 * size

    def test_values_outlive_the_scratch(self):
        # The expansion reuses one scratch array; eval_* return copies.
        rng = np.random.default_rng(4)
        x, y = rng.random((40, 7)), rng.random((40, 7))
        batch, one = of.eval_c((1,) * 7, x), of.eval_c((1,) * 7, x[0])
        kept = batch.copy(), complex(one)
        of.eval_c((2, 1, 3, 1, 1, 2, 1), y)
        of.eval_e((1, 2, 1, 2, 1, 2, 1), y[0])
        assert np.array_equal(batch, kept[0]) and complex(one) == kept[1]

    def test_threads_keep_their_own_scratch(self):
        # More threads than cores, switching often: a scratch array shared
        # between threads would mix one label's states into another's.
        import sys
        import threading
        labels = [(1,) * 7, (2, 1, 3, 1, 1, 2, 1), (1, 0, 2, 1, 0, 0, 3), (3, 1, 1, 1, 2, 1, 1),
                  (1, 2, 1, 2, 1, 2, 1), (2, 0, 1, 1, 0, 1, 2)]
        x = np.random.default_rng(5).random((200, 7))
        expected = [of.eval_c(lam, x) for lam in labels]
        got = [[] for _ in labels]

        def run(i):
            for _ in range(5):
                got[i].append(of.eval_c(labels[i], x))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(labels))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, values in zip(expected, got):
            assert len(values) == 5 and all(np.array_equal(v, want) for v in values)

    def test_no_label_of_rank_five_or_less_expands(self):
        # Labels with coordinates 0 and 1 cover every pattern of chamber
        # walls, so every multiplicity of the suffix sums.
        for n in range(1, 6):
            for lam in itertools.product((0, 1), repeat=n):
                kinds = ("C", "S", "E") if all(lam) else ("C", "E")
                assert not any(expands(lam, kind) for kind in kinds)

    def test_one_point_chooses_as_the_label_alone_did(self):
        # The single-point rule before batches counted: the table up to
        # EXPANSION_BASE_ROWS rows and up to that plus the products / 128.
        def by_label(lam, kind):
            p = lie.suffix_sums(lam)
            generic = len(set(p)) == len(p)
            rows = weyl.orbit_size(lam) // (2 if kind == "E" and generic else 1)
            if rows <= 720:
                return False
            return rows > 720 + Fraction(kernel_products(lam, kind), 128)

        for n in range(1, 9):
            for lam in itertools.product((0, 1), repeat=n):
                for kind in ("C", "S", "E") if all(lam) else ("C", "E"):
                    assert expands(lam, kind) == expands(lam, kind, 1) == by_label(lam, kind)

    def test_break_even_solves_the_cost_model(self):
        # The products counted from the multiplicities are the kernel's,
        # and the cached break-even batch is where the two costs cross.
        for n in range(4, 8):
            for lam in itertools.product((0, 1), repeat=n):
                for kind in ("C", "S", "E") if all(lam) else ("C", "E"):
                    break_even, rows, per_point, exps = of._costs(lam, kind)
                    if rows <= of.TABLE_FLOOR_ROWS:
                        assert not expands(lam, kind, 10 ** 6)
                        continue
                    work = kernel_products(lam, kind)
                    assert per_point * of.PRODUCTS_PER_ROW == work
                    # The cost difference is linear in m: checking both sides
                    # of the cached break-even checks every m.
                    near = () if break_even == float("inf") else (break_even - 1, break_even)
                    for m in {1, 2, 10 ** 4, *near} - {0}:
                        cheaper = Fraction(m * rows) > (of.EXPANSION_BASE_ROWS
                                                        + m * Fraction(work, of.PRODUCTS_PER_ROW) + (m - 1) * exps)
                        assert expands(lam, kind, m) == cheaper

    @pytest.mark.parametrize("n", range(1, 9))
    def test_generic_e_sums_a_table_only_where_c_does(self, n):
        # A generic E's and S's table entries read the C entry's rows, so C
        # must not expand at one point where E or S does not; the break-even
        # of a generic label depends on its rank alone.
        assert expands((1,) * n, "E") or not expands((1,) * n, "C")
        assert expands((1,) * n, "S") or not expands((1,) * n, "C")

    def test_no_label_of_rank_three_or_less_expands_at_any_batch(self):
        for n in range(1, 4):
            for lam in itertools.product((0, 1), repeat=n):
                for kind in ("C", "S", "E") if all(lam) else ("C", "E"):
                    assert not any(expands(lam, kind, m) for m in (1, 2, 10, 1000, 10 ** 5))

    @pytest.mark.parametrize("kind,lam", [("C", (1, 2, 1, 3)), ("S", (2, 1, 1, 1)),
                                          ("C", (1, 0, 2, 1)), ("C", (1, 2, 1, 1, 2)),
                                          ("S", (1, 1, 3, 1, 1)), ("E", (2, 1, 1, 1, 1)),
                                          ("E", (1, 0, 1, 1, 2))])
    def test_quadrature_batches_of_rank_four_and_five_expand(self, kind, lam):
        # Each label gets the ortho suite's N=16 grid as one batch.
        n = len(lam)
        nodes = [1242, 3896][n - 4]
        assert expands(lam, kind, nodes) and not expands(lam, kind)
        rng = np.random.default_rng(n)
        x = np.array([e_point(rng, n) for _ in range(nodes)])
        got = EVALUATORS[kind](lam, x, basis="e")
        want = exp_sum(lam, kind).evaluate(x, basis="e")
        assert np.abs(got - want).max() <= 1e-12 * weyl.orbit_size(lam)
        assert not np.array_equal(got, want)  # the expansion, not the table, gave them

    @pytest.mark.parametrize("lam", [(1,) * 6, (1,) * 7, (2, 1, 0, 1, 1, 0, 1), (1,) * 8])
    def test_large_orbits_expand(self, lam):
        kinds = ("C", "S", "E") if lie.is_strictly_dominant(lam) else ("C", "E")
        assert all(expands(lam, kind) for kind in kinds)

    def test_expanding_label_holds_no_table(self, tables):
        lam = (2, 1, 1, 3, 1, 2, 1)
        x = RNG.random((3, 7))
        for f in EVALUATORS.values():
            f(lam, x)
            f(lam, x[0], basis="alpha")
        # The one-point calls hold an entry each, without rows.
        assert set(tables.entries) == {(lam, kind, "alpha") for kind in EVALUATORS}
        assert all(entry == (None, None) for entry in tables.entries.values())
        assert tables.cache_info().held == 3 * of.TABLE_ENTRY_ROWS

    def test_overflowing_phases_raise(self):
        with np.errstate(over="ignore", invalid="ignore"):
            for f in EVALUATORS.values():
                with pytest.raises(ValueError, match="non-finite value"):
                    f((1,) * 7, (1e308,) * 7)
                with pytest.raises(ValueError, match=r"non-finite value at the point \(1e\+308"):
                    f((1,) * 7, np.vstack([np.full(7, 1e308), np.zeros(7)]))

    def test_bad_points_raise(self):
        lam = (1,) * 7
        with pytest.raises(ValueError, match="length 7"):
            of.eval_c(lam, (0.1,) * 6)
        with pytest.raises(ValueError, match="length 8"):
            of.eval_s(lam, np.zeros((2, 7)), basis="e")
        with pytest.raises(ValueError, match="unknown basis"):
            of.eval_e(lam, (0.1,) * 7, basis="omega")


class TestIdentities:
    @given(strict_weights())
    @settings(max_examples=30, deadline=None)
    def test_e_is_half_c_plus_s(self, lam):
        x = tuple(RNG.random(len(lam)))
        lhs = of.eval_e(lam, x)
        rhs = (of.eval_c(lam, x) + of.eval_s(lam, x)) / 2
        assert lhs == pytest.approx(rhs, abs=1e-12 * weyl.orbit(lam).size)

    @given(strict_weights(max_rank=3, max_coord=3))
    @settings(max_examples=30, deadline=None)
    def test_conjugation_under_negation(self, lam):
        x = tuple(RNG.random(len(lam)))
        neg = tuple(-v for v in x)
        assert of.eval_c(lam, neg) == pytest.approx(of.eval_c(lam, x).conjugate(), abs=1e-12)
        assert of.eval_s(lam, neg) == pytest.approx(of.eval_s(lam, x).conjugate(), abs=1e-12)

    @given(strict_weights(max_rank=3, max_coord=2))
    @settings(max_examples=20, deadline=None)
    def test_formal_sum_evaluation_matches(self, lam):
        x = tuple(RNG.random(len(lam)))
        for kind, f in (("C", of.eval_c), ("S", of.eval_s), ("E", of.eval_e)):
            assert exp_sum(lam, kind).evaluate(x) == pytest.approx(f(lam, x), abs=1e-11)


class TestPermanent:
    def test_all_ones(self):
        for m in range(1, 6):
            assert of.permanent(np.ones((m, m))) == pytest.approx(factorial(m))

    def test_matches_naive_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for m in range(1, 6):
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            assert of.permanent(a) == pytest.approx(permanent_naive(a), rel=1e-10)

    def test_stack_matches_naive(self):
        rng = np.random.default_rng(8)
        for m in range(1, 7):
            a = rng.normal(size=(2, 3, m, m)) + 1j * rng.normal(size=(2, 3, m, m))
            values = of.permanent(a)
            assert values.shape == (2, 3)
            for idx in np.ndindex(2, 3):
                assert values[idx] == pytest.approx(permanent_naive(a[idx]), rel=1e-10)

    def test_guards(self):
        with pytest.raises(ValueError):
            of.permanent(np.ones((2, 3)))
        with pytest.raises(ValueError):
            of.permanent(np.ones((4, 2, 3)))
        with pytest.raises(ValueError):
            of.permanent(np.ones(3))
        with pytest.raises(ValueError):
            of.permanent(np.ones((10, 10)))

    def test_empty_matrix_is_one(self):
        # Ryser's empty product, as the determinant of the 0 x 0 matrix.
        assert of.permanent(np.zeros((0, 0))) == 1 == np.linalg.det(np.zeros((0, 0)))
        assert isinstance(of.permanent(np.zeros((0, 0))), complex)
        assert of.permanent(np.zeros((2, 3, 0, 0))).tolist() == [[1, 1, 1], [1, 1, 1]]

    @pytest.mark.parametrize("m", range(10))
    def test_matches_ryser_and_naive_on_complex_stacks(self, m):
        rng = np.random.default_rng(m)
        a = rng.normal(size=(2, 3, m, m)) + 1j * rng.normal(size=(2, 3, m, m))
        values, want = of.permanent(a), ryser_permanent(a)
        assert values.shape == (2, 3)
        assert np.abs(values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert of.permanent(a[1, 2]) == pytest.approx(permanent_naive(a[1, 2]), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("counts", [(), (1,), (3,), (1, 1, 1), (3, 1, 2), (2, 1, 1, 3, 1, 1),
                                        (1,) * 9])
    def test_cached_plan_is_read_only_and_shared(self, counts):
        signs, weights = of._glynn_plan(counts)
        terms = counts[0] * prod(c + 1 for c in counts[1:]) if counts else 1
        assert signs.shape == (len(counts), terms) and weights.shape == (terms,)
        assert signs.dtype == weights.dtype == complex
        assert not signs.flags.writeable and not weights.flags.writeable
        assert of._glynn_plan(counts)[0] is signs and of._glynn_plan(counts)[1] is weights
        with pytest.raises(ValueError):
            weights[0] = 2.0
        # With every entry 1, Glynn's sum counts the distinct arrangements.
        m = sum(counts)
        assert weights @ signs.sum(axis=0) ** m == pytest.approx(
            factorial(m) // prod(map(factorial, counts)))

    def test_expansion_d_plus_and_permanent_share_one_plan(self, monkeypatch):
        plans = []
        glynn = of._glynn
        monkeypatch.setattr(of, "_glynn", lambda mat, plan, cells=None: (
            plans.append(plan), glynn(mat, plan, cells))[1])
        of.eval_c((1,) * 6, RNG.random(6))
        of.eval_e((2, 1, 3, 1, 1, 2), RNG.random((3, 6)))
        of.d_plus(np.array([float(v) for v in omega_to_e((0, 2, 0, 0, 1, 0))]), e_point(RNG, 6))
        of.permanent(np.ones((7, 7)))
        assert len(plans) == 4 and all(plan is of._glynn_plan((1,) * 7) for plan in plans)
        assert of._expansion((1,) * 6)[1] is of._glynn_plan((1,) * 7)


class TestExponentialForms:
    def test_d_plus_at_zero_weight(self):
        for n in (1, 2, 3):
            l = np.zeros(n + 1)
            x = e_point(RNG, n)
            assert of.d_plus(l, x) == pytest.approx(factorial(n + 1))

    def test_d_plus_rank_one_zero(self):
        assert of.d_plus((0.5, -0.5), (0.25, -0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_d_minus_rank_one_sine(self):
        t = 0.31
        assert of.d_minus((0.5, -0.5), (t, -t)) == pytest.approx(2j * sin(2 * pi * t))

    def test_d_minus_vanishes_on_repeats(self):
        l = (0.5, 0.5, -1.0)
        x = e_point(RNG, 2)
        assert of.d_minus(l, x) == pytest.approx(0.0, abs=1e-12)

    def test_d_alt_at_zero_weight(self):
        assert of.d_alt((0.0, 0.0), (0.3, -0.3)) == pytest.approx(1.0)
        x = e_point(RNG, 2)
        assert of.d_alt(np.zeros(3), x) == pytest.approx(3.0)

    def test_unsorted_weight_rejected(self):
        with pytest.raises(ValueError):
            of.d_plus((-0.5, 0.5), (0.1, -0.1))
        with pytest.raises(ValueError):
            of.d_minus((0.0, 1.0, -1.0), (0.1, 0.0, -0.1))

    def test_off_hyperplane_rejected(self):
        with pytest.raises(ValueError):
            of.d_plus((1.0, 0.0), (0.1, -0.1))

    SHAPE, SUM, ORDER = ("l must be an e-vector of length n+1, got shape",
                         "l must sum to zero",
                         "l must be weakly decreasing (dominant e-coordinates)")

    @pytest.mark.parametrize("l,message", [
        ([[1.0, -1.0]], SHAPE + " (1, 2)"),
        ([[1.0, 2.0]], SHAPE + " (1, 2)"),  # the shape first, before the sum and order
        (0.0, SHAPE + " ()"),
        ([], SHAPE + " (0,)"),
        ([1.0, 2.0], SUM),  # the sum before the order
        ([1.0, -1.0 + 2e-9], SUM),  # tolerance 1e-9 * max(1, max|l|)
        ([-1.0 + 2e-9, 1.0], SUM),
        ([10.0, -10.0 + 2e-8], SUM),
        ([-1.0, 1.0], ORDER),
        ([0.5, 0.5 + 2e-12, -1.0 - 2e-12], ORDER),  # tolerance 1e-12 * max(1, max|l|)
        ([5.0, 5.0 + 2e-11, -10.0 - 2e-11], ORDER),
    ])
    def test_each_bad_weight_keeps_its_message(self, l, message):
        for form in (of.d_plus, of.d_minus, of.d_alt):
            with pytest.raises(ValueError, match=re.escape(message)):
                form(l, (0.1, -0.1))

    @pytest.mark.parametrize("bad", [float("nan"), inf, -inf])
    def test_non_finite_weight_rejected_first(self, bad):
        # Before the sum and order checks, which a nan passes and an inf
        # turns into numpy warnings; the message names l, not a point.
        for l in ([bad, 1.0, -1.0], [bad, -bad], [1.0, bad, -1.0]):
            for form in (of.d_plus, of.d_minus, of.d_alt):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="^l must be finite"):
                        form(l, np.zeros(len(l)))

    @pytest.mark.parametrize("l", [
        [1.0, -1.0 + 0.5e-9],
        [10.0, -10.0 + 5e-9],  # within 1e-9 * 10, not 1e-9
        [0.5, 0.5 + 0.5e-12, -1.0 - 0.5e-12],
        [5.0, 5.0 + 5e-12, -10.0 - 5e-12],  # within 1e-12 * 10, not 1e-12
        [0.0, 0.0],
    ])
    def test_weights_inside_the_tolerances_pass(self, l):
        checked, x = of._check_e_inputs(l, np.zeros(len(l)))
        assert checked.dtype == float and checked.tolist() == l
        assert x.tolist() == [0.0] * len(l)

    @pytest.mark.parametrize("lam", [(1, 1), (2, 1), (1, 3)])
    def test_equivalences_at_generic_weights(self, lam):
        rng = np.random.default_rng(42)
        l = np.array([float(v) for v in omega_to_e(lam)])
        for _ in range(10):
            x = e_point(rng, 2)
            dp, dm, da = of.d_plus(l, x), of.d_minus(l, x), of.d_alt(l, x)
            assert dp == pytest.approx(of.eval_c(lam, x, basis="e"), abs=1e-10)
            assert dm == pytest.approx(of.eval_s(lam, x, basis="e"), abs=1e-10)
            assert da == pytest.approx(of.eval_e(lam, x, basis="e"), abs=1e-10)
            assert da == pytest.approx((dp + dm) / 2, abs=1e-12)

    def test_stabilizer_factor_on_wall(self):
        lam = (0, 2)
        k = weyl.stabilizer_order(lam)
        l = np.array([float(v) for v in omega_to_e(lam)])
        x = e_point(np.random.default_rng(3), 2)
        assert of.d_plus(l, x) == pytest.approx(
            k * of.eval_c(lam, x, basis="e"), abs=1e-10
        )
        assert of.d_minus(l, x) == pytest.approx(0.0, abs=1e-12)


FORMS = {"d_plus": of.d_plus, "d_minus": of.d_minus, "d_alt": of.d_alt}


class TestFormBatches:
    """The forms take one e-point or an (m, n+1) batch, as eval_* do."""

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("wall", [False, True])
    def test_batch_matches_the_per_point_loop(self, form, n, wall):
        rng = np.random.default_rng(10 * n + wall)
        lam = (2,) + (0,) * (n - 1) if wall else tuple(int(c) for c in rng.integers(1, 4, size=n))
        l = np.array([float(v) for v in omega_to_e(lam)])
        xs = np.array([e_point(rng, n) for _ in range(n + 1)])
        values = FORMS[form](l, xs)
        assert isinstance(values, np.ndarray) and values.shape == (n + 1,)
        loop = [FORMS[form](l, row) for row in xs]
        assert all(type(v) is complex for v in loop)
        assert np.abs(values - loop).max() <= 1e-13 * factorial(n + 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_d_alt_matches_the_even_permutation_loop(self, n):
        rng = np.random.default_rng(n)
        for lam in [tuple(int(c) for c in rng.integers(1, 4, size=n)), (0,) * (n - 1) + (2,)]:
            l = np.array([float(v) for v in omega_to_e(lam)])
            for x in [e_point(rng, n) for _ in range(2)]:
                assert abs(of.d_alt(l, x) - d_alt_loop(l, x)) <= 1e-13 * factorial(n + 1)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_even_permutations_in_lexicographic_order(self, m):
        even = of._even_permutations(m)
        expect = sorted(p for p, sign in signed_permutations(tuple(range(m))) if sign > 0)
        assert even.dtype == np.uint8 and not even.flags.writeable
        assert [tuple(row) for row in even.tolist()] == expect

    def test_even_permutations_limited_to_order_nine(self):
        assert len(of._even_permutations(9)) == factorial(9) // 2
        with pytest.raises(ValueError, match="order 9"):
            of._even_permutations(10)

    @pytest.mark.parametrize("form", FORMS)
    def test_bad_points_raise(self, form):
        f = FORMS[form]
        l = (1.0, 0.0, -1.0)
        with pytest.raises(ValueError, match="length 3"):
            f(l, np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="length 3"):
            f(l, (0.1, -0.1))
        with pytest.raises(ValueError, match="length 3"):
            f(l, np.zeros((4, 2)))
        batch = np.zeros((3, 3))
        batch[1, 0] = np.nan
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                f(l, (0.1, np.inf, -0.1))
            with pytest.raises(ValueError, match=r"at the point \(nan, 0.0, 0.0\)"):
                f(l, batch)
        with pytest.raises(ValueError, match="e-vector"):
            f(np.zeros((1, 3)), (0.1, 0.0, -0.1))


#: Points a chunk holds in ``TestChunks``: CHUNK_CELLS is patched to this
#: many points' cells.
STEP = 3


def chunk_cases():
    """(name, evaluate a batch, cells a point of that batch): the table
    path, the column expansion (a point's matrix, Glynn row sums and their
    products), the three forms and ExpSum.evaluate."""
    table_lam, wide_lam = (1, 2, 1), (1, 2, 1, 1, 3, 1)
    values, (_, weights) = of._expansion(wide_lam)
    expanded = 7 * (len(values) + len(weights)) + len(weights)  # matrix, row sums, products
    l = np.array([float(v) for v in omega_to_e((2, 1, 3, 1))])
    s = exp_sum((2, 1, 3), "E")
    return [
        ("table C", lambda x: of.eval_c(table_lam, x[:, :3]), len(table(table_lam, "C", "alpha")[0])),
        ("table E, e basis", lambda x: of.eval_e(table_lam, x[:, :4], basis="e"),
         len(table(table_lam, "E", "e")[0])),
        ("expansion C", lambda x: of.eval_c(wide_lam, x[:, :6]), expanded),
        ("expansion S", lambda x: of.eval_s(wide_lam, x[:, :6]), expanded),
        ("expansion E", lambda x: of.eval_e(wide_lam, x[:, :6]), expanded),
        ("d_plus", lambda x: of.d_plus(l, x[:, :5]), 5 * 5 + 6 * 2 ** 4),
        ("d_minus", lambda x: of.d_minus(l, x[:, :5]), 5 * 5),
        ("d_alt", lambda x: of.d_alt(l, x[:, :5]), factorial(5) // 2),
        ("ExpSum.evaluate", lambda x: s.evaluate(x[:, :3]), len(s.terms)),
    ]


class TestChunks:
    """A batch is evaluated in chunks of whole points, at most CHUNK_CELLS
    cells a chunk and never one point alone, so its bits do not depend on
    where the chunks start."""

    @pytest.mark.parametrize("cells", [1, 5, 1000, of.CHUNK_CELLS // 3, of.CHUNK_CELLS, 3 * of.CHUNK_CELLS])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6, 7, 1000])
    def test_chunks_keep_whole_points_and_never_one_alone(self, cells, m):
        points = np.arange(2.0 * m).reshape(m, 2)
        seen = []
        out = of._chunked(lambda chunk: seen.append(chunk) or chunk[:, 0] + 1j, points, cells)
        assert out.tolist() == (points[:, 0] + 1j).tolist()
        assert np.concatenate(seen).tolist() == points.tolist()
        sizes = [len(chunk) for chunk in seen]
        step = max(2, of.CHUNK_CELLS // cells)
        if m < 2:
            assert sizes == [m]
        else:
            assert all(size <= step for size in sizes[:-1])
            assert 2 <= min(sizes) and sizes[-1] <= step + 1

    @pytest.mark.parametrize("m", range(1, 3 * STEP + 2))
    @pytest.mark.parametrize("case", range(len(chunk_cases())))
    def test_chunk_boundaries_keep_the_bits(self, monkeypatch, case, m):
        name, evaluate, cells = chunk_cases()[case]
        x = np.random.default_rng(m).random((m, 6)) * 4 - 2
        whole = evaluate(x)  # one chunk: m * cells is far below CHUNK_CELLS
        monkeypatch.setattr(of, "CHUNK_CELLS", STEP * cells)
        chunked = evaluate(x)
        assert chunked.shape == (m,) and chunked.tobytes() == whole.tobytes(), name

    def test_no_chunk_holds_one_point_of_a_batch(self, monkeypatch):
        # BLAS's matrix-vector product, which one point alone takes, can
        # round otherwise than the matrix-matrix one: put such a point last
        # in a batch of step + 1 points.
        weights, coeffs = table((1, 2, 1, 1, 3, 1, 2), "E", "e")  # 2 520 rows
        x = np.random.default_rng(5).random((40, 8))
        whole = of.exp_kernel(weights, coeffs, x)
        alone = np.array([of.exp_kernel(weights, coeffs, row) for row in x])
        differ = np.flatnonzero(alone != whole)
        if not len(differ):
            pytest.skip("this BLAS rounds both products alike")
        pick = [0, 1, differ[0]]
        monkeypatch.setattr(of, "CHUNK_CELLS", 2 * len(weights))
        assert of.exp_kernel(weights, coeffs, x[pick]).tobytes() == whole[pick].tobytes()


class TestBoundedTransients:
    """Whatever the batch size, an evaluation allocates, beyond its output
    and the batch's own column coordinates, about 24 bytes a cell of one
    chunk."""

    def peak(self, evaluate):
        tracemalloc.start()
        try:
            out = evaluate()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_exp_kernel(self, monkeypatch):
        monkeypatch.setattr(of, "CHUNK_CELLS", 1 << 16)
        weights, coeffs = table((1, 2, 1, 1, 3), "C", "alpha")  # 720 rows
        x = np.random.default_rng(1).random((6000, 5))  # 66 chunks
        out, peak = self.peak(lambda: of.exp_kernel(weights, coeffs, x))
        assert out.shape == (6000,)
        assert peak - out.nbytes <= 32 * of.CHUNK_CELLS

    def test_eval_c_expanded(self, monkeypatch):
        monkeypatch.setattr(of, "CHUNK_CELLS", 1 << 16)
        lam = (1, 2, 1, 1, 3, 1)
        assert expands(lam, "C", 6000)
        of._expansion(lam)  # the cached plan is not a transient
        x = np.random.default_rng(2).random((6000, 6))
        out, peak = self.peak(lambda: of.eval_c(lam, x))
        columns = x.shape[0] * (x.shape[1] + 1) * 8
        assert peak - out.nbytes - columns <= 32 * of.CHUNK_CELLS

    @pytest.mark.parametrize("m", [7, 8, 9])
    def test_d_plus_holds_glynn_row_sums(self, m):
        # A point takes m * 2^(m-1) Glynn row sums and their 2^(m-1)
        # products over the columns, half of Ryser's (m + 1)(2^m - 1) row
        # sums and products, besides its m x m matrix, built through a
        # complex temporary and copied once for the column-major product.
        rng = np.random.default_rng(m)
        lam = tuple(int(c) for c in rng.integers(1, 4, size=m - 1))
        l = np.array([float(v) for v in omega_to_e(lam)])
        points = 12  # one chunk: 12 * 2 641 cells at m = 9
        x = np.array([e_point(rng, m - 1) for _ in range(points)])
        of.d_plus(l, x[:2])  # the cached plan is not a transient
        out, peak = self.peak(lambda: of.d_plus(l, x))
        assert out.shape == (points,)
        cells = m * 2 ** (m - 1) + 2 ** (m - 1) + 3 * m * m
        assert peak <= 16 * points * cells + 4096
