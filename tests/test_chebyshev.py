"""The rank-1 reduction to the classical polynomials, the recursive
multivariate construction, and the exponential-substitution Laurent
polynomials."""
import itertools
from functools import lru_cache
from math import comb, cos, pi, prod, sin

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orbitpoly import analysis, chebyshev as ch, exp_ring, lie, orbit_functions as of, weyl
from conftest import dominant_weights
from oracles import rank_one_in_x

RNG = np.random.default_rng(90125)


def x_monomial(n, j):
    """The polynomial X_{j+1} of rank n."""
    return ch.XPolynomial(n, {tuple(int(k == j) for k in range(n)): 1})


def poly_t_pick_last(lam):
    """poly_t built by splitting off the last positive fundamental weight
    instead of the first, on a fresh memo: the choice-independence oracle."""
    return ch._build(tuple(lam), last_positive, ch._orbit_terms, {})


def build_t_recursive(lam, memo):
    """poly_t by plain recursion: the memo-order oracle for ``_build`` with
    ``_orbit_terms``."""
    if lam in memo:
        return memo[lam]
    n = len(lam)
    if not any(lam):
        result = ch.XPolynomial(n, {(0,) * n: 1})
    elif sum(lam) == 1:
        result = x_monomial(n, lam.index(1))
    else:
        j = ch._first_positive(lam)
        mu = tuple(c - 1 if k == j else c for k, c in enumerate(lam))
        omega_j = tuple(1 if k == j else 0 for k in range(n))
        dec = exp_ring.decompose_into_c(
            exp_ring.exp_sum(omega_j, "C") * exp_ring.exp_sum(mu, "C"))
        result = x_monomial(n, j) * build_t_recursive(mu, memo)
        for nu, mult in dec.terms.items():
            if nu != lam:
                result = result - build_t_recursive(nu, memo).scale(mult)
    memo[lam] = result
    return result


def last_positive(lam):
    return max(k for k, c in enumerate(lam) if c > 0)


def build_u_recursive(lam, memo):
    """poly_u by plain recursion on the Pieri rule: the memo-order oracle for
    ``_build`` with ``_pieri_terms``.  X_{j+1} * U_mu is the sum of U_nu
    over the 0/1 vectors s with j+1 ones among the n+1 places that keep the
    suffix sums p + s of mu non-increasing, nu the consecutive differences
    of p + s."""
    if lam in memo:
        return memo[lam]
    n = len(lam)
    if not any(lam):
        result = ch.XPolynomial(n, {(0,) * n: 1})
    elif sum(lam) == 1:
        result = x_monomial(n, lam.index(1))
    else:
        j = ch._first_positive(lam)
        mu = tuple(c - 1 if k == j else c for k, c in enumerate(lam))
        p = lie.suffix_sums(mu)
        result = x_monomial(n, j) * build_u_recursive(mu, memo)
        for ones in itertools.combinations(range(n + 1), j + 1):
            q = [c + (k in ones) for k, c in enumerate(p)]
            nu = tuple(a - b for a, b in zip(q, q[1:]))
            if min(nu) >= 0 and nu != lam:
                result = result - build_u_recursive(nu, memo)
    memo[lam] = result
    return result


def poly_u_by_character_fold(lam):
    """Second-kind oracle from Freudenthal's formula: the sum of
    mult * T_nu over the dominant weights nu of the character of lam."""
    total = ch.XPolynomial(len(lam), {})
    for nu, mult in exp_ring.character(lam).terms.items():
        total = total + ch.poly_t(nu).scale(mult)
    return total


def poly_u_by_dual_jacobi_trudi(lam):
    """Second-kind oracle from dual Jacobi-Trudi (Macdonald I.3).

    The character is the Schur function of the partition p_1 >= ... >= p_n
    of suffix sums, det(e_{p'_i - i + j}) with p' the conjugate partition.
    The X_j are the elementary symmetric functions e_j, and e_{n+1} = 1 on
    SU(n+1); e_0 = 1 and every other e_k is 0.  The determinant is a Laplace
    expansion along the rows, memoized on the columns left.
    """
    n = len(lam)
    parts = weyl.suffix_sums(lam)[:-1]
    conj = [sum(p >= k for p in parts) for k in range(1, parts[0] + 1)]
    size = len(conj)
    one = ch.XPolynomial(n, {(0,) * n: 1})

    def e(k):
        if k in (0, n + 1):
            return one
        return x_monomial(n, k - 1) if 1 <= k <= n else None

    matrix = [[e(conj[i] - i + j) for j in range(size)] for i in range(size)]

    @lru_cache(maxsize=None)
    def minor(cols):
        row = size - len(cols)
        total = ch.XPolynomial(n, {})
        if not cols:
            return one
        if min(cols) < row - conj[row]:
            return total  # a column no later row reaches
        for pos, col in enumerate(cols):
            entry = matrix[row][col]
            if entry is not None:
                term = entry * minor(cols[:pos] + cols[pos + 1:])
                total = total + (term.scale(-1) if pos % 2 else term)
        return total

    return minor(tuple(range(size)))


def orbit_terms_by_product(lam, j, mu):
    """The first kind's step through the general orbit product, the
    stabilizer form summed over the orbit points: ``_orbit_terms``' oracle."""
    omega_j = tuple(1 if k == j else 0 for k in range(len(mu)))
    dec = exp_ring.orbit_product(omega_j, mu)
    assert dec.terms.get(lam) == 1
    return [(nu, mult) for nu, mult in dec.terms.items() if nu != lam]


#: Second-kind table boxes, rank -> largest coordinate.
U_TABLE_BOXES = {2: 8, 3: 3, 4: 1}
#: The tables workload's boxes for the two kinds (``bench/workloads.py``).
T_BOXES = {1: 20, 2: 8, 3: 6, 4: 3, 5: 1}
U_BOXES = {1: 20, **U_TABLE_BOXES}


def x_derivative(poly):
    """d/dX of a rank-1 polynomial in X."""
    return ch.XPolynomial(1, {(k - 1,): k * c for (k,), c in poly.terms.items()})


X = ch.XPolynomial(1, {(1,): 1})
KINDS = {"T": ch.poly_t, "U": ch.poly_u}


class TestClassicalPolynomials:
    """The closed forms of the chebyshev suite (``analysis._rank_one``):
    2T_m(X/2) and U_m(X/2) as coefficient dicts in X."""

    def test_first_kind_table(self):
        assert analysis._rank_one(1, True) == {(1,): 1}
        assert analysis._rank_one(2, True) == {(2,): 1, (0,): -2}
        assert analysis._rank_one(3, True) == {(3,): 1, (1,): -3}
        assert analysis._rank_one(4, True) == {(4,): 1, (2,): -4, (0,): 2}

    def test_second_kind_table(self):
        assert analysis._rank_one(0, False) == {(0,): 1}
        assert analysis._rank_one(1, False) == {(1,): 1}
        assert analysis._rank_one(2, False) == {(2,): 1, (0,): -1}
        assert analysis._rank_one(3, False) == {(3,): 1, (1,): -2}

    @pytest.mark.parametrize("m", range(1, 21))
    def test_leading_coefficients(self, m):
        # Monic in X: the leading 2^(m-1) of T_m and 2^m of U_m cancel
        # against (X/2)^m.
        assert analysis._rank_one(m, True)[(m,)] == 1
        assert analysis._rank_one(m, False)[(m,)] == 1
        assert ch.poly_t((m,)).terms[(m,)] == ch.poly_u((m,)).terms[(m,)] == 1

    @pytest.mark.parametrize("m", range(0, 21))
    def test_terms_share_parity(self, m):
        for poly in (ch.poly_t((m,)), ch.poly_u((m,))):
            assert all((k - m) % 2 == 0 for (k,) in poly.terms)

    @pytest.mark.parametrize("m", range(0, 61))
    def test_closed_forms_match_three_term_recursion(self, m):
        if m:
            assert analysis._rank_one(m, True) == rank_one_in_x(m, "T")
        assert analysis._rank_one(m, False) == rank_one_in_x(m, "U")

    @pytest.mark.parametrize("kind", "TU")
    def test_degree_3000(self, kind):
        assert analysis._rank_one(3000, kind == "T") == rank_one_in_x(3000, kind)

    @pytest.mark.parametrize("m", range(0, 15))
    def test_trigonometric_forms(self, m):
        # Independent oracle: at X = 2cos(y), 2T_m(X/2) = 2cos(m y) and
        # U_m(X/2) = sin((m+1) y) / sin(y), for the closed forms and the
        # package's polynomials alike.
        closed_u = ch.XPolynomial(1, analysis._rank_one(m, False))
        closed_t = ch.XPolynomial(1, analysis._rank_one(m, True)) if m else None
        for y in (0.3, 1.1, 2.5):
            x = [2 * cos(y)]
            u = sin((m + 1) * y) / sin(y)
            assert closed_u(x) == pytest.approx(u, abs=1e-9)
            assert ch.poly_u((m,))(x) == pytest.approx(u, abs=1e-9)
            if m:
                t = 2 * cos(m * y)
                assert closed_t(x) == pytest.approx(t, abs=1e-10)
                assert ch.poly_t((m,))(x) == pytest.approx(t, abs=1e-10)

    def test_negative_degree_rejected(self):
        for poly in KINDS.values():
            with pytest.raises(ValueError):
                poly((-1,))


@pytest.fixture
def cold_memos(monkeypatch):
    """poly_t and poly_u on empty memos of their own, so that a test sees
    every step and leaves the shared memos as they were."""
    monkeypatch.setattr(ch, "_T_MEMO", {})
    monkeypatch.setattr(ch, "_U_MEMO", {})


@pytest.mark.usefixtures("cold_memos")
class TestResumedRecursion:
    """At rank 1 the memoised recursion steps on from the degrees its memo
    holds, so the order of the requests must not change any polynomial."""

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_any_order_matches_from_scratch(self, order):
        degrees = range(41) if order == "ascending" else range(40, -1, -1)
        for m in degrees:
            for kind, poly in KINDS.items():
                assert poly((m,)).terms == rank_one_in_x(m, kind), (kind, m)

    def test_interleaved_order_matches_from_scratch(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            kind, m = "TU"[rng.integers(2)], int(rng.integers(45))
            assert KINDS[kind]((m,)).terms == rank_one_in_x(m, kind), (kind, m)

    def test_ascending_sweep_steps_once_per_degree(self, monkeypatch):
        # One step for each degree from 2 on; degrees 0 and 1 are the
        # recursion's base.
        calls = []
        step = ch._orbit_terms
        monkeypatch.setattr(ch, "_orbit_terms",
                            lambda *args: calls.append(args) or step(*args))
        for m in range(22):
            ch.poly_t((m,))
        assert len(calls) == 20
        ch.poly_t((5,))  # memoised: no step
        assert len(calls) == 20

    @pytest.mark.parametrize("kind", "TU")
    def test_negative_degree_rejected_after_a_step(self, kind):
        KINDS[kind]((12,))
        with pytest.raises(ValueError):
            KINDS[kind]((-1,))
        assert KINDS[kind]((13,)).terms == rank_one_in_x(13, kind)


class TestClassicalIdentities:
    """The classical identities on the package's own rank-1 polynomials in
    X: T and U below are poly_t((m,)) = 2T_m(X/2) and poly_u((m,)) = U_m(X/2)."""

    @pytest.mark.parametrize("m", range(0, 21))
    def test_identity_suite_exact(self, m):
        t, u = ch.poly_t, ch.poly_u
        if m >= 1:
            assert x_derivative(t((m,))) == u((m - 1,)).scale(m)
            four_minus_x2 = ch.XPolynomial(1, {(0,): 4, (2,): -1})
            assert t((m + 1,)).scale(2) == X * t((m,)) - four_minus_x2 * u((m - 1,))
            assert t((m,)) == u((m,)).scale(2) - X * u((m - 1,))
        if m >= 2:
            assert t((m,)) == u((m,)) - u((m - 2,))

    def test_derivative_example(self):
        # d/dX (X^3 - 3X) = 3X^2 - 3 = 3 * (X^2 - 1)
        assert x_derivative(ch.poly_t((3,))).terms == {(2,): 3, (0,): -3}
        assert ch.poly_u((2,)).scale(3).terms == {(2,): 3, (0,): -3}

    def test_half_difference_example(self):
        diff = ch.poly_u((2,)) - ch.poly_u((0,))
        assert diff.terms == {(2,): 1, (0,): -2}
        assert ch.poly_t((2,)) == diff

    def test_mixed_relation_at_degree_one(self):
        # T_1 = 2U_1 - X U_0 = 2X - X = X
        lhs = ch.poly_u((1,)).scale(2) - X * ch.poly_u((0,))
        assert lhs == ch.poly_t((1,)) == X


def dense_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def dense_add(a, b, sign=1):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    return dense_trim(out)


def dense_mul(a, b):
    """Dense-list convolution: the oracle for the sparse map product."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return dense_trim(out)


dense_coeffs = st.lists(st.integers(-9, 9), max_size=8)


def dense_poly(coeffs):
    """The rank-1 polynomial sum coeffs[k] * X^k."""
    return ch.XPolynomial(1, {(k,): c for k, c in enumerate(coeffs)})


class TestClassicalPolyMap:
    """One-variable polynomials are the rank-1 XPolynomials, keyed by (k,)
    for X^k."""

    def test_is_a_rank_one_polynomial(self):
        assert isinstance(ch.poly_t((3,)), ch.Polynomial)
        assert ch.poly_t((3,)).rank == 1
        assert ch.poly_t((3,)).terms == {(1,): -3, (3,): 1}

    def test_trailing_zeros_and_zero(self):
        assert ch.XPolynomial(1, {(0,): 1, (1,): 2, (2,): 0}).terms == {(0,): 1, (1,): 2}
        zero = ch.XPolynomial(1, {(0,): 0, (1,): 0})
        assert zero.terms == {} and not zero
        assert zero([0.5]) == 0

    @given(dense_coeffs, dense_coeffs)
    def test_arithmetic_matches_dense_lists(self, a, b):
        pa, pb = dense_poly(a), dense_poly(b)
        assert (pa + pb) == dense_poly(dense_add(a, b))
        assert (pa - pb) == dense_poly(dense_add(a, b, -1))
        assert (pa * pb) == dense_poly(dense_mul(a, b))
        assert pa.scale(3) == dense_poly(3 * c for c in a)
        assert type(pa * pb) is ch.XPolynomial


class TestPolyT:
    def test_a1_table(self):
        assert ch.poly_t((0,)).terms == {(0,): 1}
        assert ch.poly_t((1,)).terms == {(1,): 1}
        assert ch.poly_t((2,)).terms == {(2,): 1, (0,): -2}
        assert ch.poly_t((3,)).terms == {(3,): 1, (1,): -3}
        assert ch.poly_t((4,)).terms == {(4,): 1, (2,): -4, (0,): 2}

    @pytest.mark.parametrize("m", [*range(0, 21), 1000])
    def test_a1_reduction_to_first_kind(self, m):
        # 2T_m(X/2), but the unit at m = 0: distinct-point normalization.
        assert ch.poly_t((m,)).terms == rank_one_in_x(m, "T")

    def test_fundamental_variables(self):
        assert ch.poly_t((1, 0)).terms == {(1, 0): 1}
        assert ch.poly_t((0, 1, 0)).terms == {(0, 1, 0): 1}

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            ch.poly_t((1, -1))

    def test_a2_product_identity(self):
        # X1 * X2 decomposes as the generic orbit plus three units.
        x1, x2 = ch.poly_t((1, 0)), ch.poly_t((0, 1))
        one = ch.XPolynomial(2, {(0, 0): 1})
        assert x1 * x2 == ch.poly_t((1, 1)) + one.scale(3)

    @given(dominant_weights(max_rank=3, max_coord=2), st.data())
    @settings(max_examples=25, deadline=None)
    def test_products_map_to_decompositions(self, lam, data):
        mu = tuple(data.draw(st.integers(0, 2)) for _ in lam)
        n = len(lam)
        dec = exp_ring.decompose_into_c(
            exp_ring.exp_sum(lam, "C") * exp_ring.exp_sum(mu, "C")
        )
        total = ch.XPolynomial(n, {})
        for nu, mult in dec.terms.items():
            total = total + ch.poly_t(nu).scale(mult)
        assert ch.poly_t(lam) * ch.poly_t(mu) == total

    @given(dominant_weights(max_rank=3, max_coord=3))
    @settings(max_examples=30, deadline=None)
    def test_evaluation_consistency(self, lam):
        n = len(lam)
        x = tuple(RNG.random(n))
        fundamentals = [
            of.eval_c(tuple(int(k == j) for k in range(n)), x) for j in range(n)
        ]
        direct = of.eval_c(lam, x)
        via_poly = ch.poly_t(lam)(fundamentals)
        scale = max(1.0, abs(direct))
        assert abs(via_poly - direct) < 1e-9 * scale

    @given(dominant_weights(max_rank=3, max_coord=3))
    @settings(max_examples=30, deadline=None)
    def test_monomial_congruence_homogeneity(self, lam):
        n = len(lam)
        c = lie.congruence_number(lam)
        for deg in ch.poly_t(lam).terms:
            assert sum(j * d for j, d in enumerate(deg, start=1)) % (n + 1) == c

    @pytest.mark.parametrize("lam", [(2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 0, 1)])
    def test_choice_of_fundamental_does_not_matter(self, lam):
        assert poly_t_pick_last(lam) == ch.poly_t(lam)

    # (0, 2, 2) has a term that cancels and comes back in a later step,
    # which moves it to the end of the term order.
    @pytest.mark.parametrize("lam", [(4, 3), (2, 0, 3), (1, 2, 0, 1), (5,), (0, 2, 2)])
    def test_stack_memoizes_like_recursion(self, lam):
        memo, oracle = {}, {}
        got = ch._build(lam, ch._first_positive, ch._orbit_terms, memo)
        assert got == build_t_recursive(lam, oracle)
        assert list(memo.items()) == list(oracle.items())
        assert [list(p.terms) for p in memo.values()] == [list(p.terms) for p in oracle.values()]

    def test_memoization_is_stable(self):
        first = ch.poly_t((2, 1))
        again = ch.poly_t((2, 1))
        assert first is again


class TestPieriSteps:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_t_step_matches_orbit_product(self, n):
        # Every (mu, j) of the ranks 1-6 boxes, the (nu, mult) list in order.
        for mu in itertools.product(range({**T_BOXES, 6: 1}[n] + 1), repeat=n):
            for j in range(n):
                lam = tuple(c + (k == j) for k, c in enumerate(mu))
                assert ch._orbit_terms(lam, j, mu) == orbit_terms_by_product(lam, j, mu), (mu, j)

    @pytest.mark.parametrize("kind, n", [("T", n) for n in T_BOXES] + [("U", n) for n in U_BOXES])
    def test_table_boxes_match_recursion_from_scratch(self, kind, n):
        poly, build, boxes = {"T": (ch.poly_t, build_t_recursive, T_BOXES),
                              "U": (ch.poly_u, build_u_recursive, U_BOXES)}[kind]
        oracle = {}
        for lam in itertools.product(range(boxes[n] + 1), repeat=n):
            assert list(poly(lam).terms.items()) == list(build(lam, oracle).terms.items()), lam

    def test_both_kinds_share_one_steps_table(self):
        # Both recursions take the same steps from lam, so the second kind
        # finds every (support, j) it needs already enumerated.
        ch._pieri_steps.cache_clear()
        ch._build((2, 0, 3, 1), ch._first_positive, ch._orbit_terms, {})
        after_t = ch._pieri_steps.cache_info()
        ch._build((2, 0, 3, 1), ch._first_positive, ch._pieri_terms, {})
        after_u = ch._pieri_steps.cache_info()
        assert after_u.misses == after_t.misses and after_u.hits > after_t.hits

    def test_memos_hold_one_tuple_per_monomial(self):
        for lam in itertools.product(range(4), repeat=3):
            ch.poly_t(lam)
            ch.poly_u(lam)
        keys = [d for memo in (ch._T_MEMO, ch._U_MEMO)
                for lam, p in memo.items() if len(lam) == 3 for d in p.terms]
        assert len({id(d) for d in keys}) == len(set(keys)) < len(keys)


class TestPolyU:
    def test_a1_table(self):
        assert ch.poly_u((0,)).terms == {(0,): 1}
        assert ch.poly_u((2,)).terms == {(2,): 1, (0,): -1}
        assert ch.poly_u((3,)).terms == {(3,): 1, (1,): -2}
        assert ch.poly_u((4,)).terms == {(4,): 1, (2,): -3, (0,): 1}

    @pytest.mark.parametrize("m", range(0, 21))
    def test_a1_reduction_to_second_kind(self, m):
        assert ch.poly_u((m,)).terms == rank_one_in_x(m, "U")

    @pytest.mark.parametrize("n", sorted(U_TABLE_BOXES))
    def test_matches_dual_jacobi_trudi(self, n):
        for lam in itertools.product(range(U_TABLE_BOXES[n] + 1), repeat=n):
            assert ch.poly_u(lam) == poly_u_by_dual_jacobi_trudi(lam), lam

    @pytest.mark.parametrize("n", [1, *sorted(U_TABLE_BOXES)])
    def test_terms_in_the_order_of_the_pieri_recursion(self, n):
        # Same weights, same memo order and same term order as plain
        # recursion on the Pieri rule, over the whole box.
        top = 20 if n == 1 else U_TABLE_BOXES[n]
        memo, oracle = {}, {}
        for lam in itertools.product(range(top + 1), repeat=n):
            got = ch._build(lam, ch._first_positive, ch._pieri_terms, memo)
            want = build_u_recursive(lam, oracle)
            assert list(got.terms.items()) == list(want.terms.items()), lam
            assert list(ch.poly_u(lam).terms.items()) == list(want.terms.items()), lam
        assert list(memo.items()) == list(oracle.items())
        assert [list(p.terms) for p in memo.values()] == [list(p.terms) for p in oracle.values()]

    @pytest.mark.parametrize("n,top", [(1, 20), *U_TABLE_BOXES.items(), (5, 2), (6, 1)])
    def test_matches_character_fold(self, n, top):
        for lam in itertools.product(range(top + 1), repeat=n):
            assert ch.poly_u(lam) == poly_u_by_character_fold(lam), lam

    @pytest.mark.parametrize("lam", [(2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 0, 1),
                                     (0, 2, 1, 1), (1, 0, 1, 0, 2)])
    def test_choice_of_fundamental_does_not_matter(self, lam):
        assert ch._build(lam, last_positive, ch._pieri_terms, {}) == ch.poly_u(lam)

    @given(dominant_weights(max_rank=6, max_coord=2))
    @settings(max_examples=40, deadline=None)
    def test_dimension_at_the_identity(self, lam):
        # At the identity X_j is the orbit size C(n+1, j) of omega_j and
        # U_lam the dimension of V_lam.
        n = len(lam)
        value = sum(c * prod(comb(n + 1, j) ** d for j, d in enumerate(deg, start=1))
                    for deg, c in ch.poly_u(lam).terms.items())
        assert value == lie.weyl_dimension(lam)

    def test_a2_adjoint_via_multiplicities(self):
        one = ch.XPolynomial(2, {(0, 0): 1})
        assert ch.poly_u((1, 1)) == ch.poly_t((1, 1)) + one.scale(2)

    @given(dominant_weights(max_rank=2, max_coord=3))
    @settings(max_examples=20, deadline=None)
    def test_monomial_congruence_homogeneity(self, lam):
        n = len(lam)
        c = lie.congruence_number(lam)
        for deg in ch.poly_u(lam).terms:
            assert sum(j * d for j, d in enumerate(deg, start=1)) % (n + 1) == c

    @given(dominant_weights(max_rank=2, max_coord=2))
    @settings(max_examples=15, deadline=None)
    def test_evaluates_like_character_quotient(self, lam):
        n = len(lam)
        x = tuple(RNG.random(n))
        rho = (1,) * n
        shifted = tuple(c + 1 for c in lam)
        denom = of.eval_s(rho, x)
        if abs(denom) < 1e-6:
            return
        fundamentals = [
            of.eval_c(tuple(int(k == j) for k in range(n)), x) for j in range(n)
        ]
        quotient = of.eval_s(shifted, x) / denom
        assert ch.poly_u(lam)(fundamentals) == pytest.approx(quotient, abs=1e-8)


def a2_substitution_terms(m1, m2, signs):
    """Laurent terms read off the generic rank-2 orbit, with given signs."""
    pts = [
        (m1, m2), (-m1, m1 + m2), (m1 + m2, -m2),
        (-m2, -m1), (-m1 - m2, m1), (m2, -m1 - m2),
    ]
    return dict(zip(pts, signs))


class TestSubstitution:
    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 1), (1, 2)])
    def test_a2_c_polynomials(self, m1, m2):
        expect = a2_substitution_terms(m1, m2, [1, 1, 1, 1, 1, 1])
        assert ch.substitute_p((m1, m2), "C").terms == expect

    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 1), (1, 2)])
    def test_a2_s_polynomials(self, m1, m2):
        expect = a2_substitution_terms(m1, m2, [1, -1, -1, -1, 1, 1])
        assert ch.substitute_p((m1, m2), "S").terms == expect

    def test_constant(self):
        assert ch.substitute_p((0,), "C").terms == {(0,): 1}

    def test_e_polynomial_is_half_sum(self):
        for lam in [(1, 1), (2, 1)]:
            pc = ch.substitute_p(lam, "C")
            ps = ch.substitute_p(lam, "S")
            pe = ch.substitute_p(lam, "E")
            merged = {}
            for d, c in pc.terms.items():
                merged[d] = merged.get(d, 0) + c
            for d, c in ps.terms.items():
                merged[d] = merged.get(d, 0) + c
            halved = {d: c // 2 for d, c in merged.items() if c}
            assert all(c % 2 == 0 for c in merged.values())
            assert pe.terms == halved

    @given(dominant_weights(max_rank=3, max_coord=2))
    @settings(max_examples=20, deadline=None)
    def test_evaluation_on_torus_matches_orbit_function(self, lam):
        n = len(lam)
        x = RNG.random(n)
        y = np.exp(2j * np.pi * x)
        assert ch.substitute_p(lam, "C")(y) == pytest.approx(
            of.eval_c(lam, tuple(x)), abs=1e-12
        )
        if lie.is_strictly_dominant(lam):
            assert ch.substitute_p(lam, "S")(y) == pytest.approx(
                of.eval_s(lam, tuple(x)), abs=1e-12
            )

    def test_integer_coefficients_only(self):
        terms = ch.substitute_p((2, 1), "S").terms
        assert all(isinstance(c, int) and c in (-1, 1) for c in terms.values())


class TestRecursionRelation:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_a1_relation(self, m):
        rel = ch.recursion_relation(1, (m,))
        assert rel.rhs.terms == {(m + 1,): 1, (m - 1,): 1}
        assert rel.total_terms == 3 == rel.generic_terms
        assert rel.is_generic

    def test_a2_count(self):
        rel = ch.recursion_relation(1, (2, 2))
        assert rel.total_terms == comb(3, 1) + 1 == 4
        assert rel.is_generic

    def test_a3_count(self):
        rel = ch.recursion_relation(2, (2, 2, 2))
        assert rel.total_terms == comb(4, 2) + 1 == 7
        assert rel.is_generic

    def test_small_weight_is_not_generic(self):
        rel = ch.recursion_relation(1, (1,))
        assert rel.total_terms == 3
        assert not rel.is_generic  # multiplicity 2 at the origin

    def test_bad_index(self):
        with pytest.raises(ValueError):
            ch.recursion_relation(3, (1, 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_orbit_product_on_the_boxes(self, n):
        # Every (j, a) of the ranks 1-6 boxes: the terms and their order.
        for a in itertools.product(range({**T_BOXES, 6: 1}[n] + 1), repeat=n):
            for j in range(1, n + 1):
                omega_j = tuple(int(k == j - 1) for k in range(n))
                rhs = ch.recursion_relation(j, a).rhs
                expected = exp_ring.orbit_product(omega_j, a)
                assert type(rhs) is type(expected)
                assert list(rhs.terms.items()) == list(expected.terms.items()), (j, a)

    def test_lam_at_its_graded_lex_place(self):
        # lam = a + omega_j is not always first: C_(2,0,2) comes before it.
        rel = ch.recursion_relation(2, (1, 1, 1))
        assert list(rel.rhs.terms.items())[:2] == [((2, 0, 2), 2), ((1, 2, 1), 1)]

    def test_takes_the_pieri_step(self, monkeypatch):
        expected = exp_ring.orbit_product((0, 1, 0, 0), (3, 0, 2, 1))

        def no_product(a, b):
            raise AssertionError("recursion_relation ran the general orbit product")
        monkeypatch.setattr(exp_ring, "orbit_product", no_product)
        assert ch.recursion_relation(2, (3, 0, 2, 1)).rhs == expected


class TestSerialization:
    def test_json_shape(self):
        payload = ch.poly_t((4,)).to_json_dict((4,), "T")
        assert payload["algebra"] == "A1"
        assert payload["lambda"] == [4]
        assert payload["kind"] == "T"
        assert payload["terms"][0] == {"deg": [4], "coeff": 1}

    def test_terms_sorted_descending(self):
        payload = ch.substitute_p((2, 1), "C").to_json_dict((2, 1), "PC")
        degs = [tuple(t["deg"]) for t in payload["terms"]]
        assert degs == sorted(degs, key=exp_ring.grlex_key, reverse=True)

    def test_str_rendering(self):
        assert str(ch.poly_t((4,))) == "X1^4 - 4*X1^2 + 2"
        assert str(ch.poly_t((0,))) == "1"
