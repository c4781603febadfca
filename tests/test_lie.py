"""Cartan data, basis conversions, inner products and congruence numbers."""
import enum
import re
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orbitpoly import lie, weyl
from conftest import weights, weight_pairs
from oracles import (alpha_to_e_point, cartan_inverse, cartan_matrix, e_to_alpha_point, e_to_omega,
                     inner_product, omega_to_e, omega_to_e_matrix)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def gauss_inverse(mat):
    """Exact Gaussian elimination, used as an independent inverse oracle."""
    n = len(mat)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class TestCartan:
    def test_rank_one(self):
        assert cartan_matrix(1) == ((2,),)
        assert cartan_inverse(1) == ((Fraction(1, 2),),)

    def test_rank_two(self):
        assert cartan_matrix(2) == ((2, -1), (-1, 2))
        third = Fraction(1, 3)
        assert cartan_inverse(2) == (
            (2 * third, third),
            (third, 2 * third),
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_product_is_identity(self, n):
        assert mat_mul(cartan_matrix(n), cartan_inverse(n)) == identity(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inverse_matches_gaussian_elimination(self, n):
        assert cartan_inverse(n) == gauss_inverse(cartan_matrix(n))

    def test_tridiagonal_structure(self):
        c = cartan_matrix(4)
        for i in range(4):
            for j in range(4):
                expected = 2 if i == j else -1 if abs(i - j) == 1 else 0
                assert c[i][j] == expected

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            cartan_matrix(0)
        with pytest.raises(ValueError):
            lie.check_rank(9)

    def test_rank_cap_is_reconfigurable(self, monkeypatch):
        monkeypatch.setattr(lie, "MAX_RANK", 2)
        with pytest.raises(ValueError):
            lie.as_weight((1, 0, 0))
        monkeypatch.setattr(lie, "MAX_RANK", 9)
        lie.check_rank(9)
        # The arrangement enumerator sizes nothing by the cap at import.
        try:
            rows, parities = weyl._arrangements((1,) * 10)
            assert len(parities) == factorial(10)
            assert rows[:10] == bytes(range(10))
            assert rows[-10:] == bytes(range(9, -1, -1))
        finally:
            weyl._arrangements.cache_clear()


class TestConversions:
    def test_a2_fundamental(self):
        assert omega_to_e((1, 0)) == (
            Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3),
        )

    def test_a1_fundamental(self):
        assert omega_to_e((1,)) == (Fraction(1, 2), Fraction(-1, 2))

    def test_zero_weight(self):
        assert omega_to_e((0, 0, 0)) == (0, 0, 0, 0)

    def test_e_to_omega_direct(self):
        assert e_to_omega((1, 0, -1)) == (1, 1)
        assert e_to_omega((Fraction(1, 2), Fraction(-1, 2))) == (1,)

    def test_round_trip_a3(self):
        lam = (2, 0, 1)
        assert e_to_omega(omega_to_e(lam)) == lam

    @given(weights())
    def test_round_trip(self, lam):
        assert e_to_omega(omega_to_e(lam)) == lam

    @given(weights())
    def test_e_coordinates_sum_to_zero(self, lam):
        assert sum(omega_to_e(lam)) == 0

    @given(weights())
    def test_scaled_route_matches_matrix_route(self, lam):
        n = len(lam)
        mat = omega_to_e_matrix(n)
        via_matrix = tuple(
            sum(mat[j][k] * lam[k] for k in range(n)) for j in range(n + 1)
        )
        assert omega_to_e(lam) == via_matrix

    def test_off_hyperplane_rejected(self):
        with pytest.raises(ValueError):
            e_to_omega((1, 0, 0))
        with pytest.raises(ValueError):
            e_to_omega((0.5, -0.3))
        # Float round-off within tolerance is fine.
        assert e_to_omega((0.5, -0.5 + 1e-14)) == pytest.approx((1.0,))

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=5))
    def test_alpha_e_point_round_trip(self, x):
        back = e_to_alpha_point(alpha_to_e_point(x))
        assert back == pytest.approx(tuple(x), abs=1e-12)


class TestInnerProduct:
    def test_fundamental_norm(self):
        assert inner_product((1, 0), (1, 0)) == Fraction(2, 3)

    def test_zero(self):
        assert inner_product((3, -2), (0, 0)) == 0

    def test_rho_norm_a2(self):
        assert inner_product((1, 1), (1, 1)) == 2

    @given(weight_pairs())
    def test_matches_euclidean_e_product(self, pair):
        lam, mu = pair
        dot = sum(a * b for a, b in zip(omega_to_e(lam), omega_to_e(mu)))
        assert inner_product(lam, mu) == dot

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            inner_product((1,), (1, 0))

    @given(weight_pairs(max_rank=6))
    @settings(max_examples=100)
    def test_matches_inverse_cartan_form(self, pair):
        # The omega-basis Gram matrix C^{-1}, entry by entry.
        lam, mu = pair
        cinv = cartan_inverse(len(lam))
        expect = sum(lam[i] * cinv[i][j] * mu[j]
                     for i in range(len(lam)) for j in range(len(mu)))
        assert inner_product(lam, mu) == expect
        assert isinstance(inner_product(lam, mu), Fraction)


class TestCongruence:
    def test_examples(self):
        assert lie.congruence_number((1, 1)) == 0
        assert lie.congruence_number((1, 0, 2)) == 3

    @pytest.mark.parametrize("lam,message", [
        ((0.5, 1), "weight coordinates must be integers, got 0.5"),
        ((1, True), "weight coordinates must be integers, got True"),
        ((), "rank must be a positive integer, got 0"),
        ((1,) * 9, "rank 9 exceeds the configured maximum 8"),
    ])
    def test_refuses_what_as_weight_refuses(self, lam, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            lie.congruence_number(lam)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_fundamental_weights_hit_each_class(self, n):
        for j in range(1, n + 1):
            omega_j = tuple(int(k == j) for k in range(1, n + 1))
            assert lie.congruence_number(omega_j) == j

    @given(weights(max_rank=8, min_coord=-6, max_coord=6))
    def test_matches_weighted_coordinate_sum(self, lam):
        n = len(lam)
        assert lie.congruence_number(lam) == sum(k * lam[k - 1] for k in range(1, n + 1)) % (n + 1)

    @given(weight_pairs())
    @settings(max_examples=60)
    def test_additive(self, pair):
        lam, mu = pair
        total = tuple(a + b for a, b in zip(lam, mu))
        n = len(lam)
        assert lie.congruence_number(total) == (
            lie.congruence_number(lam) + lie.congruence_number(mu)
        ) % (n + 1)


class TestSuffixSums:
    def test_examples(self):
        assert lie.suffix_sums((1, 0, 2)) == (3, 2, 2, 0)
        assert lie.suffix_sums((4,)) == (4, 0)

    @given(weights(max_rank=6))
    def test_shifted_e_coordinates(self, lam):
        p = lie.suffix_sums(lam)
        shift = {c - e for c, e in zip(p, omega_to_e(lam))}
        assert len(shift) == 1
        assert e_to_omega(omega_to_e(lam)) == tuple(a - b for a, b in zip(p, p[1:]))


class TestDominantWeight:
    def test_returns_validated_tuple(self):
        assert lie.dominant_weight([2, 0, 1], "orbit") == (2, 0, 1)

    def test_message_names_the_caller(self):
        with pytest.raises(ValueError, match=r"^orbit requires a dominant weight, got \(1, -1\)$"):
            lie.dominant_weight((1, -1), "orbit")

    def test_integers_checked_first(self):
        with pytest.raises(ValueError, match="must be integers"):
            lie.dominant_weight((-1, 1.5), "orbit")


class Coordinate(enum.IntEnum):
    ZERO = 0
    TWO = 2


def checks():
    """The two label validators, as one-argument functions."""
    return {"as_weight": lie.as_weight, "dominant_weight": lambda c: lie.dominant_weight(c, "orbit")}


class TestValidation:
    """The exact-type loop accepts and rejects what the isinstance check
    does, with the same messages in the same order."""

    @pytest.mark.parametrize("check", checks())
    def test_lists_and_int_subclasses_pass(self, check):
        assert checks()[check]([2, 0, 1]) == (2, 0, 1)
        got = checks()[check]((Coordinate.TWO, 1, Coordinate.ZERO))
        assert got == (2, 1, 0) and got[0] is Coordinate.TWO

    @pytest.mark.parametrize("check", checks())
    @pytest.mark.parametrize("coords,bad", [
        ((1, np.int64(2)), np.int64(2)), ((True, 1), True), ((1, 1.0), 1.0),
        ((2, -1, 0.5), 0.5), ((1, Coordinate.TWO, False), False), ("12", "1"),
    ])
    def test_non_integers_are_named(self, check, coords, bad):
        message = f"^weight coordinates must be integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            checks()[check](coords)

    @pytest.mark.parametrize("check", checks())
    def test_ranks_outside_the_cap(self, check, monkeypatch):
        with pytest.raises(ValueError, match=r"^rank must be a positive integer, got 0$"):
            checks()[check](())
        with pytest.raises(ValueError, match=r"^rank 9 exceeds the configured maximum 8$"):
            checks()[check]((1,) * 9)
        # The rank is checked before dominance.
        with pytest.raises(ValueError, match=r"^rank 9 exceeds"):
            checks()[check]((-1,) * 9)
        # MAX_RANK is read at call time.
        monkeypatch.setattr(lie, "MAX_RANK", 3)
        with pytest.raises(ValueError, match=r"^rank 4 exceeds the configured maximum 3$"):
            checks()[check]((1,) * 4)
        monkeypatch.setattr(lie, "MAX_RANK", 9)
        assert checks()[check]((1,) * 9) == (1,) * 9

    def test_dominance_is_checked_last(self):
        assert lie.as_weight((1, -1)) == (1, -1)
        with pytest.raises(ValueError, match=r"^S requires a dominant weight, got \(1, -1\)$"):
            lie.dominant_weight([1, -1], "S")


class TestWeylDimension:
    def test_examples(self):
        assert lie.weyl_dimension((0,)) == 1
        assert lie.weyl_dimension((4,)) == 5
        assert lie.weyl_dimension((1, 0)) == 3
        assert lie.weyl_dimension((1, 1)) == 8
        assert lie.weyl_dimension((2, 0)) == 6
        assert lie.weyl_dimension((1, 0, 1)) == 15
        assert lie.weyl_dimension((1, 1, 1, 1, 1)) == 2 ** 15

    @given(weights(max_rank=4, min_coord=0, max_coord=4))
    @settings(max_examples=60)
    def test_matches_root_pairings(self, lam):
        # prod over positive roots alpha_i + ... + alpha_{j-1} of
        # (lam + rho, alpha) / (rho, alpha), with the Fraction inner product.
        n = len(lam)
        cartan = cartan_matrix(n)
        shifted = tuple(c + 1 for c in lam)
        dim = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n + 1):
                root = tuple(sum(cartan[k][m] for k in range(i, j)) for m in range(n))
                dim *= inner_product(shifted, root) / inner_product((1,) * n, root)
        assert lie.weyl_dimension(lam) == dim

    def test_requires_dominant(self):
        with pytest.raises(ValueError):
            lie.weyl_dimension((1, -1))
