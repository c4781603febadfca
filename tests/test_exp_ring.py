"""Group-ring arithmetic: formal sums, products, orbit decomposition,
exact division and characters."""
import enum
import itertools
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orbitpoly import exp_ring, lie, weyl
from orbitpoly.exp_ring import (
    ExpSum,
    InexactDivisionError,
    NotInvariantError,
    OrbitDecomposition,
    character,
    decompose_into_c,
    exact_divide,
    exp_sum,
    grlex_key,
    orbit_product,
)
from conftest import dominant_weights


def decompose_by_rescan(s):
    """Decomposition oracle: rescan the remainder for its graded-lex largest
    dominant weight before every extraction."""
    rem = dict(s.terms)
    out = {}
    while rem:
        dominant = [w for w in rem if lie.is_dominant(w)]
        if not dominant:
            w_bad = max(rem, key=grlex_key)
            raise NotInvariantError(
                f"no dominant weight left but {w_bad} remains with "
                f"coefficient {rem[w_bad]}",
                w_bad,
            )
        lam = max(dominant, key=grlex_key)
        mult = rem[lam]
        if mult < 0:
            raise NotInvariantError(
                f"negative multiplicity {mult} at dominant weight {lam}", lam
            )
        for p in weyl.orbit(lam).points:
            c = rem.get(p, 0) - mult
            if c < 0:
                raise NotInvariantError(
                    f"sum is not constant on the orbit of {lam}: "
                    f"weight {p} falls short by {-c}",
                    p,
                )
            if c == 0:
                rem.pop(p, None)
            else:
                rem[p] = c
        out[lam] = mult
    return OrbitDecomposition(s.rank, out)


def divide_by_scan(num, den):
    """Division oracle: find the remainder's leading term by a linear scan
    at every step; same floor, quotient box, step cap and re-multiplication
    check."""
    num._check_rank(den)
    if not den.terms:
        raise ZeroDivisionError("division by the zero sum")
    if not num.terms:
        return ExpSum(num.rank, {})
    cap = exp_ring._DIVISION_STEP_CAP
    lead_den = max(den.terms, key=grlex_key)
    lead_coeff = den.terms[lead_den]
    floor_key = grlex_key(tuple(
        a - b for a, b in zip(min(num.terms, key=grlex_key), min(den.terms, key=grlex_key))
    ))
    low = [min(w[i] for w in num.terms) - min(w[i] for w in den.terms)
           for i in range(num.rank)]
    high = [max(w[i] for w in num.terms) - max(w[i] for w in den.terms)
            for i in range(num.rank)]
    rem = dict(num.terms)
    quotient = {}
    steps = 0
    while rem:
        steps += 1
        t = max(rem, key=grlex_key)
        if steps > cap:
            raise InexactDivisionError(
                f"division did not terminate within {cap} steps; "
                f"remainder leads with {t}",
                t,
            )
        c = rem[t]
        mono = tuple(a - b for a, b in zip(t, lead_den))
        in_box = all(lo <= m <= hi for lo, m, hi in zip(low, mono, high))
        if grlex_key(mono) < floor_key or c % lead_coeff != 0 or not in_box:
            raise InexactDivisionError(
                f"not divisible: irreducible remainder term {t} (coeff {c})", t
            )
        qc = c // lead_coeff
        quotient[mono] = quotient.get(mono, 0) + qc
        for w, d in den.terms.items():
            key = tuple(a + b for a, b in zip(mono, w))
            left = rem.get(key, 0) - qc * d
            if left == 0:
                rem.pop(key, None)
            else:
                rem[key] = left
    result = ExpSum(num.rank, quotient)
    if result * den != num:
        t = max(quotient, key=grlex_key) if quotient else (0,) * num.rank
        raise InexactDivisionError("re-multiplication check failed", t)
    return result


def character_by_division(lam):
    """Character oracle: S_{lam+rho} / S_rho by long division, decomposed."""
    rho = (1,) * len(lam)
    shifted = tuple(c + 1 for c in lam)
    return decompose_into_c(exact_divide(exp_sum(shifted, "S"), exp_sum(rho, "S")))


#: Second-kind table boxes, rank -> largest coordinate.
CHARACTER_BOXES = {1: 20, 2: 8, 3: 3, 4: 1}


def outcome(f, *args):
    """Result, or the exception's type, message and reported weight/term."""
    try:
        return f(*args)
    except (NotInvariantError, InexactDivisionError) as exc:
        return type(exc), str(exc), getattr(exc, "weight", None), getattr(exc, "term", None)


#: Largest |W a| * |W b| of a product drawn by ``invariant_sums``.
INVARIANT_TERM_CAP = 5_000


@st.composite
def invariant_sums(draw, max_rank=6):
    """Products of two C-orbit sums or of two S-orbit sums, or sums of orbit
    sums with multiplicities.  Coordinates run to 2 up to rank 4 and to 1
    at ranks 5-6; a second C factor, and once it is zero the first, loses
    its last nonzero coordinate until the product multiplies at most
    INVARIANT_TERM_CAP term pairs, and S factors, whose labels are strictly
    dominant, are drawn at ranks 1-3."""
    n = draw(st.integers(1, max_rank))
    dom = st.tuples(*[st.integers(0, 2 if n < 5 else 1)] * n)
    how = draw(st.sampled_from(["C x C", "S x S", "orbit sums"] if n <= 3
                               else ["C x C", "orbit sums"]))
    if how == "S x S":
        strict = st.tuples(*[st.integers(1, 2)] * n)
        return exp_sum(draw(strict), "S") * exp_sum(draw(strict), "S")
    if how == "C x C":
        a, b = list(draw(dom)), list(draw(dom))
        while weyl.orbit_size(tuple(a)) * weyl.orbit_size(tuple(b)) > INVARIANT_TERM_CAP:
            # At rank 6 a alone can exceed the cap (7! points).
            f = b if any(b) else a
            f[max(k for k, c in enumerate(f) if c)] = 0
        return exp_sum(tuple(a), "C") * exp_sum(tuple(b), "C")
    mults = draw(st.dictionaries(dom, st.integers(1, 3), min_size=1, max_size=4))
    return OrbitDecomposition(n, mults).expand()


@st.composite
def perturbed_sums(draw):
    """An invariant sum with a few coefficients moved, added or removed,
    with one coefficient raised (an excess inside a complete orbit), with
    one dominant weight removed, or with a coefficient moved from one term
    to another, neither of which cancels, so that every orbit keeps its
    term count."""
    s = draw(invariant_sums())
    terms = dict(s.terms)
    how = draw(st.sampled_from(["moved", "excess", "dominant removed", "counts kept"]))
    if how == "excess":
        terms[draw(st.sampled_from(sorted(terms)))] += draw(st.integers(1, 2))
    elif how == "dominant removed":
        del terms[draw(st.sampled_from(sorted(filter(lie.is_dominant, terms))))]
    elif how == "counts kept":
        keys = st.sampled_from(sorted(terms))
        v, w = draw(keys), draw(keys)
        d = draw(st.sampled_from([-2, -1, 1, 2]))
        if v != w and terms[v] + d and terms[w] - d:
            terms[v] += d
            terms[w] -= d
    else:
        keys = st.sampled_from(sorted(terms)) | st.tuples(*[st.integers(-3, 3)] * s.rank)
        for _ in range(draw(st.integers(1, 3))):
            w = draw(keys)
            terms[w] = terms.get(w, 0) + draw(st.sampled_from([-2, -1, 1, 2]))
    return ExpSum(s.rank, terms)


def brute_product(lam, mu):
    """Convolution oracle computed straight from the two orbit point sets,
    grouped into orbits via the dominant representative."""
    out = {}
    for p in weyl.orbit(lam).points:
        for q in weyl.orbit(mu).points:
            key = tuple(a + b for a, b in zip(p, q))
            out[key] = out.get(key, 0) + 1
    grouped = {}
    for w, c in out.items():
        dom, _ = weyl.dominant_representative(w)
        grouped.setdefault(dom, set()).add(c)
    # A W-invariant sum is constant on each orbit.
    assert all(len(v) == 1 for v in grouped.values())
    return out, {dom: v.pop() for dom, v in grouped.items()}


@st.composite
def dominant_pairs(draw):
    """Dominant pairs at ranks 1-6; b loses its last nonzero coordinate
    until the convolution oracle multiplies at most 20 000 term pairs."""
    n = draw(st.integers(1, 6))
    coord = st.integers(0, {1: 5, 2: 3, 3: 2, 4: 2, 5: 1, 6: 1}[n])
    a = draw(st.tuples(*[coord] * n))
    b = list(draw(st.tuples(*[coord] * n)))
    while weyl.orbit_size(a) * weyl.orbit_size(tuple(b)) > 20_000:
        b[max(k for k, c in enumerate(b) if c)] = 0
    return a, tuple(b)


@st.composite
def exp_sums(draw, rank=2, n_terms=4, coord=3, coeff=5):
    terms = {}
    for _ in range(draw(st.integers(1, n_terms))):
        w = tuple(draw(st.integers(-coord, coord)) for _ in range(rank))
        c = draw(st.integers(-coeff, coeff))
        if c:
            terms[w] = terms.get(w, 0) + c
    return ExpSum(rank, terms)


class TestExpSum:
    def test_c_orbit_sum(self):
        assert exp_sum((1, 0), "C").terms == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}

    def test_s_sum_signs(self):
        assert exp_sum((1,), "S").terms == {(1,): 1, (-1,): -1}

    def test_origin(self):
        assert exp_sum((0,), "C").terms == {(0,): 1}

    def test_e_sum_even_half(self):
        assert exp_sum((1,), "E").terms == {(1,): 1}
        # The reflected label gives the same even-orbit sum.
        assert exp_sum((-1,), "E") == exp_sum((1,), "E")
        assert exp_sum((-1, 2), "E") == exp_sum((1, 1), "E")

    def test_dominance_violations(self):
        with pytest.raises(ValueError):
            exp_sum((1, -1), "C")
        with pytest.raises(ValueError):
            exp_sum((1, 0), "S")
        with pytest.raises(ValueError):
            exp_sum((-1, -1), "E")
        with pytest.raises(ValueError):
            exp_sum((1,), "Q")

    @pytest.mark.parametrize("kind", ["C", "S", "E", "Q"])
    def test_label_messages(self, kind):
        # Each label is checked once, by its kind's own check; a bad label
        # is reported before an unknown kind.
        class Coord(enum.IntEnum):
            ONE = 1
            TWO = 2

        rejected = [  # pairs, not a dict: (1.0, 2) == (np.int64(1), 2)
            ((1.0, 2), "weight coordinates must be integers, got 1.0"),
            ((True, 1), "weight coordinates must be integers, got True"),
            ((np.int64(1), 2), f"weight coordinates must be integers, got {np.int64(1)!r}"),
            ((), "rank must be a positive integer, got 0"),
            ((1,) * 9, "rank 9 exceeds the configured maximum 8"),
        ]
        for lam, message in rejected:
            with pytest.raises(ValueError) as err:
                exp_sum(lam, kind)
            assert str(err.value) == message
        bad_kind = "kind must be one of ('C', 'S', 'E'), got 'Q'"
        wall = {"C": "C requires a dominant weight, got (2, -1)",
                "S": "S requires a strictly dominant weight, got (2, -1)", "Q": bad_kind}
        if kind == "E":
            assert exp_sum((2, -1), "E") == exp_sum((1, 1), "E")
        else:
            with pytest.raises(ValueError) as err:
                exp_sum((2, -1), kind)
            assert str(err.value) == wall[kind]
        for lam in [(Coord.ONE, Coord.TWO), [1, 2]]:
            if kind == "Q":
                with pytest.raises(ValueError, match=re.escape(bad_kind)):
                    exp_sum(lam, kind)
            else:
                assert exp_sum(lam, kind) == exp_sum((1, 2), kind)

    @pytest.mark.parametrize("kind,checks", [("C", 0), ("S", 1), ("E", 1)])
    def test_a_plain_label_is_checked_once(self, kind, checks):
        with mock.patch.object(lie, "as_weight", wraps=lie.as_weight) as as_weight:
            exp_sum((1, 2), kind)
        assert as_weight.call_count == checks

    def test_evaluate_matches_closed_form(self):
        import cmath
        s = exp_sum((2,), "C")
        x = 0.3
        expect = cmath.exp(4j * cmath.pi * x) + cmath.exp(-4j * cmath.pi * x)
        assert s.evaluate((x,)) == pytest.approx(expect)

    def test_json_round_trip(self):
        s = exp_sum((2, 1), "S")
        assert ExpSum.from_json(s.to_json()) == s
        dec = character((1, 1))
        assert OrbitDecomposition.from_json(dec.to_json()) == dec

    def test_json_terms_in_descending_grlex(self):
        keys = [tuple(t["weight"]) for t in exp_sum((2, 1), "C").to_json_dict()["terms"]]
        from orbitpoly.exp_ring import grlex_key
        assert keys == sorted(keys, key=grlex_key, reverse=True)


class TestMultiply:
    def test_a1_square_of_x(self):
        x = exp_sum((1,), "C")
        assert (x * x).terms == {(2,): 1, (-2,): 1, (0,): 2}

    def test_identity_element(self):
        one = ExpSum(2, {(0, 0): 1})
        s = exp_sum((2, 1), "S")
        assert s * one == s

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            exp_sum((1,), "C") * exp_sum((1, 0), "C")

    @given(exp_sums(), exp_sums())
    @settings(max_examples=50)
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(exp_sums(n_terms=3), exp_sums(n_terms=3), exp_sums(n_terms=3))
    @settings(max_examples=40)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)


class TestDecompose:
    def test_a2_product_of_fundamental_orbits(self):
        prod = exp_sum((1, 0), "C") * exp_sum((1, 0), "C")
        raw, grouped = brute_product((1, 0), (1, 0))
        assert prod.terms == raw
        dec = decompose_into_c(prod)
        assert dec.terms == grouped == {(2, 0): 1, (0, 1): 2}

    def test_single_orbit(self):
        s = exp_sum((2, 1), "C")
        assert decompose_into_c(s).terms == {(2, 1): 1}

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_a1_stepping_relation(self, m):
        prod = exp_sum((1,), "C") * exp_sum((m,), "C")
        assert decompose_into_c(prod).terms == {(m + 1,): 1, (m - 1,): 1}

    @given(dominant_weights(max_rank=3, max_coord=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, lam, data):
        mu = tuple(data.draw(st.integers(0, 2)) for _ in lam)
        prod = exp_sum(lam, "C") * exp_sum(mu, "C")
        dec = decompose_into_c(prod)
        assert dec.expand() == prod
        assert all(m >= 1 for m in dec.terms.values())

    @given(dominant_weights(max_rank=3, max_coord=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_congruence_of_components(self, lam, data):
        mu = tuple(data.draw(st.integers(0, 2)) for _ in lam)
        n = len(lam)
        expected = (lie.congruence_number(lam) + lie.congruence_number(mu)) % (n + 1)
        dec = decompose_into_c(exp_sum(lam, "C") * exp_sum(mu, "C"))
        assert all(lie.congruence_number(w) == expected for w in dec.terms)

    def test_non_invariant_rejected(self):
        with pytest.raises(NotInvariantError) as err:
            decompose_into_c(ExpSum(2, {(1, 0): 1}))
        assert err.value.weight is not None

    def test_missing_orbit_partner_rejected(self):
        with pytest.raises(NotInvariantError):
            decompose_into_c(ExpSum(2, {(1, -1): 1, (-1, 0): 1}))

    def test_negative_multiplicity_rejected(self):
        s = ExpSum(1, {(1,): -1, (-1,): -1})
        with pytest.raises(NotInvariantError):
            decompose_into_c(s)

    @given(invariant_sums() | perturbed_sums())
    @settings(max_examples=120, deadline=None)
    def test_one_pass_matches_rescan(self, s):
        assert outcome(decompose_into_c, s) == outcome(decompose_by_rescan, s)

    @pytest.mark.parametrize("terms, message", [
        ({(1,): -1, (-1,): -1}, "negative multiplicity -1"),
        ({(1, 0): 2, (-1, 1): 1, (0, -1): 2}, "weight (-1, 1) falls short by 1"),
        ({(1, 0): 1, (-1, 1): 1}, "weight (0, -1) falls short by 1"),
        ({(1, 0): 1, (-1, 1): 3, (0, -1): 1}, "(-1, 1) remains with coefficient 2"),
        ({(-1, 2): 1, (2, -1): 1, (1, -2): 1, (-2, 1): 1, (-1, -1): 1},
         "(2, -1) remains with coefficient 1"),
        ({(1, 1): -1, (1, 0): 1, (-1, 0): 5},
         "negative multiplicity -1 at dominant weight (1, 1)"),
    ])
    def test_every_error_branch_matches_rescan(self, terms, message):
        s = ExpSum(len(next(iter(terms))), terms)
        got = outcome(decompose_into_c, s)
        assert got == outcome(decompose_by_rescan, s)
        assert got[0] is NotInvariantError and message in got[1]

    @pytest.mark.parametrize("a, b", [((2, 1, 1, 2), (1, 2, 0, 1)), ((1, 1, 1, 1, 1), (0, 1, 0, 1, 0))])
    def test_invariant_input_builds_no_orbit(self, a, b):
        prod = exp_sum(a, "C") * exp_sum(b, "C")
        before = weyl.orbit.cache_info()
        dec = decompose_into_c(prod)
        after = weyl.orbit.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert dec == orbit_product(a, b)


class TestOrbitProduct:
    @given(dominant_pairs())
    @settings(max_examples=100, deadline=None)
    def test_matches_convolution_and_decomposition(self, pair):
        a, b = pair
        got = orbit_product(a, b)
        want = decompose_into_c(exp_sum(a, "C") * exp_sum(b, "C"))
        assert got == want
        # The order is a contract: the CLI prints the terms with no sort.
        keys = list(got.terms)
        assert keys == list(want.terms)
        assert keys == sorted(keys, key=grlex_key, reverse=True)

    def test_large_rank5_product(self):
        dec = orbit_product((1, 1, 1, 1, 1), (1, 2, 1, 2, 1))
        assert dec.weight_count() == 720 * 720
        assert dec == orbit_product((1, 2, 1, 2, 1), (1, 1, 1, 1, 1))

    def test_invalid_input(self):
        with pytest.raises(ValueError, match="dominant"):
            orbit_product((1, -1), (1, 0))
        with pytest.raises(ValueError, match="rank mismatch"):
            orbit_product((1,), (1, 0))


class TestExactDivide:
    def test_a1_character_numerator(self):
        quot = exact_divide(exp_sum((3,), "S"), exp_sum((1,), "S"))
        assert quot.terms == {(2,): 1, (0,): 1, (-2,): 1}

    def test_self_division(self):
        s = exp_sum((2, 1), "S")
        assert exact_divide(s, s).terms == {(0, 0): 1}

    def test_a2_adjoint_quotient(self):
        quot = exact_divide(exp_sum((2, 2), "S"), exp_sum((1, 1), "S"))
        dec = decompose_into_c(quot)
        assert all(m >= 1 for m in dec.terms.values())
        assert dec.weight_count() == 8
        assert sum(quot.terms.values()) == 8

    def test_inexact_division_reports_term(self):
        with pytest.raises(InexactDivisionError) as err:
            exact_divide(exp_sum((1,), "C"), exp_sum((1,), "S"))
        assert err.value.term is not None

    def test_sideways_drift_stops_at_the_quotient_box(self):
        # The first quotient term (0, 3) already lies outside the box
        # -2 <= q_1 <= 0, 3 <= q_2 <= 2 that exact quotients occupy.
        num = ExpSum(2, {(-1, 1): 2, (2, 2): 2, (2, 1): -2})
        den = ExpSum(2, {(1, 0): 2, (1, -2): 1, (2, -1): 1})
        start = time.perf_counter()
        with pytest.raises(InexactDivisionError) as err:
            exact_divide(num, den)
        assert time.perf_counter() - start < 1.0
        assert err.value.term == (2, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(exp_sum((1,), "C"), ExpSum(1, {}))

    @given(exp_sums(rank=2, n_terms=3, coord=2))
    @settings(max_examples=40, deadline=None)
    def test_multiply_then_divide(self, a):
        den = exp_sum((1, 1), "S")
        assert exact_divide(a * den, den) == a

    @given(exp_sums(rank=2, n_terms=4, coord=2), exp_sums(rank=2, n_terms=3, coord=2),
           exp_sums(rank=2, n_terms=2, coord=2), st.sampled_from(["exact", "perturbed", "raw"]),
           st.sampled_from([3, 60]))
    @settings(max_examples=150, deadline=None)
    def test_heap_matches_scan(self, a, den, extra, shape, cap):
        num = {"exact": a * den, "perturbed": a * den + extra, "raw": a}[shape]
        if not den:
            den = exp_sum((1, 1), "S")
        # Both read the patched cap: 3 makes longer divisions stop at the
        # cap, and 60 keeps non-terminating inputs cheap.
        with mock.patch.object(exp_ring, "_DIVISION_STEP_CAP", cap):
            assert outcome(exact_divide, num, den) == outcome(divide_by_scan, num, den)


class TestCharacter:
    def test_a1_ladder(self):
        assert character((4,)).terms == {(4,): 1, (2,): 1, (0,): 1}
        assert character((3,)).terms == {(3,): 1, (1,): 1}

    def test_trivial(self):
        assert character((0,)).terms == {(0,): 1}
        assert character((0, 0)).terms == {(0, 0): 1}

    def test_a2_adjoint(self):
        dec = character((1, 1))
        assert dec.terms == {(1, 1): 1, (0, 0): 2}
        assert dec.weight_count() == 8

    def test_a2_fundamental(self):
        assert character((1, 0)).terms == {(1, 0): 1}
        assert character((1, 0)).weight_count() == 3

    @given(dominant_weights(max_rank=2, max_coord=3))
    @settings(max_examples=25, deadline=None)
    def test_multiplicities_positive_and_count_matches_quotient(self, lam):
        rho = (1,) * len(lam)
        shifted = tuple(c + 1 for c in lam)
        quot = exact_divide(exp_sum(shifted, "S"), exp_sum(rho, "S"))
        dec = character(lam)
        assert all(m >= 1 for m in dec.terms.values())
        assert dec.weight_count() == sum(quot.terms.values())
        assert dec.expand() == quot

    def test_requires_dominant(self):
        with pytest.raises(ValueError):
            character((1, -1))

    @pytest.mark.parametrize("n", sorted(CHARACTER_BOXES))
    def test_matches_division_and_weyl_dimension(self, n):
        for lam in itertools.product(range(CHARACTER_BOXES[n] + 1), repeat=n):
            dec = character(lam)
            want = character_by_division(lam)
            assert list(dec.terms.items()) == list(want.terms.items()), lam
            assert dec.weight_count() == lie.weyl_dimension(lam), lam

    def test_rank5_character(self):
        dec = character((1, 1, 1, 1, 1))
        assert dec.weight_count() == lie.weyl_dimension((1, 1, 1, 1, 1)) == 2 ** 15
