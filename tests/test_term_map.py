"""The shared sparse core (TermMap) and the one exponential-sum kernel."""
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orbitpoly import exp_ring, lie, orbit_functions as of, weyl
from orbitpoly.chebyshev import XPolynomial, YLaurent
from orbitpoly.exp_ring import (
    KINDS,
    ExpSum,
    InexactDivisionError,
    OrbitDecomposition,
    TermMap,
    exact_divide,
    exp_sum,
)
from conftest import dominant_weights, strict_weights, weights
from oracles import alpha_to_e_point


@st.composite
def term_dicts(draw, rank, max_terms=5):
    keys = st.tuples(*[st.integers(-3, 3)] * rank)
    return draw(st.dictionaries(keys, st.integers(-6, 6), max_size=max_terms))


@st.composite
def term_pairs(draw):
    rank = draw(st.integers(1, 3))
    return rank, draw(term_dicts(rank)), draw(term_dicts(rank)), draw(st.integers(-4, 4))


@st.composite
def alpha_points(draw, n):
    return tuple(draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n)))


ALL_TYPES = (ExpSum, OrbitDecomposition, XPolynomial, YLaurent)

#: The key unpacking of counted products, before any test wraps it.
UNPACKED = exp_ring._unpacked


def convolve_by_pairs(a: dict, b: dict) -> dict:
    """Convolution oracle: add the key tuples of every pair, pairs in the
    order of a's terms, then b's; keys stay in first-occurrence order and
    cancelled coefficients stay as zeros."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            key = tuple(x + y for x, y in zip(wa, wb))
            out[key] = out.get(key, 0) + ca * cb
    return out


#: Coefficients: units (products that cancel to zero are common), small
#: ints, and ints beyond 2**64.
COEFFS = (st.sampled_from([1, -1]) | st.integers(-6, 6)
          | st.integers(2 ** 64, 2 ** 130).flatmap(lambda c: st.sampled_from([c, -c])))


@st.composite
def convolution_operands(draw):
    """Two maps of one type (ExpSum or XPolynomial) at ranks 1-5, negative
    and far-apart coordinates included, with 0-10 terms each."""
    cls = draw(st.sampled_from([ExpSum, XPolynomial]))
    rank = draw(st.integers(1, 5))
    coord = draw(st.sampled_from([st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12)]))
    keys = st.tuples(*[coord] * rank)

    def operand():
        size = draw(st.sampled_from([0, 1, 2, 5, 10]))
        return cls(rank, draw(st.dictionaries(keys, COEFFS, max_size=size)))

    return operand(), operand()


@functools.cache
def unit_labels(n: int) -> list[tuple[str, tuple[int, ...]]]:
    """(kind, label) of the C-, S- and E-orbit sums of rank n with
    coordinates up to 2 (up to 1 from rank 4), smallest orbits first."""
    coord = 2 if n <= 3 else 1
    labels = [(kind, lam) for lam in itertools.product(range(coord + 1), repeat=n)
              for kind in KINDS if kind != "S" or all(lam)]
    return sorted(labels, key=lambda kl: weyl.orbit_size(kl[1]))


#: A map of 8 terms far apart, every coefficient 1.
WIDE = dict.fromkeys(((100 * k, 7 * k % 3) for k in range(8)), 1)

#: Largest number of term pairs in a product drawn by ``unit_operands``.
UNIT_PAIR_CAP = 20_000


@st.composite
def unit_operands(draw):
    """Two +-1 maps of one rank 1-6: C-, S- and E-orbit sums, and sums and
    differences of two such on distinct dominant labels (disjoint
    supports), so that both the counted products of maps whose coefficients
    are all 1 and the pair loop are drawn; the second operand is drawn small enough that the product
    multiplies at most UNIT_PAIR_CAP term pairs."""
    n = draw(st.integers(1, 6))

    def orbit_sum(max_terms, but=None):
        fits = [kl for kl in unit_labels(n) if weyl.orbit_size(kl[1]) <= max_terms
                and kl[1] != but]
        kind, lam = draw(st.sampled_from(fits))
        return exp_sum(lam, kind), lam

    def operand(max_terms):
        how = draw(st.sampled_from(["orbit sum", "sum", "difference"]))
        first, lam = orbit_sum(max_terms if how == "orbit sum" else max(max_terms // 2, 1))
        left = max_terms - len(first.terms)
        if how == "orbit sum" or left < weyl.orbit_size((1,) + (0,) * (n - 1)):
            return first
        second = orbit_sum(left, but=lam)[0]
        return first + second if how == "sum" else first - second

    a = operand(UNIT_PAIR_CAP)
    return a, operand(UNIT_PAIR_CAP // len(a.terms))


class TestSharedCore:
    @pytest.mark.parametrize("cls", ALL_TYPES)
    def test_every_map_inherits_the_core(self, cls):
        assert issubclass(cls, TermMap)
        for name in ("__eq__", "__add__", "__sub__", "__mul__", "scale",
                     "sorted_terms", "from_json"):
            assert name not in vars(cls), f"{cls.__name__} redefines {name}"

    @given(term_pairs())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_agrees_across_types(self, case):
        rank, a, b, k = case
        results = []
        for cls in (ExpSum, XPolynomial, YLaurent):
            x, y = cls(rank, a), cls(rank, b)
            results.append([(x + y).terms, (x - y).terms, (x * y).terms,
                            x.scale(k).terms])
            assert all(type(r) is cls for r in (x + y, x - y, x * y, x.scale(k)))
        assert results[0] == results[1] == results[2]

    @given(term_pairs())
    @settings(max_examples=30, deadline=None)
    def test_zero_coefficients_are_dropped(self, case):
        rank, a, _, _ = case
        s = ExpSum(rank, a)
        assert 0 not in s.terms.values()
        assert (s - s).terms == {}
        assert not s - s

    @given(term_pairs())
    @settings(max_examples=30, deadline=None)
    def test_results_own_their_terms_and_the_constructor_copies(self, case):
        rank, a, b, k = case
        given_terms = dict(a)
        x, y = ExpSum(rank, given_terms), ExpSum(rank, b)
        given_terms[(99,) * rank] = 7  # the caller still holds its dict
        assert x.terms == {w: c for w, c in a.items() if c}
        results = [x + y, x - y, x * y, x.scale(k), x.scale(0)]
        for r in results:
            assert 0 not in r.terms.values()
            assert r == ExpSum(rank, dict(r.terms)) and type(r) is ExpSum
        assert len({id(r.terms) for r in results} | {id(x.terms), id(y.terms)}) == 7

    @pytest.mark.parametrize("cls", ALL_TYPES)
    @given(term_pairs())
    @settings(max_examples=20, deadline=None)
    def test_json_round_trip(self, cls, case):
        rank, a, _, _ = case
        m = cls(rank, a)
        assert cls.from_json(m.to_json()) == m

    def test_equality_needs_the_same_type(self):
        terms = {(1, 0): 2, (0, 1): -1}
        assert ExpSum(2, terms) == ExpSum(2, dict(terms))
        assert ExpSum(2, terms) != OrbitDecomposition(2, terms)
        assert XPolynomial(2, terms) != YLaurent(2, terms)
        assert ExpSum(2, terms) != ExpSum(3, {})

    @pytest.mark.parametrize("cls", ALL_TYPES)
    @given(term_pairs())
    @settings(max_examples=20, deadline=None)
    def test_equal_maps_hash_equal(self, cls, case):
        rank, a, _, _ = case
        m = cls(rank, a)
        twin = cls(rank, dict(reversed(list(a.items()))))
        assert m == twin and hash(m) == hash(twin)
        assert len({m, twin, cls(rank, {(9,) * rank: 1})}) == 2

    def test_hash_follows_type_and_rank(self):
        terms = {(1, 0): 2}
        assert len({cls(2, terms) for cls in ALL_TYPES}) == len(ALL_TYPES)
        assert ExpSum(2, {}) in {ExpSum(2, {(0, 0): 0})}
        assert ExpSum(2, {}) not in {ExpSum(3, {})}

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            ExpSum(1, {(1,): 1}) + ExpSum(2, {(1, 0): 1})
        with pytest.raises(ValueError):
            XPolynomial(1, {(1,): 1}) * XPolynomial(2, {(1, 0): 1})

    @given(convolution_operands())
    @settings(max_examples=80, deadline=None)
    def test_product_is_the_tuple_convolution(self, operands):
        a, b = operands
        got = a * b
        want = type(a)(a.rank, convolve_by_pairs(a.terms, b.terms))
        assert type(got) is type(a)
        assert list(got.terms.items()) == list(want.terms.items())

    @given(unit_operands())
    @settings(max_examples=60, deadline=None)
    def test_unit_product_is_the_pair_convolution(self, operands):
        # C and E sums (coefficients 1) are counted, the rest take the pair loop.
        a, b = operands
        assert {1, -1}.issuperset(a.terms.values())
        assert {1, -1}.issuperset(b.terms.values())
        want = ExpSum(a.rank, convolve_by_pairs(a.terms, b.terms))
        assert list((a * b).terms.items()) == list(want.terms.items())

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_both_unpackings_invert_the_packing(self, n, data):
        keys = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n),
                                  min_size=1, max_size=30, unique=True))
        terms = dict.fromkeys(keys, 1)
        low, spread = exp_ring._box(terms)
        radix = 1 + max(spread)
        packed = exp_ring._packed(terms, low, radix)
        # Enough term pairs for the digit tables, and none.
        by_tables = list(exp_ring._unpacked(packed, low, radix, 2 * radix ** n))
        by_columns = list(exp_ring._unpacked(packed, low, radix, 0))
        assert by_tables == by_columns == keys

    @pytest.mark.parametrize("a, b", [
        ({(100, 0): 1, (0, 0): -1}, {(100, 0): 1, (0, 0): -1}),
        (WIDE, WIDE),
        ({(2, -1): 1}, {(-3, 5): -1}),
        ({(2, -1): 1}, {}),
        ({}, {(0, 0): 1}),
        ({(1, 1): 3, (0, -2): -1}, {(1, 1): -1, (2, 0): 1}),
    ])
    def test_product_keeps_the_pair_loop_order(self, a, b):
        # WIDE x WIDE is counted (64 term pairs, every coefficient 1) and
        # wide (radix 1401, two 1401-row digit tables), so its keys are read
        # back one coordinate at a time.
        want = ExpSum(2, convolve_by_pairs(a, b))
        assert list((ExpSum(2, a) * ExpSum(2, b)).terms.items()) == list(want.terms.items())

    @pytest.mark.parametrize("a, b, counted", [
        (exp_sum((1, 1, 1), "C"), exp_sum((2, 1, 1), "C"), True),
        (exp_sum((1, 1, 1), "E"), exp_sum((2, 1, 1), "E"), True),
        (exp_sum((1, 1, 1), "S"), exp_sum((2, 1, 1), "S"), False),
        (exp_sum((1, 1, 1), "C"), exp_sum((2, 1, 1), "S"), False),
        (exp_sum((1, 1, 1), "C").scale(2), exp_sum((2, 1, 1), "C"), False),
        (exp_sum((1, 0, 0), "C"), exp_sum((0, 1, 0), "C"), False),  # 24 term pairs
    ])
    def test_only_products_of_ones_are_counted(self, monkeypatch, a, b, counted):
        # Only the counted path reads its keys back from packed ints.
        calls = []

        def unpacked(*args):
            calls.append(args)
            return UNPACKED(*args)

        monkeypatch.setattr(exp_ring, "_unpacked", unpacked)
        want = ExpSum(a.rank, convolve_by_pairs(a.terms, b.terms))
        assert list((a * b).terms.items()) == list(want.terms.items())
        assert bool(calls) is counted

    def test_product_edge_cases(self):
        one, x = XPolynomial(1, {(0,): 1}), XPolynomial(1, {(1,): 1})
        # (1 + X)(1 - X): the X terms cancel and drop out, the order stays.
        prod = (one + x) * (one - x)
        assert list(prod.terms.items()) == [((0,), 1), ((2,), -1)]
        assert one * x == x and x * XPolynomial(1, {}) == XPolynomial(1, {})
        big = XPolynomial(2, {(-5, 7): 3 ** 60})
        assert (big * big).terms == {(-10, 14): 3 ** 120}
        s = exp_sum((2, 1), "C")
        assert list((s * ExpSum(2, {(0, 0): 1})).terms.items()) == list(s.terms.items())
        assert (s * ExpSum(2, {})).terms == {}

    def test_product_errors_unchanged(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            ExpSum(2, {(1, 0): 1}) * ExpSum(3, {(1, 0, 0): 1})
        with pytest.raises(ValueError, match="rank mismatch"):
            XPolynomial(1, {(0,): 1, (1,): 1}) * XPolynomial(2, {(0, 1): 1})
        with pytest.raises(InexactDivisionError):
            exact_divide(exp_sum((1, 1), "C"), exp_sum((1, 1), "S"))
        with pytest.raises(InexactDivisionError):
            exact_divide(exp_sum((2, 1), "S") * exp_sum((1, 1), "S")
                         + ExpSum(2, {(0, 0): 1}), exp_sum((1, 1), "S"))

    def test_poly_text_differs_only_in_the_variable(self):
        terms = {(2, 0): 1, (0, 1): -3, (0, 0): 2}
        assert str(XPolynomial(2, terms)) == "X1^2 - 3*X2 + 2"
        assert str(YLaurent(2, terms)) == "y1^2 - 3*y2 + 2"


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def alpha_batches(draw, n):
    return np.array(draw(st.lists(alpha_points(n), min_size=1, max_size=4)), dtype=float)


class TestOneKernel:
    """eval_c/s/e and ExpSum.evaluate share the kernel, so they agree to the bit,
    on single points and on batches alike."""

    @given(dominant_weights(max_rank=4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_c_is_bitwise_evaluate(self, lam, data):
        x = data.draw(alpha_points(len(lam)))
        s = exp_sum(lam, "C")
        assert of.eval_c(lam, x) == s.evaluate(x)
        xe = alpha_to_e_point(x)
        assert of.eval_c(lam, xe, basis="e") == s.evaluate(xe, basis="e")
        xs = data.draw(alpha_batches(len(lam)))
        assert same_bits(of.eval_c(lam, xs), s.evaluate(xs))
        xes = np.array([alpha_to_e_point(row) for row in xs])
        assert same_bits(of.eval_c(lam, xes, basis="e"), s.evaluate(xes, basis="e"))

    @given(strict_weights(max_rank=4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_s_is_bitwise_evaluate(self, lam, data):
        x = data.draw(alpha_points(len(lam)))
        s = exp_sum(lam, "S")
        assert of.eval_s(lam, x) == s.evaluate(x)
        xe = alpha_to_e_point(x)
        assert of.eval_s(lam, xe, basis="e") == s.evaluate(xe, basis="e")
        xs = data.draw(alpha_batches(len(lam)))
        assert same_bits(of.eval_s(lam, xs), s.evaluate(xs))
        xes = np.array([alpha_to_e_point(row) for row in xs])
        assert same_bits(of.eval_s(lam, xes, basis="e"), s.evaluate(xes, basis="e"))

    @given(dominant_weights(max_rank=4), st.integers(0, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_e_is_bitwise_evaluate(self, lam, i, data):
        if 1 <= i <= len(lam):
            lam = weyl.reflect_weight(i, lam)
        x = data.draw(alpha_points(len(lam)))
        assert of.eval_e(lam, x) == exp_sum(lam, "E").evaluate(x)
        xs = data.draw(alpha_batches(len(lam)))
        assert same_bits(of.eval_e(lam, xs), exp_sum(lam, "E").evaluate(xs))

    def test_grid_rows_are_single_points(self):
        s = exp_sum((2, 1), "S")
        grid = np.random.default_rng(3).random((5, 2))
        values = s.evaluate(grid)
        assert values.shape == (5,)
        for row, v in zip(grid, values):
            assert v == pytest.approx(s.evaluate(row), abs=1e-12)

    def test_empty_sum_is_zero(self):
        assert ExpSum(2, {}).evaluate((0.1, 0.2)) == 0j
        assert ExpSum(2, {}).evaluate(np.zeros((3, 2))).tolist() == [0j] * 3


class TestEvalInputs:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("f, lam", [(of.eval_c, (1, 0)), (of.eval_s, (1, 1)),
                                        (of.eval_e, (1, 0)), (of.eval_s, (1, 0))])
    def test_non_finite_point_raises(self, f, lam, bad):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            f(lam, (0.1, bad))

    @pytest.mark.parametrize("f, lam", [(of.eval_c, (1, 0)), (of.eval_s, (1, 1)),
                                        (of.eval_e, (1, 0)), (of.eval_s, (1, 0))])
    def test_non_finite_batch_row_raises_naming_it(self, f, lam):
        xs = np.array([[0.1, 0.2], [0.3, float("nan")], [float("inf"), 0.0]])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"\(0\.3, nan\)"):
            f(lam, xs)

    @pytest.mark.parametrize("f, lam", [(of.eval_c, (1, 0)), (of.eval_s, (1, 1)),
                                        (of.eval_e, (1, 0)), (of.eval_s, (1, 0))])
    def test_bad_shapes_raise(self, f, lam):
        for x, basis in [(np.zeros((2, 3, 2)), "alpha"), (np.zeros((4, 3)), "alpha"),
                         (np.zeros((4, 2)), "e"), (np.zeros(()), "alpha"),
                         (np.zeros((2, 2)), "beta")]:
            with pytest.raises(ValueError):
                f(lam, x, basis=basis)

    def test_overflowing_point_raises(self):
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                of.eval_c((1, 0), (1e308, 0.0))

    @given(weights(max_rank=3))
    @settings(max_examples=80, deadline=None)
    def test_one_e_label_rule(self, lam):
        try:
            s = exp_sum(lam, "E")
        except ValueError:
            with pytest.raises(ValueError):
                of.eval_e(lam, (0.1,) * len(lam))
        else:
            assert of.eval_e(lam, (0.1,) * len(lam)) == s.evaluate((0.1,) * len(lam))

    def test_e_labels_are_dominant_or_reflected(self):
        assert weyl.e_label_dominant((1, 1)) == (1, 1)
        assert weyl.e_label_dominant((-1, 2)) == (1, 1)
        for lam in [(-5, 3), (-1, -1), (2, -3, 0)]:
            with pytest.raises(ValueError, match="P\\+ or r_i P\\+"):
                weyl.e_label_dominant(lam)
            with pytest.raises(ValueError):
                of.eval_e(lam, (0.2,) * len(lam))
