"""The plain value classes: equality, hashing, repr, immutability and the
``as_dict`` key order that callers and the ``verify --json`` output read."""
import copy
import pickle

import pytest

from orbitpoly import analysis, chebyshev, weyl
from orbitpoly.chebyshev import XPolynomial, YLaurent
from orbitpoly.exp_ring import ExpSum, OrbitDecomposition, TermMap, exp_sum

MAPS = (TermMap, ExpSum, OrbitDecomposition, XPolynomial, YLaurent)


class TestTermMaps:
    @pytest.mark.parametrize("cls", MAPS)
    def test_equal_maps_hash_alike_within_one_type_only(self, cls):
        a, b = cls(1, {(1,): 1, (2,): 0}), cls(1, {(1,): 1})
        assert a == b and hash(a) == hash(b)
        assert a != cls(2, {(1,): 1}) and a != cls(1, {(1,): 2})
        others = [other(1, {(1,): 1}) for other in MAPS if other is not cls]
        assert all(a != other for other in others)
        assert len({a, b, *others}) == len(MAPS)

    def test_repr(self):
        assert repr(ExpSum(1, {(1,): 1})) == "ExpSum(rank=1, terms={(1,): 1})"
        assert repr(TermMap(2)) == "TermMap(rank=2, terms={})"
        assert repr(XPolynomial(rank=1, terms={(2,): -1})) == "XPolynomial(rank=1, terms={(2,): -1})"

    def test_default_terms_are_a_fresh_empty_dict(self):
        a, b = ExpSum(1), ExpSum(1)
        assert a.terms == {} and a.terms is not b.terms

    @pytest.mark.parametrize("name", ["rank", "terms", "other"])
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        s = exp_sum((1, 0), "C")
        with pytest.raises(AttributeError):
            setattr(s, name, 3)
        with pytest.raises(AttributeError):
            delattr(s, name)
        assert s == exp_sum((1, 0), "C")


class TestSignedOrbit:
    def test_equality_hash_and_repr(self):
        orb = weyl.orbit((1, 0))
        twin = weyl.orbit.__wrapped__((1, 0))
        assert orb is not twin and orb == twin and hash(orb) == hash(twin)
        assert orb != weyl.orbit((0, 1))
        assert repr(orb) == ("SignedOrbit(rank=2, dominant=(1, 0), points=((1, 0), (-1, 1), "
                             "(0, -1)), signs=(1, -1, 1), even=(True, True, True))")

    def test_keyword_and_positional_construction(self):
        fields = dict(rank=1, dominant=(1,), points=((1,), (-1,)), signs=(1, -1),
                      even=(True, False))
        orb = weyl.SignedOrbit(**fields)
        assert orb == weyl.SignedOrbit(*fields.values()) == weyl.orbit((1,))
        assert orb.as_dict() == fields and list(orb.as_dict()) == list(fields)

    @pytest.mark.parametrize("name", ["rank", "points", "other"])
    def test_fields_cannot_be_assigned(self, name):
        orb = weyl.orbit((1, 1))
        with pytest.raises(AttributeError):
            setattr(orb, name, ())
        assert not hasattr(orb, "__dict__")


class TestRecursionRelation:
    def test_equality_hash_repr_and_frozen(self):
        rel = chebyshev.recursion_relation(1, (1,))
        assert rel == chebyshev.recursion_relation(1, [1]) and hash(rel) == hash(
            chebyshev.recursion_relation(1, (1,)))
        assert rel != chebyshev.recursion_relation(1, (2,))
        assert repr(rel) == ("RecursionRelation(rank=1, j=1, a=(1,), "
                             "rhs=OrbitDecomposition(rank=1, terms={(2,): 1, (0,): 2}))")
        with pytest.raises(AttributeError):
            rel.j = 2


@pytest.mark.parametrize("build", [
    lambda: exp_sum((2, 1), "S"), lambda: OrbitDecomposition(1, {(2,): 1}),
    lambda: XPolynomial(2, {(1, 0): -3}), lambda: weyl.orbit((1, 0, 1)),
    lambda: chebyshev.recursion_relation(2, (1, 1, 0)), analysis.run_chebyshev_suite,
])
def test_copy_and_pickle_round_trips(build):
    value = build()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value) and twin is not value


class TestReports:
    def test_orthogonality_report_as_dict_order(self):
        report = analysis.orthogonality_report("C", 1, 2)
        assert list(report.as_dict()) == ["kind", "rank", "coord_bound", "pairs_tested",
                                          "max_deviation", "expected_diagonal", "passed"]
        assert report == analysis.orthogonality_report("C", 1, 2)
        assert report != analysis.orthogonality_report("E", 1, 2)
        assert repr(report).startswith("OrthogonalityReport(kind='C', rank=1, coord_bound=2, ")

    def test_symmetry_report_as_dict_order_and_defaults(self):
        report = analysis.SymmetryReport((1, 2), trials=3, seed=5, scale=6.0)
        assert report.as_dict() == {
            "lambda": [1, 2], "trials": 3, "seed": 5, "scale": 6.0, "max_c_dev": 0.0,
            "max_s_dev": 0.0, "max_e_dev": 0.0, "tolerance": 1e-12, "passed": True}
        assert list(report.as_dict()) == ["lambda", "trials", "seed", "scale", "max_c_dev",
                                          "max_s_dev", "max_e_dev", "tolerance", "passed"]
        report.max_c_dev = 1.0
        assert not report.passed
        assert report != analysis.SymmetryReport((1, 2), 3, 5, 6.0)

    def test_suite_reports_compare_by_their_checks(self):
        a, b = analysis.SuiteReport("x", 1), analysis.SuiteReport("x", 1)
        assert a == b and a.checks == [] and a.checks is not b.checks
        a.add("one", True, "detail")
        assert a != b
        b.add("one", 1, "detail")
        assert a == b and b.checks == [analysis.Check("one", True, "detail")]
        assert a.as_dict() == {"suite": "x", "seed": 1, "passed": True,
                               "checks": [{"name": "one", "passed": True, "detail": "detail"}]}
        assert repr(a.checks[0]) == "Check(name='one', passed=True, detail='detail')"
        with pytest.raises(TypeError):
            hash(a)
