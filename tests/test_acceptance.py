"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the lines directly)."""
import itertools
from math import comb, factorial

import numpy as np
import pytest

from orbitpoly import analysis, chebyshev as ch, exp_ring, lie, orbit_functions as of, weyl
from orbitpoly.exp_ring import exp_sum
from oracles import alpha_to_e_point, rank_one_in_x

SEED = analysis.DEFAULT_SEED


def report(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert passed, f"criterion {num} failed: {description} {suffix}"


def test_criterion_1_rank_one_chebyshev_equivalence():
    # At rank 1, X = 2z: poly_t((m,)) is 2T_m(X/2) (the unit at m = 0) and
    # poly_u((m,)) is U_m(X/2), with the three-term recursion as the oracle.
    ok = all(ch.poly_t((m,)).terms == rank_one_in_x(m, "T") for m in range(0, 21))
    ok &= all(ch.poly_u((m,)).terms == rank_one_in_x(m, "U") for m in range(0, 21))
    report(1, "rank-1 T/U polynomials reduce exactly to the classical kinds", ok)


def test_criterion_2_low_degree_tables_verbatim():
    ok = ch.poly_t((2,)).terms == {(2,): 1, (0,): -2}
    ok &= ch.poly_t((3,)).terms == {(3,): 1, (1,): -3}
    ok &= ch.poly_t((4,)).terms == {(4,): 1, (2,): -4, (0,): 2}
    ok &= ch.poly_u((2,)).terms == {(2,): 1, (0,): -1}
    ok &= ch.poly_u((3,)).terms == {(3,): 1, (1,): -2}
    ok &= ch.poly_u((4,)).terms == {(4,): 1, (2,): -3, (0,): 1}
    report(2, "listed degree-2..4 coefficient tables reproduced exactly", ok)


def test_criterion_3_classical_identity_suite():
    # On the package's own rank-1 polynomials in X, T = poly_t, U = poly_u:
    # dT_m/dX = m U_{m-1}, 2T_{m+1} = X T_m - (4 - X^2) U_{m-1},
    # T_m = 2U_m - X U_{m-1} and T_m = U_m - U_{m-2}.
    t = [ch.poly_t((m,)) for m in range(22)]
    u = [ch.poly_u((m,)) for m in range(21)]
    x = ch.XPolynomial(1, {(1,): 1})
    four_minus_x2 = ch.XPolynomial(1, {(0,): 4, (2,): -1})
    ok = True
    for m in range(1, 21):
        dt = ch.XPolynomial(1, {(k - 1,): k * c for (k,), c in t[m].terms.items()})
        ok &= dt == u[m - 1].scale(m)
        ok &= t[m + 1].scale(2) == x * t[m] - four_minus_x2 * u[m - 1]
        ok &= t[m] == u[m].scale(2) - x * u[m - 1]
        ok &= m < 2 or t[m] == u[m] - u[m - 2]
    report(3, "classical derivative/difference/mixed identities exact, m <= 20", ok)


def test_criterion_4_orbit_combinatorics():
    ok = all(weyl.orbit_size((1,) * n) == factorial(n + 1) for n in range(1, 6))
    for m in (1, 2, 3):
        ok &= set(weyl.orbit((0, m)).points) == {(0, m), (-m, 0), (m, -m)}
        ok &= set(weyl.orbit((m, 0)).points) == {(m, 0), (-m, m), (0, -m)}
    for m1, m2 in ((1, 1), (2, 1), (1, 2), (3, 1)):
        expect = {
            (m1, m2): 1,
            (-m1, m1 + m2): -1,
            (m1 + m2, -m2): -1,
            (-m2, -m1): -1,
            (-m1 - m2, m1): 1,
            (m2, -m1 - m2): 1,
        }
        ok &= dict(weyl.orbit((m1, m2)).items()) == expect
    report(4, "generic orbit sizes and signed rank-2 orbit listings exact", ok)


def _grid_gram(sums: dict, n_points: int) -> tuple[np.ndarray, list]:
    # Test-side quadrature oracle, written directly against the grid.
    labels = list(sums)
    n = sums[labels[0]].rank
    axis = np.arange(n_points) / n_points
    pts = np.stack(
        [m.reshape(-1) for m in np.meshgrid(*([axis] * n), indexing="ij")], axis=1
    )
    rows = []
    for lam in labels:
        terms = sums[lam].terms
        w = np.array(list(terms.keys()), dtype=float)
        c = np.array(list(terms.values()), dtype=float)
        rows.append(np.exp(2j * np.pi * (pts @ w.T)) @ c)
    values = np.stack(rows)
    return (values @ values.conj().T) / values.shape[1], labels


def test_criterion_5_orthogonality_exact_and_quadrature():
    ok = True
    worst = 0.0
    for n in (2, 3):
        doms = [tuple(w) for w in itertools.product(range(4), repeat=n)]
        stricts = [tuple(w) for w in itertools.product(range(1, 4), repeat=n)]
        c_sums = {w: exp_sum(w, "C") for w in doms}
        s_sums = {w: exp_sum(w, "S") for w in stricts}
        for a, b in itertools.combinations_with_replacement(doms, 2):
            expect = weyl.orbit(a).size if a == b else 0
            ok &= analysis.torus_inner_product(c_sums[a], c_sums[b]) == expect
        for a, b in itertools.combinations_with_replacement(stricts, 2):
            expect = factorial(n + 1) if a == b else 0
            ok &= analysis.torus_inner_product(s_sums[a], s_sums[b]) == expect
        for sums in (c_sums, s_sums):
            gram, labels = _grid_gram(sums, 16)
            exact = np.array(
                [
                    [analysis.torus_inner_product(sums[a], sums[b]) for b in labels]
                    for a in labels
                ],
                dtype=float,
            )
            worst = max(worst, float(np.abs(gram - exact).max()))
            ok &= worst < 1e-9
    report(
        5,
        "torus orthogonality exact for coords <= 3 at ranks 2,3; N=16 quadrature agrees",
        ok,
        f"max quadrature deviation {worst:.2e}",
    )


def test_criterion_6_exponential_form_equivalences():
    rng = np.random.default_rng(SEED)
    ok = True
    worst = 0.0
    for n in range(1, 5):
        for _ in range(100):
            lam = tuple(int(c) for c in rng.integers(1, 4, size=n))
            x = np.asarray(alpha_to_e_point(rng.random(n)), dtype=float)
            l_e = np.array([float(v) for v in lie.omega_to_e(lam)])
            k = weyl.stabilizer_order(lam)
            dp = of.d_plus(l_e, x)
            dm = of.d_minus(l_e, x)
            da = of.d_alt(l_e, x)
            devs = (
                abs(dp - k * of.eval_c(lam, x, basis="e")),
                abs(dm - of.eval_s(lam, x, basis="e")),
                abs(da - of.eval_e(lam, x, basis="e")),
                abs(da - (dp + dm) / 2),
            )
            worst = max(worst, *devs)
        ok &= worst < 1e-9
    report(
        6,
        "permanent/determinant/alternating forms match C, S, E at ranks <= 4",
        ok,
        f"max deviation {worst:.2e} over 100 samples per rank",
    )


def test_criterion_7_decomposition_round_trip():
    rng = np.random.default_rng(SEED)
    ok = True
    for n in (1, 2, 3):
        for _ in range(50):
            lam = tuple(int(c) for c in rng.integers(0, 4, size=n))
            mu = tuple(int(c) for c in rng.integers(0, 4, size=n))
            product = exp_sum(lam, "C") * exp_sum(mu, "C")
            dec = exp_ring.decompose_into_c(product)
            ok &= all(isinstance(m, int) and m >= 1 for m in dec.terms.values())
            ok &= dec.expand() == product
            expected_class = (
                lie.congruence_number(lam) + lie.congruence_number(mu)
            ) % (n + 1)
            ok &= all(
                lie.congruence_number(w) == expected_class for w in dec.terms
            )
    report(
        7,
        "products of orbit sums decompose, re-expand exactly, respect congruence",
        ok,
        "50 random pairs per rank, ranks 1..3, coords <= 3",
    )


def test_criterion_8_generic_recursion_term_counts():
    ok = True
    for n, j in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        for m in (2, 3):
            rel = ch.recursion_relation(j, (m,) * n)
            ok &= rel.total_terms == comb(n + 1, j) + 1
            ok &= rel.is_generic
    report(8, "generic stepping relations have C(n+1,j)+1 terms", ok)


def test_criterion_9_laplacian_eigenvalues():
    rng = np.random.default_rng(SEED)
    h = 1e-3
    ok = True
    details = []
    cases = []
    for n in (1, 2, 3):
        rho = (1,) * n
        cases += [("C", rho), ("S", rho), ("E", rho)]
        cases += [("C", tuple(2 if k == j else 0 for k in range(n))) for j in range(n)]
    for kind, lam in cases:
        n = len(lam)
        f = analysis._EVALUATORS[kind]
        factor = 4 * np.pi * np.pi * float(lie.norm_sq(lam))
        min_abs = 0.05 * weyl.orbit(lam).size
        errs, errs_half = [], []
        while len(errs) < 20:
            x = np.asarray(alpha_to_e_point(rng.random(n)), dtype=float)
            val = f(lam, x, basis="e")
            if abs(val) < min_abs:
                continue
            errs.append(
                abs(analysis.fd_laplacian(kind, lam, x, h) + factor * val)
                / (factor * abs(val))
            )
            errs_half.append(
                abs(analysis.fd_laplacian(kind, lam, x, h / 2) + factor * val)
                / (factor * abs(val))
            )
        ratio = max(errs) / max(errs_half)
        ok &= max(errs) < 1e-4 and 3.0 <= ratio <= 5.0
        details.append(f"{kind}{lam}: {max(errs):.1e} ratio {ratio:.2f}")
    report(
        9,
        "finite-difference Laplacian matches -4*pi^2*<lam,lam>*f, O(h^2) decay",
        ok,
        "20 interior points per case",
    )


def test_criterion_10_symmetry_identities():
    ok = True
    worst = 0.0
    for lam in [(1,), (3,), (1, 1), (2, 1), (3, 0), (1, 1, 1), (2, 1, 3), (0, 2, 0)]:
        rep = analysis.symmetry_suite(lam, trials=100, seed=SEED, tolerance=1e-11)
        ok &= rep.passed
        worst = max(
            worst,
            max(rep.max_c_dev, rep.max_s_dev, rep.max_e_dev) / rep.scale,
        )
    report(
        10,
        "C invariant, S sign-flipping, E label-reflection-invariant at 100 points",
        ok,
        f"max deviation/orbit-size {worst:.2e} vs 1e-11",
    )


def test_criterion_11_substitution_polynomials_term_for_term():
    ok = True
    for m1, m2 in ((1, 1), (2, 1), (1, 2)):
        monomials = [
            (m1, m2), (-m1, m1 + m2), (m1 + m2, -m2),
            (-m2, -m1), (-m1 - m2, m1), (m2, -m1 - m2),
        ]
        ok &= ch.substitute_p((m1, m2), "C").terms == {d: 1 for d in monomials}
        ok &= ch.substitute_p((m1, m2), "S").terms == dict(
            zip(monomials, (1, -1, -1, -1, 1, 1))
        )
    report(
        11,
        "exponential-substitution Laurent terms exact, including the S signs",
        ok,
    )
