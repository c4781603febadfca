"""Multivariate Chebyshev-type polynomials built from orbit functions.

Two constructions live here.  ``poly_t`` / ``poly_u`` express orbit sums and
characters as exact integer polynomials in the fundamental variables
X_1..X_n (the orbit sums of the fundamental weights), by one recursion on
the products X_j * P_mu over the weights mu + w, w a weight of the
minuscule omega_j with mu + w dominant: for U the Pieri rule
X_j * U_mu = sum of U_{mu+w}, for T the same sum of orbit sums C_{mu+w},
each weighted by a ratio of stabilizer orders.
``substitute_p`` applies the exponential change of variables
y_j = exp(2*pi*i x_j), turning each orbit exponential into a Laurent
monomial.

The one-variable classical Chebyshev polynomials, rank-1 polynomials in z,
are kept alongside as the reduction oracle: at rank 1, T-polynomials are
twice the classical first kind under X = 2z, and U-polynomials are exactly
the classical second kind.
"""
from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import comb, factorial, prod
from typing import Callable, Sequence

from . import exp_ring, lie, weyl
from ._record import Frozen, set_field
from .exp_ring import OrbitDecomposition, TermMap, exp_sum


# ---------------------------------------------------------------------------
# Sparse polynomials in the fundamental variables / in the y-variables.

class Polynomial(TermMap):
    """Sparse integer polynomial: map exponent tuple -> coefficient.

    Subclasses differ only in the variable letter ``VAR`` they print with.
    """

    VAR: str

    def __call__(self, values: Sequence[complex]) -> complex:
        total = 0j
        for deg, c in self.terms.items():
            prod = complex(c)
            for v, d in zip(values, deg):
                if d:
                    prod *= v ** d
            total += prod
        return total

    def to_json_dict(self, lam: Sequence[int], kind: str) -> dict:
        """Labelled table entry (the ``poly --json`` schema); ``to_json`` and
        ``from_json`` keep the plain TermMap schema."""
        return {
            "algebra": f"A{self.rank}",
            "lambda": list(lam),
            "kind": kind,
            "terms": [{"deg": list(d), "coeff": c} for d, c in self.sorted_terms()],
        }

    def __str__(self) -> str:
        parts = []
        for deg, c in self.sorted_terms():
            body = "*".join(f"{self.VAR}{j}" + (f"^{d}" if d != 1 else "")
                            for j, d in enumerate(deg, start=1) if d)
            chunk = f"{abs(c)}*{body}" if body and abs(c) != 1 else body or str(abs(c))
            sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
            parts.append(sign + chunk)
        return " ".join(parts) or "0"


class XPolynomial(Polynomial):
    """Integer polynomial in X_1..X_n: map degree tuple -> coefficient."""

    VAR = "X"


class YLaurent(Polynomial):
    """Integer Laurent polynomial in y_1..y_n (exponents may be negative)."""

    VAR = "y"


# ---------------------------------------------------------------------------
# Classical one-variable polynomials, the rank-1 oracle.

class ClassicalPoly(Polynomial):
    """Integer polynomial in one variable z: the rank-1 polynomial keyed by
    (k,) for z^k, with dense coefficients, a derivative and Horner
    evaluation at a scalar."""

    VAR = "z"

    @classmethod
    def of(cls, *coeffs: int) -> "ClassicalPoly":
        """The polynomial sum coeffs[k] * z^k."""
        return cls(1, {(k,): c for k, c in enumerate(coeffs)})

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Dense coefficients up to the degree; coeffs[k] multiplies z^k."""
        return tuple(self.terms.get((k,), 0) for k in range(self.degree + 1))

    @property
    def degree(self) -> int:
        return max((k for (k,) in self.terms), default=-1)

    def derivative(self) -> "ClassicalPoly":
        return type(self)(1, {(k - 1,): k * c for (k,), c in self.terms.items()})

    def __call__(self, z: complex) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * z + c
        return out


_Z = ClassicalPoly.of(0, 1)
_ONE = ClassicalPoly.of(1)
_ONE_MINUS_Z2 = _ONE - _Z * _Z


#: Per kind, keyed by P_1's coefficients: the last (k, P_{k-1}, P_k) that
#: the three-term recursion reached.  One pair, not every degree, so the
#: memory stays that of the two polynomials the recursion holds anyway.
_LAST: dict[tuple[int, ...], tuple[int, ClassicalPoly, ClassicalPoly]] = {}


def _three_term(m: int, first: ClassicalPoly) -> ClassicalPoly:
    """P_m of the recursion P_{k+1} = 2z P_k - P_{k-1}, P_0 = 1, P_1 = first.

    It steps on from the last pair it reached for this P_1, and starts
    again, one step back at P_{-1} = 2z - first, only for a lower degree.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    kind = first.coeffs
    k, prev, cur = _LAST.get(kind, (0, None, None))
    if prev is None or m < k:
        k, prev, cur = 0, _Z.scale(2) - first, _ONE
    for _ in range(m - k):
        # 2z * P_k shifts every degree up by one: the terms of the product
        # 2z * P_k, in its order, without a convolution.
        two_z_cur = ClassicalPoly._adopt(1, {(d + 1,): 2 * c for (d,), c in cur.terms.items()})
        prev, cur = cur, two_z_cur - prev
    _LAST[kind] = (m, prev, cur)
    return cur


@lru_cache(maxsize=None)
def classical_t(m: int) -> ClassicalPoly:
    """First-kind Chebyshev polynomial via the three-term recursion."""
    return _three_term(m, _Z)


@lru_cache(maxsize=None)
def classical_u(m: int) -> ClassicalPoly:
    """Second-kind Chebyshev polynomial via the three-term recursion."""
    return _three_term(m, _Z.scale(2))


def check_classical_identities(m: int) -> dict[str, bool]:
    """Exact integer-identity checks tying the two classical kinds together.

    Verifies, in their valid ranges: T_m' = m U_{m-1}; 2 T_m = U_m - U_{m-2};
    T_{m+1} = z T_m - (1 - z^2) U_{m-1}; and T_m = U_m - z U_{m-1}.
    """
    out: dict[str, bool] = {}
    if m >= 1:
        out["derivative"] = classical_t(m).derivative() == classical_u(m - 1).scale(m)
        out["mixed_step"] = classical_t(m + 1) == (
            _Z * classical_t(m) - _ONE_MINUS_Z2 * classical_u(m - 1)
        )
        out["u_minus_zu"] = classical_t(m) == classical_u(m) - _Z * classical_u(m - 1)
    if m >= 2:
        out["u_difference"] = classical_u(m) - classical_u(m - 2) == classical_t(m).scale(2)
    out["all"] = all(v for k, v in out.items())
    return out


# ---------------------------------------------------------------------------
# Recursive construction.

#: One tuple per distinct monomial, shared by both kinds' memos.
_MONOMIALS: dict[tuple[int, ...], tuple[int, ...]] = {}
#: (rank, j) -> {monomial: the monomial times X_{j+1}}, filled on first use.
_SHIFTS: dict[tuple[int, int], dict] = {}


def _monomial(deg: tuple[int, ...]) -> tuple[int, ...]:
    return _MONOMIALS.setdefault(deg, deg)


def _build(
    lam: tuple[int, ...],
    pick: Callable[[tuple[int, ...]], int],
    others: Callable[[tuple[int, ...], int, tuple[int, ...]], list],
    memo: dict,
) -> XPolynomial:
    """Polynomial of lam by the step X_{j+1} * P_mu = P_lam + sum mult * P_nu,
    memoized per weight; the one recursion behind both kinds.

    j = pick(lam) is a coordinate with lam_j > 0, mu = lam - omega_{j+1},
    and others(lam, j, mu) lists the (nu, mult) of the step other than lam.
    Depth-first on an explicit stack, since the depth equals the degree: a
    weight's step is taken on first reach, mu and the step's other weights
    are built in order, then the weight is solved for; the same order, and
    the same memo, as plain recursion.  X_{j+1} * P_mu maps each monomial
    through ``_SHIFTS``, so the memos hold one tuple per distinct monomial.
    """
    n = len(lam)
    pending: dict = {}
    stack = [lam]
    while stack:
        w = stack[-1]
        if w in memo:
            stack.pop()
        elif w in pending:
            j, mu, rest = pending.pop(w)
            src = memo[mu].terms
            shift = _SHIFTS.setdefault((n, j), {})
            try:
                terms = dict(zip(map(shift.__getitem__, src), src.values()))
            except KeyError:
                for d in src:
                    if d not in shift:
                        shift[d] = _monomial(d[:j] + (d[j] + 1,) + d[j + 1:])
                terms = dict(zip(map(shift.__getitem__, src), src.values()))
            # X_{j+1} * P_mu minus mult * P_nu for the other weights, in place; a
            # key is dropped the moment it cancels, so the terms keep the
            # order of the same steps done with TermMap's - and scale.
            for nu, mult in rest:
                for d, c in memo[nu].terms.items():
                    left = terms.get(d, 0) - mult * c
                    if left:
                        terms[d] = left
                    else:
                        del terms[d]
            memo[w] = XPolynomial._adopt(n, terms)
        elif sum(w) <= 1:
            memo[w] = XPolynomial._adopt(n, {_monomial(w): 1})
        else:
            j = pick(w)
            mu = tuple(c - 1 if k == j else c for k, c in enumerate(w))
            rest = others(w, j, mu)
            pending[w] = (j, mu, rest)
            stack += reversed([mu] + [nu for nu, _ in rest])
    return memo[lam]


@lru_cache(maxsize=None)
def _pieri_steps(support: tuple[bool, ...], j: int) -> tuple[list, list]:
    """The weights w of omega_{j+1} with mu + w dominant, for every mu of
    this support (which coordinates are nonzero): (steps, order).

    mu's suffix sums fall into blocks of equal values, of sizes b_i (a zero
    coordinate joins its place to the block before), its multiplicity
    pattern.  A weight of omega_{j+1} adds a 0/1 vector with j+1 ones to
    them, and mu + w is dominant exactly when block i gets its k_i ones in
    its first places.  ``steps`` lists (w, prod_i k_i! (b_i - k_i)!) for
    each such k with sum j+1, in descending lexicographic order of k, which
    is the lexicographic order of the places of the ones; the first is
    omega_{j+1} itself.  ``order`` indexes the other steps in descending
    graded-lex order of w, which is that of mu + w for any mu.
    """
    blocks, run = [], 1
    for nonzero in support:
        if nonzero:
            blocks.append(run)
            run = 1
        else:
            run += 1
    blocks.append(run)
    steps = []
    for k in itertools.product(*(range(b, -1, -1) for b in blocks)):
        if sum(k) == j + 1:
            s = [bit for b, c in zip(blocks, k) for bit in [1] * c + [0] * (b - c)]
            steps.append((tuple(map(operator.sub, s, s[1:])),
                          prod(factorial(c) * factorial(b - c) for b, c in zip(blocks, k))))
    order = sorted(range(1, len(steps)), key=lambda i: exp_ring.grlex_key(steps[i][0]),
                   reverse=True)
    return steps, order


def _orbit_terms(lam: tuple[int, ...], j: int, mu: tuple[int, ...]) -> list:
    """The first kind's step: the orbit sums of X_{j+1} * C_mu but C_lam,
    in descending graded-lex order.

    In the stabilizer form of the product (``exp_ring.orbit_product``),
    (1/|W_mu|) sum over the weights q of omega_{j+1} of |W_nu| C_nu with
    nu = dom(mu + q), the q that give one nu of ``_pieri_steps`` are the
    prod_i C(b_i, k_i) ways to place k_i ones in each block, and
    |W_mu| = prod_i b_i!: so C_nu has multiplicity
    |W_nu| / prod_i k_i! (b_i - k_i)!, over the same nu as the Pieri rule.
    """
    steps, order = _pieri_steps(tuple(map(bool, mu)), j)
    if weyl._stabilizer_order(lam) != steps[0][1]:
        raise AssertionError(
            f"expected multiplicity 1 for {lam} in X_{j + 1} * C_{mu}"
        )
    out = []
    for i in order:
        w, ways = steps[i]
        nu = tuple(map(operator.add, mu, w))
        out.append((nu, weyl._stabilizer_order(nu) // ways))
    return out


def _pieri_terms(lam: tuple[int, ...], j: int, mu: tuple[int, ...]) -> list:
    """The second kind's step, the Pieri rule: X_{j+1} * U_mu is the sum of
    U_{mu+w}, each once, over the weights w of omega_{j+1} with mu + w
    dominant.  lam is the w = omega_{j+1} term, which is left out."""
    steps, _ = _pieri_steps(tuple(map(bool, mu)), j)
    return [(tuple(map(operator.add, mu, w)), 1) for w, _ in steps[1:]]


_T_MEMO: dict[tuple[int, ...], XPolynomial] = {}
_U_MEMO: dict[tuple[int, ...], XPolynomial] = {}


def _first_positive(lam: tuple[int, ...]) -> int:
    return next(k for k, c in enumerate(lam) if c > 0)


def poly_t(lam: Sequence[int]) -> XPolynomial:
    """First-kind polynomial of lam: the orbit sum C_lam written exactly in
    the fundamental variables X_j = C at the j-th fundamental weight.

    Built by induction: split off the first fundamental weight with a
    positive coordinate, write the product X_j * C_mu as orbit sums by the
    Pieri rule's weights (``_orbit_terms``; lam enters with multiplicity
    one), and solve for C_lam.  Results are memoized per weight; any valid
    choice of j yields the same polynomial.
    """
    lam = lie.dominant_weight(lam, "poly_t")
    return _build(lam, _first_positive, _orbit_terms, _T_MEMO)


def poly_u(lam: Sequence[int]) -> XPolynomial:
    """Second-kind polynomial: the character of lam in the X variables.

    Built like poly_t, with the character U in place of the orbit sum C:
    every omega_j of A_n is minuscule, so X_j * U_mu is the sum of U_{mu+w}
    over the weights w of omega_j with mu + w dominant, each with
    multiplicity one (the Pieri rule X_j = e_j, U = s_lam; Macdonald I.5),
    and lam = mu + omega_j is one of them.  Results are memoized per
    weight; ``exp_ring.character`` is not called, it is the tests' oracle.
    """
    lam = lie.dominant_weight(lam, "poly_u")
    return _build(lam, _first_positive, _pieri_terms, _U_MEMO)


def substitute_p(lam: Sequence[int], kind: str) -> YLaurent:
    """Laurent polynomial from the substitution y_j = exp(2*pi*i x_j).

    Every orbit exponential becomes the monomial with the orbit point's
    omega coordinates as exponents; coefficients stay +-1 (the signs of an
    S-sum live in the coefficients, never an explicit imaginary factor).
    """
    s = exp_sum(lam, kind)
    return YLaurent._adopt(s.rank, s.terms)


class RecursionRelation(Frozen):
    """Decomposition of X_j * C_a, the step underlying poly_t; j is the
    1-based fundamental-variable index."""

    __slots__ = _fields = ("rank", "j", "a", "rhs")

    def __init__(self, rank: int, j: int, a: tuple[int, ...], rhs: OrbitDecomposition):
        set_field(self, "rank", rank)
        set_field(self, "j", j)
        set_field(self, "a", a)
        set_field(self, "rhs", rhs)

    @property
    def total_terms(self) -> int:
        """Orbit terms on the right plus the product on the left."""
        return len(self.rhs.terms) + 1

    @property
    def generic_terms(self) -> int:
        """Expected total for generic a: orbit size of omega_j, plus one."""
        return comb(self.rank + 1, self.j) + 1

    @property
    def is_generic(self) -> bool:
        """All decomposition weights strictly dominant with multiplicity 1."""
        return all(
            mult == 1 and lie.is_strictly_dominant(nu)
            for nu, mult in self.rhs.terms.items()
        )


def recursion_relation(j: int, a: Sequence[int]) -> RecursionRelation:
    a = lie.dominant_weight(a, "recursion")
    n = len(a)
    if not 1 <= j <= n:
        raise ValueError(f"fundamental index {j} out of range 1..{n}")
    # X_j * C_a by the first kind's Pieri step, with lam = a + omega_j (the
    # one term of multiplicity 1 it leaves out) put at its graded-lex place.
    lam = tuple(c + (k == j - 1) for k, c in enumerate(a))
    terms = _orbit_terms(lam, j - 1, a)
    key = exp_ring.grlex_key(lam)
    at = next((i for i, (nu, _) in enumerate(terms) if exp_ring.grlex_key(nu) < key),
              len(terms))
    terms.insert(at, (lam, 1))
    return RecursionRelation(rank=n, j=j, a=a, rhs=OrbitDecomposition._adopt(n, dict(terms)))


def a1_z_coefficients(poly: XPolynomial) -> tuple[int, ...]:
    """Coefficients in z after substituting X = 2z into a rank-1 polynomial."""
    if poly.rank != 1:
        raise ValueError("substitution X = 2z only applies at rank 1")
    return ClassicalPoly(1, {d: c * 2 ** d[0] for d, c in poly.terms.items()}).coeffs
