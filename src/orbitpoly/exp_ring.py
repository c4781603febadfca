"""Exact arithmetic in the group ring of the weight lattice.

:class:`TermMap` is the sparse integer map shared by every exact object in
the package.  An :class:`ExpSum` is a finite integer combination of formal
lattice exponentials, keyed by omega-coordinate weights.  Products are exact
convolutions, W-invariant sums decompose uniquely into orbit sums (distinct
orbits have disjoint supports), and the ring admits exact long division,
which is what turns antisymmetrized sums into characters.

Coefficients are Python ints (arbitrary precision); convolution
coefficients grow combinatorially and must never overflow silently.
"""
from __future__ import annotations

import heapq
import json
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import lie, orbit_functions, weyl

KINDS = ("C", "S", "E")

#: Safety valve for the long-division loop.  Exact divisions terminate in
#: one step per quotient term; this cap only catches pathological
#: non-divisible inputs that would otherwise drift sideways forever.
_DIVISION_STEP_CAP = 200_000


class NotInvariantError(ValueError):
    """Raised when a sum is not constant on Weyl orbits."""

    def __init__(self, message: str, weight: tuple[int, ...]):
        super().__init__(message)
        self.weight = weight


class InexactDivisionError(ValueError):
    """Raised when group-ring division leaves an irreducible remainder."""

    def __init__(self, message: str, term: tuple[int, ...]):
        super().__init__(message)
        self.term = term


def grlex_key(w: Sequence[int]) -> tuple:
    """Graded lexicographic sort key: total degree first, then lex."""
    return (sum(w), tuple(w))


@dataclass(frozen=True)
class TermMap:
    """Finite map from integer-tuple keys to nonzero int coefficients.

    The one sparse core behind exponential sums, orbit decompositions and
    the integer polynomials of ``chebyshev``: zero coefficients are dropped
    on construction, equality needs the same type, and ``*`` is the
    convolution that adds keys.  Arithmetic returns the operand's type.
    """

    rank: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", {w: c for w, c in self.terms.items() if c != 0})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((type(self), self.rank, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check_rank(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return type(self)(self.rank, out)

    def __sub__(self, other):
        self._check_rank(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return type(self)(self.rank, out)

    def __mul__(self, other):
        self._check_rank(other)
        out: dict = {}
        get = out.get
        right = list(other.terms.items())
        for wa, ca in self.terms.items():
            for wb, cb in right:
                key = tuple(map(operator.add, wa, wb))
                out[key] = get(key, 0) + ca * cb
        return type(self)(self.rank, out)

    def scale(self, k: int):
        return type(self)(self.rank, {w: k * c for w, c in self.terms.items()})

    def _check_rank(self, other: "TermMap") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending graded-lexicographic order (canonical)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [
                {"weight": list(w), "coeff": c} for w, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        # The base schema even where a subclass labels its to_json_dict.
        return json.dumps(TermMap.to_json_dict(self))

    @classmethod
    def from_json(cls, text: str):
        data = json.loads(text)
        return cls(
            int(data["rank"]),
            {tuple(t["weight"]): int(t["coeff"]) for t in data["terms"]},
        )


class ExpSum(TermMap):
    """Formal exponential sum: finite map weight -> nonzero int coefficient."""

    def support_bound(self) -> int:
        """max |mu_j| over all stored weights (0 for the empty sum)."""
        return max((abs(c) for w in self.terms for c in w), default=0)

    def evaluate(self, x, basis: str = "alpha") -> complex | np.ndarray:
        """Numeric value sum of coeff * exp(2*pi*i <mu, x>) at the point x,
        or the array of values at every row of an (m, n) grid x."""
        weights = orbit_functions.weight_rows(list(self.terms), self.rank, basis)
        coeffs = np.array(list(self.terms.values()), dtype=float)
        values = orbit_functions.exp_kernel(weights, coeffs, np.asarray(x, dtype=float))
        return complex(values) if values.ndim == 0 else values


class OrbitDecomposition(TermMap):
    """Map dominant weight -> positive integer orbit multiplicity."""

    def expand(self) -> ExpSum:
        """Re-expansion into the plain exponential sum it denotes."""
        # Distinct orbits have disjoint supports.
        return ExpSum(self.rank, {p: mult for lam, mult in self.terms.items()
                                  for p in weyl.orbit(lam).points})

    def weight_count(self) -> int:
        """sum of multiplicity * orbit size (e.g. a character's dimension)."""
        return sum(m * weyl.orbit(lam).size for lam, m in self.terms.items())


def exp_sum(lam: Sequence[int], kind: str) -> ExpSum:
    """Formal sum of a C-, S-, or E-orbit function (coefficients +-1)."""
    lam = lie.as_weight(lam)
    if kind == "C":
        if not lie.is_dominant(lam):
            raise ValueError(f"C requires a dominant weight, got {lam}")
        orb = weyl.orbit(lam)
        return ExpSum(orb.rank, {p: 1 for p in orb.points})
    if kind == "S":
        if not lie.is_strictly_dominant(lam):
            raise ValueError(f"S requires a strictly dominant weight, got {lam}")
        orb = weyl.orbit(lam)
        return ExpSum(orb.rank, dict(orb.items()))
    if kind == "E":
        orb = weyl.orbit(weyl.e_label_dominant(lam))
        return ExpSum(orb.rank, {p: 1 for p in orb.even_points})
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def decompose_into_c(s: ExpSum) -> OrbitDecomposition:
    """Decompose a W-invariant sum into orbit sums with multiplicities.

    Greedy extraction in one pass: take the dominant weights of the input
    in descending graded-lex order and subtract each one's orbit times its
    coefficient.  Each orbit holds exactly one dominant weight and an
    extraction touches only its own orbit's points, so no extraction
    removes or adds another dominant weight: this list is exactly the order
    in which a rescan for the largest remaining dominant weight would find
    them.  Distinct orbits have disjoint supports, so the result is the
    unique decomposition; non-invariant input surfaces as a negative
    coefficient, a short orbit point, or a leftover weight whose dominant
    representative was absent.
    """
    rem = dict(s.terms)
    out: dict = {}
    for lam in sorted(filter(lie.is_dominant, rem), key=grlex_key, reverse=True):
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
    if rem:
        w_bad = max(rem, key=grlex_key)
        raise NotInvariantError(
            f"no dominant weight left but {w_bad} remains with "
            f"coefficient {rem[w_bad]}",
            w_bad,
        )
    return OrbitDecomposition(s.rank, out)


def _heap_entry(w: tuple[int, ...]) -> tuple:
    """Min-heap entry that pops the graded-lex largest weight first."""
    return (-sum(w), tuple(map(operator.neg, w)), w)


def exact_divide(num: ExpSum, den: ExpSum) -> ExpSum:
    """Exact quotient num/den in the group ring.

    Multivariate long division by the graded-lex leading term of den.  The
    remainder's leading term comes off a heap of its weights: every term a
    step adds, mono + w with w below den's leading term, lies strictly
    below the term it cancels (graded lex respects addition), so the
    leading terms fall strictly and a weight is pushed only when it enters
    the remainder.  Entries whose weight has since cancelled out are stale
    and skipped.  A graded-lex floor (leading/trailing terms respect the
    monomial order under products) cuts off non-divisible inputs early;
    exactness is enforced post hoc by re-multiplication.
    """
    num._check_rank(den)
    if not den.terms:
        raise ZeroDivisionError("division by the zero sum")
    if not num.terms:
        return ExpSum(num.rank, {})
    lead_den = max(den.terms, key=grlex_key)
    lead_coeff = den.terms[lead_den]
    floor_key = grlex_key(
        tuple(
            a - b
            for a, b in zip(
                min(num.terms, key=grlex_key), min(den.terms, key=grlex_key)
            )
        )
    )

    rem = dict(num.terms)
    heap = [_heap_entry(w) for w in rem]
    heapq.heapify(heap)
    den_terms = list(den.terms.items())
    quotient: dict = {}
    steps = 0
    while rem:
        t = heapq.heappop(heap)[2]
        if t not in rem:
            continue
        steps += 1
        if steps > _DIVISION_STEP_CAP:
            raise InexactDivisionError(
                f"division did not terminate within {_DIVISION_STEP_CAP} steps; "
                f"remainder leads with {t}",
                t,
            )
        c = rem[t]
        mono = tuple(a - b for a, b in zip(t, lead_den))
        if grlex_key(mono) < floor_key or c % lead_coeff != 0:
            raise InexactDivisionError(
                f"not divisible: irreducible remainder term {t} (coeff {c})", t
            )
        qc = c // lead_coeff
        quotient[mono] = quotient.get(mono, 0) + qc
        for w, d in den_terms:
            key = tuple(map(operator.add, mono, w))
            left = rem.get(key, 0) - qc * d
            if left == 0:
                rem.pop(key, None)
            else:
                if key not in rem:
                    heapq.heappush(heap, _heap_entry(key))
                rem[key] = left
    result = ExpSum(num.rank, quotient)
    if result * den != num:
        t = max(quotient, key=grlex_key) if quotient else (0,) * num.rank
        raise InexactDivisionError("re-multiplication check failed", t)
    return result


def character(lam: Sequence[int]) -> OrbitDecomposition:
    """Weyl character of the highest weight lam as a sum of C-functions.

    chi_lam = S_{lam+rho} / S_rho with rho = (1, ..., 1); the quotient is
    W-invariant and decomposes with the dominant-weight multiplicities.
    """
    lam = lie.as_weight(lam)
    if not lie.is_dominant(lam):
        raise ValueError(f"character requires a dominant weight, got {lam}")
    rho = (1,) * len(lam)
    shifted = tuple(c + 1 for c in lam)
    return decompose_into_c(exact_divide(exp_sum(shifted, "S"), exp_sum(rho, "S")))
