"""Exact arithmetic in the group ring of the weight lattice.

:class:`TermMap` is the sparse integer map shared by every exact object in
the package.  An :class:`ExpSum` is a finite integer combination of formal
lattice exponentials, keyed by omega-coordinate weights.  Products are exact
convolutions, run on keys packed into single ints (Kronecker substitution)
and, when every coefficient is 1 as in every C- and E-orbit sum, counted
with one ``collections.Counter`` over the packed pair sums; W-invariant sums
decompose uniquely into orbit sums (distinct orbits have disjoint
supports), one a dominant term, each orbit's coefficients read and checked
at C speed on points built outside the orbit cache; and the ring admits
exact long division.  Products of orbit sums (``orbit_product``, over the
smaller label's suffix-sum arrangements, building no orbit) and Weyl
characters (``character``) are computed on dominant weights alone; the
convolution, decomposition and division of whole sums are their oracles.

Coefficients are Python ints (arbitrary precision); convolution
coefficients grow combinatorially and must never overflow silently.
"""
from __future__ import annotations

import collections
import itertools
import operator
from math import factorial
from typing import Sequence

from . import lie, weyl
from ._record import Frozen, set_field

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


class TermMap(Frozen):
    """Finite map from integer-tuple keys to nonzero int coefficients.

    The one sparse core behind exponential sums, orbit decompositions and
    the integer polynomials of ``chebyshev``: zero coefficients are dropped
    on construction, equality needs the same type, and ``*`` is the
    convolution that adds keys, computed on packed int keys (``_convolve``)
    with the keys in first-occurrence order.  Arithmetic returns the
    operand's type.
    """

    __slots__ = _fields = ("rank", "terms")

    def __init__(self, rank: int, terms: dict = {}):  # the default is only read
        # A plain copy runs at C speed; most maps have no zero to drop.
        clean = dict(terms) if 0 not in terms.values() else {w: c for w, c in terms.items() if c != 0}
        set_field(self, "rank", rank)
        set_field(self, "terms", clean)

    @classmethod
    def _adopt(cls, rank: int, terms: dict):
        """The map over ``terms``, a fresh dict that no caller holds, which
        it keeps instead of copying; zero coefficients are deleted in place.
        The constructor copies, since its caller may still change its dict."""
        if 0 in terms.values():
            for w in [w for w, c in terms.items() if c == 0]:
                del terms[w]
        out = cls.__new__(cls)
        set_field(out, "rank", rank)
        set_field(out, "terms", terms)
        return out

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
        return self._adopt(self.rank, out)

    def __sub__(self, other):
        self._check_rank(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return self._adopt(self.rank, out)

    def __mul__(self, other):
        self._check_rank(other)
        return self._adopt(self.rank, _convolve(self.terms, other.terms))

    def scale(self, k: int):
        return self._adopt(self.rank, {w: k * c for w, c in self.terms.items()})

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
        import json
        # The base schema even where a subclass labels its to_json_dict.
        return json.dumps(TermMap.to_json_dict(self))

    @classmethod
    def from_json(cls, text: str):
        import json
        data = json.loads(text)
        return cls(
            int(data["rank"]),
            {tuple(t["weight"]): int(t["coeff"]) for t in data["terms"]},
        )


def _convolve(a: dict, b: dict) -> dict:
    """The convolution of two term dicts, by Kronecker substitution.

    Each operand's keys are shifted by its coordinate-wise minimum and
    packed into one int by Horner's rule in radix 1 + max_i(range_a[i] +
    range_b[i]), so that adding two packed keys adds the shifted tuples
    with no carry.  The keys come out in the order of their first
    occurrence, as from a loop that adds the tuples of every pair.  When
    every coefficient is 1, as in every C- and E-orbit sum, and there are
    at least 64 term pairs, one ``Counter`` over the sums of every pair of
    packed keys, pairs in the pair loop's order, counts the product at C
    speed, and the distinct packed keys are read back as tuples
    (``_unpacked``); other products take a pair loop that adds ints and
    builds each key tuple once, when the key is first met.  The packed keys
    are local, freed on return; the product keeps the result dict itself
    (``TermMap._adopt``).
    """
    if not (a and b):
        return {}
    (low_a, range_a), (low_b, range_b) = _box(a), _box(b)
    radix = 1 + max(map(operator.add, range_a, range_b), default=0)
    packed_a, packed_b = _packed(a, low_a, radix), _packed(b, low_b, radix)
    pairs = len(a) * len(b)
    # Counting has a fixed cost (the Counter, the unpacking) that the pair
    # loop only exceeds from about 50 term pairs on.
    if pairs >= 64 and {1}.issuperset(a.values()) and {1}.issuperset(b.values()):
        counts = collections.Counter(
            itertools.starmap(operator.add, itertools.product(packed_a, packed_b)))
        low = list(map(operator.add, low_a, low_b))
        return dict(zip(_unpacked(list(counts), low, radix, pairs), counts.values()))
    coeffs: dict = {}  # packed key -> coefficient
    keys: dict = {}  # packed key -> key, in the same insertion order
    get = coeffs.get
    add = operator.add
    right = list(zip(packed_b, b, b.values()))
    for pa, wa, ca in zip(packed_a, a, a.values()):
        for pb, wb, cb in right:
            k = pa + pb
            c = get(k)
            if c is None:
                keys[k] = tuple(map(add, wa, wb))
                coeffs[k] = ca * cb
            else:
                coeffs[k] = c + ca * cb
    return dict(zip(keys.values(), coeffs.values()))


def _unpacked(packed: list[int], low: Sequence[int], radix: int, pairs: int):
    """The keys, each read back from its digits in the given radix plus low.

    Two digit tables, of radix^ceil(n/2) rows for the leading coordinates
    and radix^floor(n/2) for the rest, turn a packed key k into
    ``high[k // m] + rest[k % m]``, two lookups and one tuple concatenation
    at C speed; they are built only when they hold no more rows than the
    product has term pairs.  Wider keys are split one coordinate at a time
    with ``divmod``-style column passes.
    """
    n = len(low)
    cut = n - n // 2
    m = radix ** (n // 2)
    if radix ** cut + m <= pairs:
        high = list(itertools.product(*[range(lo, lo + radix) for lo in low[:cut]]))
        rest = list(itertools.product(*[range(lo, lo + radix) for lo in low[cut:]]))
        return map(operator.add,
                   map(high.__getitem__, map(operator.floordiv, packed, itertools.repeat(m))),
                   map(rest.__getitem__, map(operator.mod, packed, itertools.repeat(m))))
    columns = []
    for lo in reversed(low):
        columns.append(map(operator.add, map(operator.mod, packed, itertools.repeat(radix)),
                           itertools.repeat(lo)))
        packed = list(map(operator.floordiv, packed, itertools.repeat(radix)))
    return zip(*reversed(columns))


def _box(terms: dict) -> tuple[list[int], list[int]]:
    """Coordinate-wise minimum and range (max - min) of the keys."""
    columns = list(zip(*terms))
    low = list(map(min, columns))
    return low, list(map(operator.sub, map(max, columns), low))


def _packed(terms: dict, low: Sequence[int], radix: int) -> list[int]:
    """Each key minus low, read as the digits of one int in the given radix
    (Horner's rule)."""
    out = []
    for w in terms:
        v = 0
        for x, lo in zip(w, low):
            v = v * radix + x - lo
        out.append(v)
    return out


class ExpSum(TermMap):
    """Formal exponential sum: finite map weight -> nonzero int coefficient."""

    def support_bound(self) -> int:
        """max |mu_j| over all stored weights (0 for the empty sum)."""
        return max((abs(c) for w in self.terms for c in w), default=0)

    def evaluate(self, x, basis: str = "alpha") -> complex | np.ndarray:
        """Numeric value sum of coeff * exp(2*pi*i <mu, x>) at the point x,
        or the array of values at every row of an (m, n) grid x."""
        import numpy as np

        from . import orbit_functions

        weights = orbit_functions.weight_rows(list(self.terms), self.rank, basis)
        coeffs = np.array(list(self.terms.values()), dtype=float)
        values = orbit_functions.exp_kernel(weights, coeffs, np.asarray(x, dtype=float))
        return complex(values) if values.ndim == 0 else values


class OrbitDecomposition(TermMap):
    """Map dominant weight -> positive integer orbit multiplicity."""

    def expand(self) -> ExpSum:
        """Re-expansion into the plain exponential sum it denotes."""
        # Distinct orbits have disjoint supports; uncached, so nothing is evicted.
        return ExpSum._adopt(self.rank, {
            p: mult for lam, mult in self.terms.items()
            for p in weyl._orbit_points(lie.dominant_weight(lam, "orbit"))})

    def weight_count(self) -> int:
        """sum of multiplicity * orbit size (e.g. a character's dimension);
        the keys are dominant weights, as every producer makes them."""
        full = factorial(self.rank + 1)
        return sum(m * (full // weyl._stabilizer_order(lam)) for lam, m in self.terms.items())


def exp_sum(lam: Sequence[int], kind: str) -> ExpSum:
    """Formal sum of a C-, S-, or E-orbit function (coefficients +-1)."""
    if kind == "C":
        orb = weyl.orbit(lie.dominant_weight(lam, "C"))
        return ExpSum._adopt(orb.rank, dict.fromkeys(orb.points, 1))
    if kind == "S":
        lam = lie.as_weight(lam)
        if not lie.is_strictly_dominant(lam):
            raise ValueError(f"S requires a strictly dominant weight, got {lam}")
        orb = weyl.orbit(lam)
        return ExpSum._adopt(orb.rank, dict(orb.items()))
    if kind == "E":
        orb = weyl.orbit(weyl.e_label_dominant(lam))
        return ExpSum._adopt(orb.rank, dict.fromkeys(orb.even_points, 1))
    lie.as_weight(lam)
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def decompose_into_c(s: ExpSum) -> OrbitDecomposition:
    """Decompose a W-invariant sum into orbit sums with multiplicities.

    Greedy extraction in one pass: a W-invariant sum has one orbit sum per
    dominant term (Klimyk & Patera, SIGMA 2 (2006) 006).  Each dominant
    term lam, in descending graded-lex order, is its orbit's multiplicity;
    the orbit's points are built uncached (``weyl._orbit_points``) and
    their coefficients read and compared with it at C speed.  The input is
    accepted when none differs and the orbit sizes add up to the number of
    terms (distinct orbits have disjoint supports).

    Other input raises what extraction meets first: a negative
    multiplicity, else an orbit's first short point in orbit order, else
    the graded-lex largest leftover: a point's excess over its
    multiplicity, or a term on no orbit, collected only on this path.
    """
    terms = s.terms
    dominant = list(terms)
    for j in range(s.rank):
        # One coordinate at a time, at C speed: most keys drop out early.
        dominant = list(itertools.compress(dominant, map(
            operator.ge, map(operator.itemgetter(j), dominant), itertools.repeat(0))))
    out, size, excess = {}, 0, False
    for lam in sorted(dominant, key=grlex_key, reverse=True):
        mult = terms[lam]
        if mult < 0:
            raise NotInvariantError(
                f"negative multiplicity {mult} at dominant weight {lam}", lam
            )
        points = weyl._orbit_points(lam)
        coeffs = list(map(terms.get, points))
        if coeffs.count(mult) != len(coeffs):
            for p, c in zip(points, coeffs):
                if c is None or c < mult:
                    raise NotInvariantError(
                        f"sum is not constant on the orbit of {lam}: "
                        f"weight {p} falls short by {mult - (c or 0)}",
                        p,
                    )
            excess = True
        size += len(points)
        out[lam] = mult
    if size == len(terms) and not excess:
        return OrbitDecomposition._adopt(s.rank, out)
    rem = dict(terms)
    for lam, mult in out.items():
        for p in weyl._orbit_points(lam):
            c = rem.pop(p) - mult
            if c:
                rem[p] = c
    w_bad = max(rem, key=grlex_key)
    raise NotInvariantError(
        f"no dominant weight left but {w_bad} remains with "
        f"coefficient {rem[w_bad]}",
        w_bad,
    )


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

    Every quotient term of an exact division lies in the box
    min_i(num) - min_i(den) <= q_i <= max_i(num) - max_i(den): the extremes
    along a coordinate add up under products, since the Laurent ring has
    no zero divisors.  A step whose quotient term leaves the box raises at
    once, so a non-divisible input cannot drift sideways within one total
    degree, and the loop runs at most once per point of the box.
    """
    import heapq
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

    low = tuple(map(operator.sub, map(min, zip(*num.terms)), map(min, zip(*den.terms))))
    high = tuple(map(operator.sub, map(max, zip(*num.terms)), map(max, zip(*den.terms))))

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
        if (grlex_key(mono) < floor_key or c % lead_coeff != 0
                or not all(map(operator.le, low, mono))
                or not all(map(operator.le, mono, high))):
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


def orbit_product(a: Sequence[int], b: Sequence[int]) -> OrbitDecomposition:
    """Decomposition of the product C_a * C_b of two orbit sums.

    Stabilizer form of the product (Klimyk & Patera, SIGMA 2 (2006) 006):
    C_a * C_b = (1/|W_b|) sum_{q in W a} |W_{dom(b+q)}| C_{dom(b+q)}, over
    the smaller orbit, never built: q's suffix sums, up to a shift that the
    sort for dom(b+q) ignores, are an arrangement (``weyl._arrangements``)
    of a's distinct ones.  The terms come in descending graded-lex order, as
    from ``decompose_into_c`` of the convolution; callers print them as is.
    """
    a, b = lie.dominant_weight(a, "C"), lie.dominant_weight(b, "C")
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    stab_a, stab_b = weyl._stabilizer_order(a), weyl._stabilizer_order(b)
    if stab_a < stab_b:
        a, b, stab_b = b, a, stab_a
    values, pattern = weyl.value_counts(a)
    rows, width = weyl._arrangements(pattern)[0], len(a) + 1
    columns = [weyl._column(rows[j::width], [s + v for v in values])
               for j, s in enumerate(lie.suffix_sums(b))]
    counts: dict = {}
    for p in zip(*columns):
        p = sorted(p, reverse=True)
        dom = tuple(map(operator.sub, p, p[1:]))
        counts[dom] = counts.get(dom, 0) + 1
    terms = {}
    for dom in sorted(counts, key=grlex_key, reverse=True):
        mult, rest = divmod(counts[dom] * weyl._stabilizer_order(dom), stab_b)
        if rest:
            raise ArithmeticError(
                f"orbit count of {dom} in C_{a} * C_{b} is not divisible by |W_b| = {stab_b}"
            )
        terms[dom] = mult
    return OrbitDecomposition._adopt(len(a), terms)


def character(lam: Sequence[int]) -> OrbitDecomposition:
    """Weyl character of the highest weight lam as a sum of C-functions.

    Freudenthal's formula on the dominant weights alone (Humphreys §22;
    Moody & Patera, Math. Comp. 48 (1987)), in the integer suffix-sum
    coordinates p of ``lie.suffix_sums``: every weight of V_lam has the
    same coordinate sum, (mu, e_i - e_j) = p_i - p_j, and the difference of
    two squared norms is the difference of the plain sums of squares.

    The dominant weights are generated from lam by saturation, dom(mu -
    alpha) for every positive root alpha with (mu, alpha) >= 2 (at 1,
    mu - alpha is the reflection of mu), and solved in descending
    |mu + rho|^2, which puts every dom(mu + k alpha) first.
    Every division is checked for exactness and the result against the
    Weyl dimension formula.  The terms come in descending graded-lex order.
    """
    lam = lie.dominant_weight(lam, "character")
    n = len(lam)
    top = lie.suffix_sums(lam)
    pairs = list(itertools.combinations(range(n + 1), 2))
    found = {top}
    todo = [top]
    while todo:
        p = todo.pop()
        for i, j in pairs:
            if p[i] - p[j] >= 2:
                q = list(p)
                q[i] -= 1
                q[j] += 1
                dom = tuple(sorted(q, reverse=True))
                if dom not in found:
                    found.add(dom)
                    todo.append(dom)

    def shifted_norm(p):
        # |mu + rho|^2 up to a constant shared by every weight of V_lam.
        return sum((c + n - k) ** 2 for k, c in enumerate(p))

    top_norm = shifted_norm(top)
    mult = {top: 1}
    for p in sorted(found, key=shifted_norm, reverse=True)[1:]:
        total = 0
        for i, j in pairs:
            q = list(p)
            k = 1
            while True:
                q[i] += 1
                q[j] -= 1
                above = mult.get(tuple(sorted(q, reverse=True)), 0)
                if not above:
                    break  # weight strings are unbroken
                total += above * (p[i] - p[j] + 2 * k)
                k += 1
        m, rest = divmod(2 * total, top_norm - shifted_norm(p))
        if rest or m <= 0:
            raise ArithmeticError(f"Freudenthal's formula gave {2 * total}/"
                                  f"{top_norm - shifted_norm(p)} at {p}")
        mult[p] = m
    terms = {tuple(map(operator.sub, p, p[1:])): m for p, m in mult.items()}
    dec = OrbitDecomposition._adopt(n, dict(sorted(
        terms.items(), key=lambda wm: grlex_key(wm[0]), reverse=True)))
    if dec.weight_count() != lie.weyl_dimension(lam):
        raise ArithmeticError(
            f"character of {lam} has {dec.weight_count()} weights, "
            f"the Weyl dimension formula gives {lie.weyl_dimension(lam)}"
        )
    return dec
