"""The Weyl group of the A-series, acting as the symmetric group S_{n+1}.

Orbits of a dominant weight are generated by arranging its e-coordinates,
never by reflection closure, so duplicate points cannot arise.  Each orbit
point carries a parity sign.

Orbit generation works on the integer suffix sums p_j = lam_j + ... + lam_n
(p_{n+1} = 0) of ``lie.suffix_sums``, which are the e-coordinates shifted by
a constant: the omega coordinates of an arrangement are its consecutive
differences, exact integers with no scaling.  Picking the distinct
remaining values in descending order at each position yields the
arrangements already in descending lexicographic order, and picking value v
adds to the inversion count the number of remaining values greater than v,
so the sign is carried along instead of recomputed per point.

Sign convention.  The sign of a point is the parity of the permutation
carrying the dominant arrangement of e-coordinates to the point's
arrangement.  For a weight with pairwise distinct e-coordinates that
permutation is unique.  When coordinates repeat, the sign is fixed by the
minimal sorting permutation (a stable descending sort), which makes the
dominant point's sign +1; such points only matter through the documented
even-point rule, since antisymmetrized sums vanish on them identically.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

from . import lie
from .lie import suffix_sums


def signed_permutations(items: tuple) -> Iterator[tuple[tuple, int]]:
    """Yield (arrangement, parity) for all permutations of distinct items.

    Parity is relative to the input order.  Built by inserting the head
    element into every gap of each sub-permutation; an insertion that skips
    p elements costs p adjacent transpositions.
    """
    if len(items) <= 1:
        yield items, 1
        return
    head, rest = items[0], items[1:]
    for sub, s in signed_permutations(rest):
        for pos in range(len(sub) + 1):
            sign = s if pos % 2 == 0 else -s
            yield sub[:pos] + (head,) + sub[pos:], sign


def stable_sort_sign(arrangement: Sequence) -> int:
    """Parity of the stable descending sort of the arrangement.

    This is the minimal sorting permutation; for distinct values it is the
    unique one.  Its inversions are the pairs whose earlier value is
    smaller, so already-sorted input gives +1.
    """
    return -1 if sum(a < b for a, b in itertools.combinations(arrangement, 2)) % 2 else 1


@dataclass(frozen=True)
class SignedOrbit:
    """A Weyl orbit with parity signs and the even-subgroup sub-orbit.

    Points are omega-coordinate weights ordered by descending lexicographic
    e-coordinates, so the dominant point always comes first.  ``even[i]`` is
    True when point i is reachable from the dominant point by an even
    permutation; when the stabilizer contains an odd permutation (repeated
    e-coordinates) every point is, otherwise exactly the sign +1 points are.
    """

    rank: int
    dominant: tuple[int, ...]
    points: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]
    even: tuple[bool, ...]

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def stabilizer_order(self) -> int:
        return factorial(self.rank + 1) // len(self.points)

    @property
    def even_points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p for p, e in zip(self.points, self.even) if e)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return zip(self.points, self.signs)


def _signed_arrangements(values: tuple[int, ...], memo: dict) -> list:
    """(omega point, first value, sign) for every distinct arrangement of
    the descending multiset ``values``, the arrangements in descending
    lexicographic order.

    The sign is the parity of the arrangement's inversions (pairs whose
    earlier value is smaller), i.e. of its stable descending sort.  Value
    v at index i of the descending list has exactly i larger values left.
    The arrangements of a sub-multiset do not depend on the prefix before
    it, so each is built once per orbit and shared through ``memo``.
    """
    got = memo.get(values)
    if got is not None:
        return got
    if len(values) == 1:
        out = [((), values[0], 1)]
    else:
        out = []
        for i, v in enumerate(values):
            if i and v == values[i - 1]:
                continue
            flip = -1 if i % 2 else 1
            rest = _signed_arrangements(values[:i] + values[i + 1:], memo)
            out += [((v - first,) + point, v, flip * sign) for point, first, sign in rest]
    memo[values] = out
    return out


@lru_cache(maxsize=128)
def orbit(lam: tuple[int, ...]) -> SignedOrbit:
    """Signed Weyl orbit of a dominant weight (eagerly materialized)."""
    lam = lie.dominant_weight(lam, "orbit")
    entries = _signed_arrangements(suffix_sums(lam), {})
    signs = tuple(sign for _, _, sign in entries)
    if lie.is_strictly_dominant(lam):
        # Generic: the even-subgroup orbit is exactly the +1-parity half.
        even = tuple(s > 0 for s in signs)
    else:
        # An equal pair puts an odd element in the stabilizer, so every
        # arrangement is reachable by an even permutation as well.
        even = (True,) * len(entries)
    return SignedOrbit(
        rank=len(lam),
        dominant=lam,
        points=tuple(point for point, _, _ in entries),
        signs=signs,
        even=even,
    )


def dominant_representative(mu: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Dominant weight of mu's orbit and the parity carrying it to mu.

    Sorts the suffix sums (the e-coordinates up to a shift) descending; the
    sign is the parity of the stable sorting permutation, so dominant input
    returns (mu, +1).
    """
    p = suffix_sums(lie.as_weight(mu))
    top = sorted(p, reverse=True)
    return tuple(a - b for a, b in zip(top, top[1:])), stable_sort_sign(p)


def e_label_dominant(lam: Sequence[int]) -> tuple[int, ...]:
    """Dominant representative of an E-function label.

    E labels are the weights in P+ or in r_i P+ for some i; anything else
    raises ValueError.  r_i of a dominant weight can be negative at
    coordinate i only, so a label that is not dominant is an E label
    exactly when r_i of it is dominant for its first negative coordinate i.
    Shared by ``exp_sum(lam, "E")`` and ``eval_e``.
    """
    lam = lie.as_weight(lam)
    negative = [i for i, c in enumerate(lam, 1) if c < 0]
    if not negative:
        return lam
    dom = reflect_weight(negative[0], lam)
    if not lie.is_dominant(dom):
        raise ValueError(f"E requires a weight in P+ or r_i P+, got {lam}")
    return dom


def orbit_size(lam: Sequence[int]) -> int:
    """(n+1)! divided by the factorials of e-coordinate multiplicities."""
    return factorial(len(lam) + 1) // stabilizer_order(lam)


def stabilizer_order(lam: Sequence[int]) -> int:
    """Order of the stabilizer of a dominant weight in W.

    Equal neighbouring e-coordinates are exactly the zero omega
    coordinates, so a maximal run of r zeros is a block of r+1 equal
    coordinates and contributes (r+1)!, built up one factor per zero.
    """
    lam = lie.dominant_weight(lam, "orbit_size")
    order = run = 1
    for c in lam:
        run = 1 if c else run + 1
        order *= run
    return order


def reflect(i: int, coords: Sequence) -> tuple:
    """Elementary reflection r_i on e-coordinates: swap entries i and i+1.

    1-based index, 1 <= i <= n for a length-(n+1) vector; works on exact
    weights and real points alike and preserves the zero-sum hyperplane.
    """
    coords = tuple(coords)
    if not 1 <= i <= len(coords) - 1:
        raise ValueError(f"reflection index {i} out of range 1..{len(coords) - 1}")
    j = i - 1
    return coords[:j] + (coords[j + 1], coords[j]) + coords[j + 2:]


def reflect_weight(i: int, lam: Sequence[int]) -> tuple[int, ...]:
    """r_i acting on omega coordinates, lam - lam_i * alpha_i: it swaps the
    suffix sums p_i and p_{i+1}, whose differences are the result."""
    p = reflect(i, suffix_sums(lam))
    return tuple(map(operator.sub, p, p[1:]))
