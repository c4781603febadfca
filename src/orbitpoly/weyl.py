"""The Weyl group of the A-series, acting as the symmetric group S_{n+1}.

Orbits of a dominant weight are generated by arranging its e-coordinates,
never by reflection closure, so duplicate points cannot arise.  Each orbit
point carries a parity sign.

Orbit generation works on the integer suffix sums p_j = lam_j + ... + lam_n
(p_{n+1} = 0) of ``lie.suffix_sums``, which are the e-coordinates shifted by
a constant: the omega coordinates of an arrangement are its consecutive
differences, exact integers with no scaling.  The distinct arrangements of
p depend only on which of its values repeat, its multiplicity pattern (the
counts of equal values: all ones for a strictly dominant weight, and a
block of r zero coordinates makes a count r+1), not on the values
themselves.  So each pattern has one list of arrangements, built once and
cached by the rows it holds (``TEMPLATE_ROW_BOUND``): rows of value
indices in ascending lexicographic order (index 0 the largest value, so
the values descend lexicographically and the dominant point comes first)
with one parity byte a row.  They are the one owner of orbit point order
and signs: each pattern's template, cached the same way, stores them as
the index pairs of consecutive positions with the sign and even-point
tuples that every orbit of the pattern shares, and ``orbit_functions``
builds its numeric tables from the same index rows and parities.  An
orbit reads its points column by column, one ``itemgetter`` a coordinate
over the template's pair cells applied to the differences of its distinct
values, and zips the columns into points.
Orbits are cached per weight and bounded by the points held
(``ORBIT_POINT_BOUND``), as templates are by their rows, so a round that
revisits a few thousand small orbits builds each once while a rank-8 orbit
is held alone.

Sign convention.  The sign of a point is the parity of the permutation
carrying the dominant arrangement of e-coordinates to the point's
arrangement.  For a weight with pairwise distinct e-coordinates that
permutation is unique.  When coordinates repeat, the sign is fixed by the
minimal sorting permutation (a stable descending sort), which makes the
dominant point's sign +1; such points only matter through the documented
even-point rule, since antisymmetrized sums vanish on them identically.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import OrderedDict
from math import factorial, prod
from types import SimpleNamespace
from typing import Iterator, Sequence

from . import lie
from ._record import Frozen, set_field
from .lie import suffix_sums


def stable_sort_sign(arrangement: Sequence) -> int:
    """Parity of the stable descending sort of the arrangement.

    This is the minimal sorting permutation; for distinct values it is the
    unique one.  Its inversions are the pairs whose earlier value is
    smaller, so already-sorted input gives +1.
    """
    return -1 if sum(a < b for a, b in itertools.combinations(arrangement, 2)) % 2 else 1


class SignedOrbit(Frozen):
    """A Weyl orbit with parity signs and the even-subgroup sub-orbit.

    Points are omega-coordinate weights ordered by descending lexicographic
    e-coordinates, so the dominant point always comes first.  ``even[i]`` is
    True when point i is reachable from the dominant point by an even
    permutation; when the stabilizer contains an odd permutation (repeated
    e-coordinates) every point is, otherwise exactly the sign +1 points are.
    """

    __slots__ = _fields = ("rank", "dominant", "points", "signs", "even")

    def __init__(self, rank: int, dominant: tuple[int, ...], points: tuple[tuple[int, ...], ...],
                 signs: tuple[int, ...], even: tuple[bool, ...]):
        set_field(self, "rank", rank)
        set_field(self, "dominant", dominant)
        set_field(self, "points", points)
        set_field(self, "signs", signs)
        set_field(self, "even", even)

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def stabilizer_order(self) -> int:
        return factorial(self.rank + 1) // len(self.points)

    @property
    def even_points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.compress(self.points, self.even))

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return zip(self.points, self.signs)


#: Rows that the arrangement cache, and the template cache, may each hold,
#: summed over the multiplicity patterns held: room for the 9! rows of the
#: largest pattern (a strictly dominant weight of rank ``lie.MAX_RANK``)
#: and more.
TEMPLATE_ROW_BOUND = 1 << 19
#: Orbit points the orbit cache may hold, summed over the orbits held:
#: room for three generic rank-7 orbits; a larger orbit (a generic rank-8
#: one has 9! points) is held alone.
ORBIT_POINT_BOUND = 1 << 17
#: Cells (rows x (n+1)) an orbit reads column by column at a time; a larger
#: template is read block by block, so that the transient columns stay
#: small beside the returned points.
_BLOCK_CELLS = 1 << 15
#: Parity bytes 0 <-> 1, for ``bytes.translate``.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _bounded_cache(size, bound: int, check=None):
    """Decorator caching a one-argument builder per key, the least recently
    used dropped first while the sizes held (``size`` of each value) pass
    ``bound``; a value larger than the bound is held alone.  The entries
    are an ``OrderedDict`` in use order: a hit is one ``get`` and one
    ``move_to_end``, and an eviction one ``popitem(last=False)``, O(1)
    however many keys were dropped before.  ``check``, if given, validates
    the argument and returns the key before every lookup, so a hit never
    skips it.  Like ``lru_cache`` the cached function has ``cache_info()``
    (hits and misses counted as ``lru_cache`` counts them, ``currsize`` and
    the sizes ``held``), ``cache_clear()`` and ``__wrapped__`` (the builder,
    which ``check`` does not guard); ``entries`` is the ``OrderedDict`` it
    holds, least recently used first, for reading."""
    def decorate(build):
        entries = OrderedDict()
        get, to_end, evict = entries.get, entries.move_to_end, entries.popitem
        hits = misses = held = 0

        def cached(key):
            nonlocal hits, misses, held
            if check is not None:
                key = check(key)
            got = get(key)
            if got is None:
                misses += 1
                got = build(key)
                grown = size(got)
                while entries and held + grown > bound:
                    held -= size(evict(last=False)[1])
                held += grown
                entries[key] = got
            else:
                hits += 1
                to_end(key)
            return got

        def cache_info() -> SimpleNamespace:
            return SimpleNamespace(hits=hits, misses=misses, currsize=len(entries), held=held)

        def cache_clear() -> None:
            nonlocal hits, misses, held
            entries.clear()
            hits = misses = held = 0

        cached.cache_info, cached.cache_clear, cached.entries = cache_info, cache_clear, entries
        return functools.update_wrapper(cached, build)

    return decorate


@_bounded_cache(lambda got: len(got[1]), TEMPLATE_ROW_BOUND)
def _arrangements(counts: tuple[int, ...]) -> tuple[bytes, bytes]:
    """(rows, parities) of the distinct arrangements of the index multiset
    with the given positive counts: one flat ``bytes`` of indices, sum(counts)
    a row, in ascending lexicographic order, and one parity byte (0 even,
    1 odd) a row.  The one enumeration of orbit point order and signs: the
    templates of ``weyl.orbit``, the tables of ``orbit_functions`` and
    ``exp_ring.orbit_product`` read it.

    The arrangements starting with index i are i followed by those of the
    counts less one i, so each block is filled by strided copies, one per
    column.  When that leaves no i, the sub-multiset is built on indices
    0, 1, ... and relabelled past i (one ``bytes.translate``, its table
    built here, so any rank's indices fit), which keeps the order and the
    parity.  Putting i first passes the sum_{j<i} counts[j] smaller
    indices, i.e. larger values, behind it: that many inversions (pairs
    whose earlier value is smaller), so the block's parities are the sub-
    multiset's, flipped when that sum is odd.  Sub-multisets are patterns
    too; they recur across blocks and across patterns, and the cache, by
    the rows held (``TEMPLATE_ROW_BOUND``), builds each once.
    """
    width = sum(counts)
    if width == 1:
        return b"\x00", b"\x00"
    out = bytearray(factorial(width) // prod(map(factorial, counts)) * width)
    parities = bytearray()
    start = below = 0
    for i, c in enumerate(counts):
        if c > 1:
            sub, sub_parities = _arrangements(counts[:i] + (c - 1,) + counts[i + 1:])
        else:
            sub, sub_parities = _arrangements(counts[:i] + counts[i + 1:])
            sub = sub.translate(bytes(range(i)) + bytes(range(i + 1, 256)) + b"\xff")
        stop = start + len(sub_parities) * width
        out[start:stop:width] = bytes((i,)) * len(sub_parities)
        for j in range(width - 1):
            out[start + 1 + j:stop:width] = sub[j::width - 1]
        parities += sub_parities.translate(_FLIP) if below % 2 else sub_parities
        below += c
        start = stop
    return bytes(out), bytes(parities)


@_bounded_cache(lambda template: len(template[1]), TEMPLATE_ROW_BOUND)
def _template(counts: tuple[int, ...]) -> tuple[bytes, tuple[int, ...], tuple[bool, ...]]:
    """(pairs, signs, even) of the multiplicity pattern ``counts``: its
    distinct arrangements of value indices (``_arrangements``, index 0 the
    largest value), shared by every orbit of the pattern, cached by the
    rows held (``TEMPLATE_ROW_BOUND``).

    The rows, n+1 cells each, are in ascending lexicographic order of the
    indices, which is descending lexicographic order of the values.  Cell
    j of a row in ``pairs`` is the consecutive pair (i_j, i_{j+1}) of its
    indices as i_j * k + i_{j+1}, k the number of distinct values; the
    last cell of a row is never read.  ``signs`` and ``even`` are the orbit
    tuples of the same name.
    """
    rows, parities = _arrangements(counts)
    if max(counts) == 1:
        # Generic: the even-subgroup orbit is exactly the +1-parity half.
        even = tuple(map((True, False).__getitem__, parities))
    else:
        # An equal pair puts an odd element in the stabilizer, so every
        # arrangement is reachable by an even permutation as well.
        even = (True,) * len(parities)
    # The pair cells are added as the digits of two big-endian ints: each
    # digit sum is below k * k <= 81, so none carries.
    k = len(counts)
    scaled = rows.translate(bytes(range(0, k * k, k)).ljust(256, b"\x00"))
    pairs = (int.from_bytes(scaled, "big")
             + int.from_bytes(rows[1:] + b"\x00", "big")).to_bytes(len(rows), "big")
    return pairs, tuple(map((1, -1).__getitem__, parities)), even


def value_counts(dom: Sequence[int]) -> tuple[list[int], tuple[int, ...]]:
    """(values, counts) of a weight its caller knows to be dominant: its
    distinct suffix sums, largest first, and how often each occurs, its
    multiplicity pattern (a zero coordinate repeats the value before it)."""
    p = suffix_sums(dom)
    values, counts, run = [p[0]], [], 1
    for c, v in zip(dom, p[1:]):
        if c:
            values.append(v)
            counts.append(run)
            run = 1
        else:
            run += 1
    counts.append(run)
    return values, tuple(counts)


def _column(cells: bytes, table: list) -> tuple:
    """table[c] for every cell c, as one tuple (``itemgetter`` of one cell
    returns it bare)."""
    return operator.itemgetter(*cells)(table) if len(cells) > 1 else (table[cells[0]],)


#: The check ``orbit`` runs before every lookup: a label's key is its
#: validated dominant tuple.
_orbit_key = functools.partial(lie.dominant_weight, what="orbit")


@_bounded_cache(lambda orb: len(orb.points), ORBIT_POINT_BOUND, _orbit_key)
def orbit(lam: tuple[int, ...]) -> SignedOrbit:
    """Signed Weyl orbit of a dominant weight (eagerly materialized), cached
    per weight and bounded by the points held (``ORBIT_POINT_BOUND``).  The
    label is validated and made a tuple before every lookup (``_orbit_key``),
    so a list is accepted and an invalid label raises whatever is cached;
    the ``__wrapped__`` builder takes a dominant tuple unchecked and builds
    one uncached.  Points by ``_points``, signs and even flags the template's.
    """
    values, counts = value_counts(lam)
    pairs, signs, even = _template(counts)
    return SignedOrbit(rank=len(lam), dominant=lam, points=_points(values, pairs, len(lam)),
                       signs=signs, even=even)


def _orbit_points(lam: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The points of the orbit of a dominant tuple in orbit order, built
    unchecked and uncached, for callers that read an orbit once and keep
    nothing of it: ``weyl.orbit``'s cache is neither read nor changed."""
    values, counts = value_counts(lam)
    return _points(values, _template(counts)[0], len(lam))


def _points(values: list[int], pairs: bytes, n: int) -> tuple[tuple[int, ...], ...]:
    """The orbit points of a weight's distinct suffix-sum values through its
    template's pairs, the one enumeration: coordinate j of every point is
    read from the table of differences of the values through the column j
    of pairs, one block of rows at a time."""
    differences = [a - b for a in values for b in values]
    width = n + 1
    step = _BLOCK_CELLS - _BLOCK_CELLS % width
    points = []
    for start in range(0, len(pairs), step):
        block = pairs[start:start + step]
        points += zip(*(_column(block[j::width], differences) for j in range(n)))
    return tuple(points)


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
    for i, c in enumerate(lam, 1):
        if c < 0:
            dom = reflect_weight(i, lam)
            if not lie.is_dominant(dom):
                raise ValueError(f"E requires a weight in P+ or r_i P+, got {lam}")
            return dom
    return lam


def orbit_size(lam: Sequence[int]) -> int:
    """(n+1)! divided by the factorials of e-coordinate multiplicities."""
    return factorial(len(lam) + 1) // stabilizer_order(lam)


def stabilizer_order(lam: Sequence[int]) -> int:
    """Order of the stabilizer of a dominant weight in W.

    Equal neighbouring e-coordinates are exactly the zero omega
    coordinates, so a maximal run of r zeros is a block of r+1 equal
    coordinates and contributes (r+1)!, built up one factor per zero.
    """
    return _stabilizer_order(lie.dominant_weight(lam, "orbit_size"))


def _stabilizer_order(dom: Sequence[int]) -> int:
    """``stabilizer_order`` of a weight its caller knows to be dominant,
    such as the differences of descending suffix sums, unchecked."""
    order = run = 1
    for c in dom:
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
