"""Numeric evaluation of C-, S- and E-orbit functions, and the permanent /
determinant / alternating-sum exponential forms they coincide with.

The argument point x may be given in alpha coordinates (length n, the
pairing with an omega-coordinate weight is then the plain dot product) or
as a real e-point of length n+1; adding a multiple of (1,...,1) to an
e-point never changes a value because weights sum to zero there.  An
(m, n) or (m, n+1) array is a batch of m points with one value each; a
batch row may differ from the same point evaluated alone in the last bits
(a matrix-matrix against a matrix-vector product).  A batch is evaluated in
chunks of whole points (``CHUNK_CELLS``), never one point alone, so its
transients are bounded by a constant and each row keeps its one-shot bits.

An orbit function takes one of two paths, chosen per call by a cost model
(``EXPANSION_BASE_ROWS``) from the number of points in the call and the
label's break-even (``_costs``).  A call validates its label once and
reads one cached entry per (dominant label, kind, basis) (``_tables``):
the table rows and coefficients where one point sums the table, nothing
where it expands; only a batch large enough to expand reads the
break-even alone.

- the table path sums one exponential per orbit point, the rows of
  ``exp_sum(lam, kind)`` in its term order, in the one kernel
  ``exp_kernel`` that also computes ``ExpSum.evaluate``; the unit
  coefficients of C and E are not multiplied, which keeps every bit.  It
  accumulates with numpy reductions (pairwise summation), so a label on
  this path gives ``ExpSum.evaluate``'s value bit for bit.  Every label of
  rank <= 3 (``TABLE_FLOOR_ROWS``) takes it whatever the batch, and so does
  every label of rank <= 5 at one point.
- the column expansion (``_expand``) sums the permanent of
  exp(2*pi*i p_j y_k), p the label's suffix sums, by Glynn's formula with
  equal rows grouped (``_glynn``, ``_glynn_plan``): d*m exponentials, one
  (m, d) x (d, T) product and m*T products a point, T <= 2^(m-1), instead
  of |W lam| exponentials, and for a batch one matrix product a chunk; S
  is the determinant of the same matrix (one LU), and a generic E is
  (C + S)/2.  ``permanent``, and so ``d_plus``, runs the same kernel with
  every row its own group.  Orbits of more than 720 points (every generic label
  from rank 6 on) take it at one point, and most orbits of rank 4 and 5
  in a batch (from 8 points for a generic rank-4 C, from 2 for a generic
  rank-5 C).  Its values agree with the table's within 1e-12 * |W lam|,
  not bit for bit.
"""
from __future__ import annotations

import cmath
import itertools
import threading
import warnings
from functools import lru_cache
from math import comb, factorial, inf, isfinite, prod
from typing import Sequence

import numpy as np

from . import lie, weyl


class NonGenericWeightWarning(UserWarning):
    """An antisymmetrized sum was requested on a Weyl-chamber wall."""


def weight_rows(weights: Sequence[Sequence[int]], rank: int, basis: str) -> np.ndarray:
    """Omega-coordinate weights as float rows that pair with a point given
    in ``basis`` ("alpha": length n, "e": length n+1) by a dot product."""
    rows = np.fromiter(itertools.chain.from_iterable(weights), float,
                       count=len(weights) * rank).reshape(len(weights), rank)
    return _in_basis(rows, basis)


def _in_basis(rows: np.ndarray, basis: str) -> np.ndarray:
    """Float omega-coordinate rows (m, n) as rows of ``basis``."""
    if basis == "alpha":
        return rows
    if basis == "e":
        return rows @ _omega_to_e(rows.shape[1]).T
    raise ValueError(f"unknown basis {basis!r}")


@lru_cache(maxsize=None)
def _omega_to_e(n: int) -> np.ndarray:
    """The (n+1) x n matrix from omega to e coordinates as a float array,
    read-only: every e-basis table shares it.  Row j, column k is
    (n+1-k)/(n+1) for k >= j and -k/(n+1) for k < j (column k is the
    e-vector of the k-th fundamental weight), each its integer numerator
    divided by n+1 once, the correctly rounded float of the exact entry."""
    k = np.arange(1, n + 1)
    matrix = np.where(k >= np.arange(1, n + 2)[:, None], n + 1 - k, -k) / (n + 1)
    matrix.flags.writeable = False
    return matrix


#: Most cells (points x weight rows in ``exp_kernel``, points x
#: (m*d + (m + 1)*T) in ``_expand`` and ``d_plus``, m^2 a point in
#: ``d_minus``) one evaluation chunk holds, at ~24 bytes a cell.
CHUNK_CELLS = 1 << 20

#: Most (complex) cells of one chunk of ``_expand`` in the thread's scratch,
#: 1 MiB that stays in a core's L2 cache from the product that writes the row sums
#: to the reductions that read them: against ``CHUNK_CELLS``, a 660-point
#: rank-8 C batch took 10.7 against 14.8 us a point (x86-64, one BLAS thread).
SCRATCH_CELLS = 1 << 16


def _chunked(values, points: np.ndarray, cells: int, bound: int | None = None) -> np.ndarray:
    """The (m,) array of values(chunk) over chunks of whole points of the
    batch, ``cells`` cells a point, at most ``bound`` (CHUNK_CELLS) cells a
    chunk but never one point of a larger batch: one point takes BLAS's
    matrix-vector product, whose last bits can differ from the
    matrix-matrix product of a larger chunk."""
    out = np.empty(len(points), dtype=complex)
    step = max(2, (CHUNK_CELLS if bound is None else bound) // max(cells, 1))
    starts = range(0, max(len(points) - 1, 1), step)
    for start, stop in zip(starts, [*starts[1:], len(points)]):
        out[start:stop] = values(points[start:stop])
    return out


def exp_kernel(weights: np.ndarray, coeffs: np.ndarray | None, points: np.ndarray):
    """sum_mu coeff_mu * exp(2*pi*i <mu, x>) over the rows mu of ``weights``;
    ``coeffs`` None sums the exponentials unmultiplied, as unit coefficients.

    ``points`` is one point x (a scalar result) or an (m, n) grid of them
    (m results, in ``_chunked``).  Every exponential sum over weight rows
    goes through here -- the table path of ``eval_*`` (and so of the
    quadrature grids of ``analysis``), ``ExpSum.evaluate``, ``d_alt`` -- so
    the same weights, coefficients and point give the same bits whichever
    function asked.  Orbit functions on the column expansion do not sum rows
    and do not come here.

    Leaving out a multiplication by 1 keeps every bit: it is exact on a
    phase whose real part, cos(theta) at a float theta, is never exactly 0
    and whose imaginary part is never -0 (theta = 2*pi*<mu, x> + 0 is
    never -0, and sin(theta) is 0 only at theta = +0).
    """
    if points.ndim == 2:
        return _chunked(lambda chunk: _exp_sums(weights, coeffs, chunk), points, len(weights))
    return _exp_sums(weights, coeffs, points)


def _exp_sums(weights: np.ndarray, coeffs: np.ndarray | None, points: np.ndarray):
    terms = np.multiply(points @ weights.T, 2j * np.pi)
    np.exp(terms, out=terms)
    if coeffs is not None:
        terms *= coeffs  # in place: the same bits as coeffs * terms
    return np.add.reduce(terms, axis=-1)


# ---------------------------------------------------------------------------
# Weight rows of the orbit functions, read from ``weyl``'s arrangements,
# the one owner of orbit point order and signs; ``weyl.orbit`` and
# ``exp_sum`` stay the exact path and are never built here.

#: Most weight rows the orbit-function tables hold, summed over every cached
#: entry; one rank-8 label's C and S entries (which share their rows but
#: count them each) and E half (9! * 5/2) fit, although ``eval_*`` builds
#: rows only for labels that do not expand.  An entry also counts
#: ``TABLE_ENTRY_ROWS`` for its Python objects, so many small orbits cannot
#: hold more memory than the bound's worth of rows.
TABLE_ROW_BOUND = 1 << 20
TABLE_ENTRY_ROWS = 16


def _entry_rows(entry: tuple) -> int:
    """Rows a ``_tables`` entry counts against ``TABLE_ROW_BOUND``."""
    return TABLE_ENTRY_ROWS + (0 if entry[0] is None else len(entry[0]))


@weyl._bounded_cache(_entry_rows, TABLE_ROW_BOUND)
def _tables(key: tuple) -> tuple:
    """(weights, coefficients) that ``eval_*`` sums for the key (dom, kind,
    basis), a dominant dom: one entry per call's label, cached by the rows
    held (``TABLE_ROW_BOUND``).

    Where one point takes the table (``_costs``'s break-even above one
    point), the weights are the rows in ``basis`` of ``exp_sum(dom, kind)``
    in its term order, so that ``ExpSum.evaluate`` sums the same rows to the
    same bits, and the coefficients are the parity signs for S and None for
    C and E, whose unit coefficients ``exp_kernel`` never multiplies.
    Where one point expands, both are None, so a label evaluated only
    expanded never builds rows.  S and E read the C entry's rows: S, and E
    on a chamber wall, where every point lies in the even orbit, share them
    (S, priced below C, and the wall E, priced as C, take the table only
    where C does), and a generic E sums those of sign +1 (it takes the
    table only where C does too, at every rank).  On a chamber
    wall S carries the orbit's signs (``weyl.orbit(dom).signs``), although
    ``eval_s`` never sums it there.
    """
    dom, kind, basis = key
    if _costs(dom, kind)[0] <= 1:
        return None, None
    if kind == "C":
        return _orbit_rows(dom, basis), None
    if kind == "E" and 0 in dom:
        return _tables((dom, "C", basis))
    rows = _tables((dom, "C", basis))[0]
    signs = 1.0 - 2.0 * np.frombuffer(weyl._arrangements(weyl.value_counts(dom)[1])[1], np.uint8)
    return (rows, signs) if kind == "S" else (rows[signs > 0], None)


def _orbit_rows(dom: tuple[int, ...], basis: str) -> np.ndarray:
    """The weight rows in ``basis`` of dom's orbit in ``exp_sum``'s term
    order: ``weyl._arrangements`` of dom's distinct suffix-sum values, whose
    consecutive differences are the weights."""
    values, counts = weyl.value_counts(dom)
    index = np.frombuffer(weyl._arrangements(counts)[0], np.uint8).reshape(-1, len(dom) + 1)
    q = np.array(values)[index]
    return _in_basis((q[:, :-1] - q[:, 1:]).astype(float), basis)


def _width(n: int, basis: str) -> int:
    """Coordinates of a rank-n point in ``basis``."""
    if basis == "alpha":
        return n
    if basis == "e":
        return n + 1
    raise ValueError(f"unknown basis {basis!r}")


def _points(x, width: int, basis: str) -> np.ndarray:
    """x as float coordinates of one point (width,) or a batch (m, width)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise ValueError(f"{basis} point must have length {width}, or a batch shape "
                         f"(m, {width}); got shape {x.shape}")
    return x


def _finite(values, x: np.ndarray):
    """values as a complex for one point x, as an array for a batch; raises
    ValueError naming the first point whose value is not finite."""
    if x.ndim == 1:
        values = complex(values)
        if cmath.isfinite(values):
            return values
    elif np.isfinite(values).all():
        return values
    row = x if x.ndim == 1 else x[np.isfinite(values).argmin()]
    raise ValueError(f"non-finite value at the point {tuple(row.tolist())}")


# ---------------------------------------------------------------------------
# Column expansion of large orbits.  An orbit point of the dominant dom is an
# arrangement q of its suffix sums p, and <mu, x> = sum_k q_k y_k with
# y = diff((0, x, 0)) for an alpha point, y = x - mean(x) for an e-point.
# With v_1 > ... > v_d the distinct values of p, c_i copies of v_i, and
# M[k, i] = exp(2*pi*i v_i y_k), C is the permanent of the m x m matrix
# A[j, k] = exp(2*pi*i p_j y_k), m = n+1, over the stabilizer order prod c_i!.
# Glynn: perm A = 2^(1-m) sum_delta (prod_j delta_j) prod_k sum_j delta_j A[j, k]
# over delta in {-1, 1}^m, delta_1 = 1.  Equal rows enter only through the
# number t_i of the c_i signs of v_i that are -1 (group 1 holds delta_1), so
#     C = sum_t w(t) prod_k sum_i (c_i - 2 t_i) M[k, i],
#     w(t) = (-1)^(sum t) C(c_1 - 1, t_1) prod_{i>=2} C(c_i, t_i) / (2^(m-1) prod c_i!),
# over T = c_1 prod_{i>=2} (c_i + 1) <= 2^(m-1) sign counts t.  For a strictly
# dominant dom M is the alternant's matrix: S is its determinant, E = (C + S)/2.

#: The per-call cost model that picks a label's path, in table rows.  A call
#: at m points sums m * |rows| table rows; the expansion costs about
#: ``EXPANSION_BASE_ROWS`` rows (for the first point) plus one row per
#: ``PRODUCTS_PER_ROW`` of its kernel's products at each point and one row
#: per exponential, d*(n+1), at each point after the first.  Timed with
#: ``scripts/path_scan.py``, a first point costs 300-600 rows at ranks 4-8,
#: but the base is 6! = 720, the largest rank-5 orbit, so that no label of
#: rank <= 5 expands at one point (and keeps ``ExpSum.evaluate``'s bits);
#: every generic label of rank >= 6 does.  Batches of 400 points put
#: 115-170 of Glynn's products at one row.  Orbits of at most
#: ``TABLE_FLOOR_ROWS`` rows (every label of rank <= 3) stay on the table at
#: every batch size: expanded, large batches there run at most ~1.5x faster.
EXPANSION_BASE_ROWS = 720
PRODUCTS_PER_ROW = 128
TABLE_FLOOR_ROWS = 24


@lru_cache(maxsize=None)
def _glynn_plan(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(signs, weights) of Glynn's formula for m = sum(counts) <= 9 rows in
    groups of counts[i] equal rows: signs[i, t] = c_i - 2 t_i and w(t) over
    the T sign counts t, read-only and complex (a product takes no cast),
    shared by every permanent of the pattern.  At m = 0 one term weighs 1."""
    m = sum(counts)
    if m > 9:
        raise ValueError(f"permanent limited to order 9, got {m}")
    terms = list(itertools.product(*(range(c + (i > 0)) for i, c in enumerate(counts))))
    scale = 2 ** max(m - 1, 0) * prod(map(factorial, counts))
    signs = np.array([[c - 2 * t[i] for t in terms] for i, c in enumerate(counts)],
                     complex).reshape(len(counts), len(terms))
    weights = np.array([(-1) ** sum(t) * prod(comb(c - (i == 0), k) for i, (c, k)
                                              in enumerate(zip(counts, t))) / scale
                        for t in terms], complex)
    for shared in (signs, weights):
        shared.flags.writeable = False
    return signs, weights


def _glynn(mat: np.ndarray, plan: tuple, cells: np.ndarray | None = None):
    """sum_t w(t) prod_k (M s)[k, t] under ``_glynn_plan`` plan for the
    (m, d) matrix M[k, i], or each of a stack, whose row sums are one matrix
    product, written with their column products into ``cells``, (m + 1) * T
    a matrix (None allocates them)."""
    signs, weights = plan
    if mat.ndim == 2:  # one matrix: numpy's own few cells, in the fewest calls
        return np.multiply.reduce(mat @ signs, axis=0) @ weights
    stack, (m, d), terms = mat.shape[:-2], mat.shape[-2:], len(weights)
    count = prod(stack)
    rows = count * m
    if cells is None:
        cells = np.empty((rows + count) * terms, dtype=complex)
    sums = np.matmul(mat.reshape(rows, d), signs, out=cells[:rows * terms].reshape(rows, terms))
    prods = cells[rows * terms:(rows + count) * terms].reshape(stack + (terms,))
    np.multiply.reduce(sums.reshape(stack + (m, terms)), axis=-2, out=prods)
    return prods @ weights


@lru_cache(maxsize=4096)
def _costs(dom: tuple[int, ...], kind: str) -> tuple:
    """(break-even, rows, per-point cost, exponentials) of evaluating
    ``exp_sum(dom, kind)`` for a dominant dom, the cached terms of the O(1)
    path choice.

    rows is what a table call sums per point; the per-point cost counts the
    expansion's products in rows (``PRODUCTS_PER_ROW``), exponentials its
    d*(n+1) exponentials a point.  break-even is the fewest points from which
    the expansion is cheaper, m * rows > EXPANSION_BASE_ROWS + m * per-point
    + (m - 1) * exponentials, solved in integers; inf where it never is, as
    for every orbit of at most ``TABLE_FLOOR_ROWS`` rows.  C (and E on a
    wall) pays Glynn's (n+1) * T * (d + 1) products, counted from the
    multiplicities without a plan, S one LU of (n+1)^3 / 3, a generic E both.
    """
    values, counts = weyl.value_counts(dom)
    generic = max(counts) == 1
    rows = weyl.orbit_size(dom) // (2 if kind == "E" and generic else 1)
    if rows <= TABLE_FLOOR_ROWS:
        return inf, rows, inf, 0
    m = len(dom) + 1
    glynn, lu = m * (len(values) + 1) * counts[0] * prod(c + 1 for c in counts[1:]), m ** 3 // 3
    work = lu if kind == "S" else glynn + lu if kind == "E" and generic else glynn
    exponentials = len(values) * m
    slope = PRODUCTS_PER_ROW * (rows - exponentials) - work
    offset = PRODUCTS_PER_ROW * (EXPANSION_BASE_ROWS - exponentials)
    break_even = max(1, offset // slope + 1) if slope > 0 else inf
    return break_even, rows, work / PRODUCTS_PER_ROW, exponentials


@lru_cache(maxsize=4096)
def _expansion(dom: tuple[int, ...]):
    """(values, plan) of the column expansion of a dominant dom: its
    distinct suffix-sum values, descending, and ``_glynn_plan`` of their
    multiplicities."""
    values, counts = weyl.value_counts(dom)
    return np.array(values, dtype=float), _glynn_plan(counts)


def _columns(x: np.ndarray, basis: str) -> np.ndarray:
    """The column coordinates y of the checked points x in ``basis``."""
    if basis == "alpha":
        y = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
        y[..., :-1] = x
        y[..., 1:] -= x
        return y
    return x - x.mean(axis=-1, keepdims=True)


def _expand(values: np.ndarray, plan: tuple, kind: str, y: np.ndarray) -> np.ndarray:
    """Glynn's sum (kind "C") of exp(2*pi*i y_k v_i) under plan, or of a
    square matrix its determinant (kind "S") or the mean of both (kind
    "E"), at the column coordinates y: a scalar for one point, (m,) for a
    batch, whose chunks write their cells into the thread's scratch."""
    d = len(values)
    cells = y.shape[-1] * (d + len(plan[1])) + len(plan[1])  # a point's matrix, row sums, products

    def sums(y, work=None):
        mat = np.multiply(y[..., None], values,  # mat[..., k, i] = M[k, i]
                          out=None if work is None else work[:y.size * d].reshape(y.shape + (d,)))
        mat = np.multiply(2j * np.pi, mat, out=None if work is None else mat)
        np.exp(mat, out=mat)
        if kind == "S":
            return np.linalg.det(mat)
        c = _glynn(mat, plan, None if work is None else work[y.size * d:])
        return c if kind == "C" else (c + np.linalg.det(mat)) / 2

    if y.ndim == 1:
        return sums(y)
    return _chunked(lambda chunk: sums(chunk, _workspace(len(chunk) * cells)), y, cells,
                    min(CHUNK_CELLS, SCRATCH_CELLS))


#: Each thread's scratch cells for ``_expand`` (``_workspace``).
_WORK = threading.local()


def _workspace(size: int) -> np.ndarray:
    """This thread's scratch of at least ``size`` complex cells, reused by
    every chunk of every expansion so that chunks write the same pages
    (allocated afresh they took new ones: 1.8 M page faults, ~30 % of the
    rank-5 ortho quadrature's CPU on x86-64 glibc)."""
    work = getattr(_WORK, "cells", None)
    if work is None or len(work) < size:
        work = _WORK.cells = np.empty(size, dtype=complex)
    return work


def _evaluate(dom: tuple[int, ...], kind: str, x, basis: str) -> complex | np.ndarray:
    x = _points(x, _width(len(dom), basis), basis)
    # A batch that expands reads only the break-even; any other call reads
    # its label's one table entry, which has no rows where one point expands.
    if x.ndim == 1 or len(x) < _costs(dom, kind)[0]:
        weights, coeffs = _tables((dom, kind, basis))
        if weights is not None:
            return _finite(exp_kernel(weights, coeffs, x), x)
    # On a chamber wall E is C: every orbit point lies in the even orbit.
    return _finite(_expand(*_expansion(dom), "C" if 0 in dom else kind, _columns(x, basis)), x)


def eval_c(lam: Sequence[int], x, basis: str = "alpha") -> complex | np.ndarray:
    """C-orbit function: plain exponential sum over the orbit of lam.

    Normalized over distinct orbit points, so C_0 = 1 and C_lam(0) equals
    the orbit size.
    """
    return _evaluate(lie.dominant_weight(lam, "C"), "C", x, basis)


def eval_s(lam: Sequence[int], x, basis: str = "alpha") -> complex | np.ndarray:
    """S-orbit function: parity-signed exponential sum over the orbit.

    Strictly dominant lam is the meaningful domain.  A dominant lam on a
    chamber wall returns exactly 0 (zeros for a batch) with one
    NonGenericWeightWarning -- the antisymmetrization cancels identically
    there, and callers composing characters need a total function rather
    than an error.  The points are checked as for any other label.
    """
    lam = lie.dominant_weight(lam, "S")
    if 0 not in lam:
        return _evaluate(lam, "S", x, basis)
    x = _points(x, _width(len(lam), basis), basis)
    zeros = _finite(np.where(np.isfinite(x).all(axis=-1), 0j, np.nan), x)
    warnings.warn(
        f"S vanishes identically at the non-generic weight {lam}",
        NonGenericWeightWarning,
        stacklevel=2,
    )
    return zeros


def eval_e(lam: Sequence[int], x, basis: str = "alpha") -> complex | np.ndarray:
    """E-orbit function: exponential sum over the even-subgroup orbit.

    Labels are weights in P+ or r_i P+ (as for ``exp_sum(lam, "E")``); the
    value depends on lam only through its dominant representative, so E is
    invariant under lam -> r_i lam.  For strictly dominant lam it equals
    (C_lam + S_lam)/2.
    """
    return _evaluate(weyl.e_label_dominant(lam), "E", x, basis)


# ---------------------------------------------------------------------------
# Exponential functions in n+1 variables: permanent, determinant and
# alternating-sum forms of the matrix exp(2*pi*i * l_j * x_k).  They take x
# as the eval_* functions take an e-point: one point (n+1,) gives a complex,
# an (m, n+1) batch gives m values, one matrix per point.

def permanent(a: np.ndarray) -> complex | np.ndarray:
    """Permanent of a square matrix, or of each matrix of an (..., m, m)
    stack, m <= 9, by Glynn's formula (``_glynn``) with every row its own
    group: one product with the cached (m, 2^(m-1)) sign matrix gives the
    row sums.  A 0 x 0 matrix has permanent 1."""
    a = np.asarray(a)
    m = a.shape[-1] if a.ndim else 0
    if a.ndim < 2 or a.shape[-2] != m:
        raise ValueError("permanent requires a square matrix")
    total = _glynn(np.swapaxes(a, -1, -2), _glynn_plan((1,) * m))
    return complex(total) if total.ndim == 0 else total


@lru_cache(maxsize=None)
def _even_permutations(m: int) -> np.ndarray:
    """(m!/2, m) uint8 index table of the even permutations of range(m),
    in lexicographic order: the parity-0 rows of ``weyl._arrangements`` of
    m distinct values; m <= 9."""
    if m > 9:
        raise ValueError(f"alternating form limited to order 9, got {m}")
    rows, parities = weyl._arrangements((1,) * m)
    even = np.frombuffer(rows, np.uint8).reshape(-1, m)[np.frombuffer(parities, np.uint8) == 0]
    even.flags.writeable = False  # cached: every d_alt call shares it
    return even


def _check_e_inputs(l: Sequence[float], x) -> tuple[np.ndarray, np.ndarray]:
    l = np.asarray(l, dtype=float)
    if l.ndim != 1 or not l.size:
        raise ValueError(f"l must be an e-vector of length n+1, got shape {l.shape}")
    v = l.tolist()  # a few entries: checked faster as Python floats than by numpy calls
    if not all(map(isfinite, v)):
        raise ValueError(f"l must be finite, got {tuple(v)}")
    scale = max(1.0, max(map(abs, v)))
    if abs(sum(v)) > 1e-9 * scale:
        raise ValueError("l must sum to zero")
    if any(a < b - 1e-12 * scale for a, b in zip(v, v[1:])):
        raise ValueError("l must be weakly decreasing (dominant e-coordinates)")
    return l, _points(x, len(l), "e")


def _matrix_form(form, l: np.ndarray, x: np.ndarray, cells: int):
    """form of exp(2*pi*i l_j x_k), one (n+1, n+1) matrix per point of x,
    a batch built and reduced in ``_chunked`` chunks of ``cells`` a point."""
    def values(x):
        return form(np.exp(2j * np.pi * (l[:, None] * x[..., None, :])))

    return _finite(values(x) if x.ndim == 1 else _chunked(values, x, cells), x)


def d_plus(l: Sequence[float], x) -> complex | np.ndarray:
    """Symmetric form: permanent of exp(2*pi*i l_j x_k).

    Equals the full group sum, hence (|W|/|W_lam|) times the C-function of
    the same weight.  A point's Glynn row sums and their products take
    (m + 1) * 2^(m-1) cells besides its m^2 matrix.
    """
    l, x = _check_e_inputs(l, x)
    m = len(l)
    return _matrix_form(permanent, l, x, m * m + (m + 1) * 2 ** (m - 1))


def d_minus(l: Sequence[float], x) -> complex | np.ndarray:
    """Antisymmetric form: conventional determinant of the same matrix.

    Equals the S-function for generic weights and vanishes (repeated rows)
    on non-generic ones.
    """
    l, x = _check_e_inputs(l, x)
    return _matrix_form(np.linalg.det, l, x, len(l) ** 2)


def d_alt(l: Sequence[float], x) -> complex | np.ndarray:
    """Alternating form: sum over even permutations only.

    Always equals (d_plus + d_minus)/2, and the E-function at generic
    weights.  The permuted copies of l are the weight rows of
    ``exp_kernel``; the permanent and the determinant stay kernel-free, so
    their identities with the orbit functions check the kernel.
    """
    l, x = _check_e_inputs(l, x)
    return _finite(exp_kernel(l[_even_permutations(len(l))], None, x), x)
