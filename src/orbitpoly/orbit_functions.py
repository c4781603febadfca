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
- the column expansion (``_expand``) fills the permanent of
  exp(2*pi*i p_j y_k), p the label's suffix sums, one column at a time for
  C, with d*m exponentials and at most 2^m * m products a point instead of
  |W lam| exponentials; S is the determinant of the same matrix (one LU),
  and a generic E is (C + S)/2.  Orbits of more than about 800 points
  (every generic label from rank 6 on) take it at one point, and most
  orbits of rank 4 and 5 in a batch (from 11 points for a generic rank-4
  C, from 2 for a generic rank-5 C).  Its values agree with the table's
  within 1e-12 * |W lam|, not bit for bit.
"""
from __future__ import annotations

import cmath
import itertools
import warnings
from functools import lru_cache
from math import inf, isfinite, prod
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
    """``lie.omega_to_e_matrix(n)`` as an (n+1, n) float array, read-only:
    every e-basis table shares it.  Each entry is its integer numerator
    divided by n+1, the correctly rounded float of the exact entry, with no
    ``Fraction`` built (nor ``fractions`` imported)."""
    k = np.arange(1, n + 1)
    matrix = np.where(k >= np.arange(1, n + 2)[:, None], n + 1 - k, -k) / (n + 1)
    matrix.flags.writeable = False
    return matrix


#: Most cells (points x weight rows in ``exp_kernel``, points x states x
#: values in ``_expand``, m * 2^m or m^2 a point in ``d_plus``/``d_minus``)
#: one evaluation chunk holds, at ~24 bytes a cell.
CHUNK_CELLS = 1 << 20


def _chunked(values, points: np.ndarray, cells: int, shape: tuple = ()) -> np.ndarray:
    """The (m, *shape) array of values(chunk) over chunks of whole points of
    the batch, ``cells`` cells a point, at most CHUNK_CELLS cells a chunk
    but never one point of a larger batch: one point takes BLAS's
    matrix-vector product, whose last bits can differ from the
    matrix-matrix product of a larger chunk."""
    out = np.empty((len(points),) + shape, dtype=complex)
    step = max(2, CHUNK_CELLS // max(cells, 1))
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
    (their break-even is C's), and a generic E sums those of sign +1 (it
    takes the table only where C does too, at every rank).  On a chamber
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
    return _shaped(np.asarray(x, dtype=float), width, basis)


def _shaped(x: np.ndarray, width: int, basis: str) -> np.ndarray:
    """The float array x, checked to be one point (width,) or a batch."""
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
# With v_1 > ... > v_d the distinct values of p and M[i, k] =
# exp(2*pi*i v_i y_k), C sums prod_k M[q_k, k] over the distinct
# arrangements q: the permanent of exp(2*pi*i p_j y_k) over the stabilizer
# order.  Filling the columns k = 0, 1, ... in turn, the partial sums depend
# only on how many copies u_i of each value are placed,
#     dp[u] = sum_i dp[u - e_i] * M[i, |u| - 1],
# so each distinct arrangement is counted once: d*m exponentials and at most
# 2^m * m products a point.  For a strictly dominant dom M is the square
# matrix of the alternant, so S is its determinant and E = (C + S)/2.

#: The per-call cost model that picks a label's path, in table rows.  A call
#: at m points sums m * |rows| table rows; the expansion costs about
#: ``EXPANSION_BASE_ROWS`` rows (an exponential matrix and a gather and
#: matmul per column, for the first point) plus one row per
#: ``PRODUCTS_PER_ROW`` of its products at each point and one row per
#: exponential, d*(n+1), at each point after the first.  Timed single-point
#: calls at ranks 5-8 break even between 720 and 1 260 rows, so no label of
#: rank <= 5 (720 rows at most) expands at one point; timed batches of 16
#: points already favour the expansion at 120 rows (rank 4, generic).
#: Orbits of at most ``TABLE_FLOOR_ROWS`` rows (every label of rank <= 3)
#: stay on the table at every batch size: large batches there run at most
#: ~1.5x faster expanded, and the table gives ``ExpSum.evaluate``'s bits.
EXPANSION_BASE_ROWS = 800
PRODUCTS_PER_ROW = 8
TABLE_FLOOR_ROWS = 24


@lru_cache(maxsize=None)
def _column_plan(counts: tuple[int, ...]) -> tuple[tuple, int]:
    """(steps, work) of the column expansion of a multiset whose distinct
    values, in descending order, occur counts[i] times.

    The states u <= counts are numbered by level |u| (the columns filled),
    the empty state first and the full one last.  A step (start, stop,
    pred) fills one level: pred[s, i] numbers the predecessor u - e_i of
    state start + s, or is -1 (a row kept zero) where u_i = 0.  ``work``
    counts the products of all steps.
    """
    d, size = len(counts), prod(c + 1 for c in counts)
    u = np.indices([c + 1 for c in counts]).reshape(d, size).T  # mixed radix, last fastest
    stride = np.cumprod([1] + [c + 1 for c in counts[:0:-1]])[::-1]
    level = u.sum(axis=1)
    order = np.argsort(level, kind="stable")
    number = np.empty_like(order)
    number[order] = np.arange(size)
    pred = np.where(u > 0, number[(np.arange(size)[:, None] - stride) % size], -1)
    bounds = np.searchsorted(level[order], np.arange(sum(counts) + 2))
    steps = []
    for start, stop in zip(bounds[1:-1], bounds[2:]):
        rows = pred[order[start:stop]]
        rows.flags.writeable = False
        steps.append((int(start), int(stop), rows))
    return tuple(steps), d * (size - 1)


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
    for every orbit of at most ``TABLE_FLOOR_ROWS`` rows.  The products are
    counted from the value multiplicities, so no plan is built for a label
    that stays on the table.  Every kind is priced by C's products: the
    determinant that S takes instead, and a generic E besides, is one LU of
    about m^3/3 products, fewer than the m * (2^m - 1) of the expansion.
    """
    values, counts = weyl.value_counts(dom)
    rows = weyl.orbit_size(dom) // (2 if kind == "E" and max(counts) == 1 else 1)
    if rows <= TABLE_FLOOR_ROWS:
        return inf, rows, inf, 0
    work = len(values) * (prod(c + 1 for c in counts) - 1)
    exponentials = len(values) * (len(dom) + 1)
    slope = PRODUCTS_PER_ROW * (rows - exponentials) - work
    offset = PRODUCTS_PER_ROW * (EXPANSION_BASE_ROWS - exponentials)
    break_even = max(1, offset // slope + 1) if slope > 0 else inf
    return break_even, rows, work / PRODUCTS_PER_ROW, exponentials


@lru_cache(maxsize=4096)
def _expansion(dom: tuple[int, ...]):
    """(values, plan) of the column expansion of a dominant dom: its
    distinct suffix-sum values, descending, and ``_column_plan`` of their
    multiplicities."""
    values, counts = weyl.value_counts(dom)
    return np.array(values, dtype=float), _column_plan(counts)


def _columns(x: np.ndarray, basis: str) -> np.ndarray:
    """The column coordinates y of the checked points x in ``basis``."""
    if basis == "alpha":
        y = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
        y[..., :-1] = x
        y[..., 1:] -= x
        return y
    return x - x.mean(axis=-1, keepdims=True)


def _expand(values: np.ndarray, plan: tuple, kind: str, y: np.ndarray) -> np.ndarray:
    """C at the column coordinates y, or for a strictly dominant label the
    determinant S (kind "S") or (C + S)/2 (kind "E"): a scalar for one
    point, (m,) for a batch (in ``_chunked``)."""
    steps, _ = plan
    states = steps[-1][1] + 1  # the last state stays 0

    def sums(y):
        # mat[..., k, i, 0] = M[i, k]: each column a (d, 1) matrix for matmul.
        mat = np.exp(2j * np.pi * (y[..., None, None] * values[:, None]))
        if kind == "S":
            return np.linalg.det(mat[..., 0])
        dp = np.zeros(y.shape[:-1] + (states,), dtype=complex)
        dp[..., 0] = 1
        for k, (start, stop, pred) in enumerate(steps):
            np.matmul(dp.take(pred, axis=-1), mat[..., k, :, :], out=dp[..., start:stop, None])
        c = dp[..., -2]
        return c if kind == "C" else (c + np.linalg.det(mat[..., 0])) / 2

    return sums(y) if y.ndim == 1 else _chunked(sums, y, states * len(values))


def _evaluate(dom: tuple[int, ...], kind: str, x, basis: str) -> complex | np.ndarray:
    x = _shaped(np.asarray(x, dtype=float), _width(len(dom), basis), basis)
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
    stack, by Ryser inclusion-exclusion; m <= 9.

    The row sums over every nonempty column subset are one product with the
    (m, 2^m - 1) 0/1 mask matrix; their product over the rows is summed with
    sign (-1)^(m - |subset|).  A 0 x 0 matrix has permanent 1.
    """
    a = np.asarray(a)
    m = a.shape[-1] if a.ndim else 0
    if a.ndim < 2 or a.shape[-2] != m:
        raise ValueError("permanent requires a square matrix")
    masks, signs = _ryser(m)
    total = (a @ masks).prod(axis=-2) @ signs
    return complex(total) if total.ndim == 0 else total


@lru_cache(maxsize=None)
def _ryser(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(masks, signs) of Ryser's formula at order m <= 9, read-only: the 0/1
    matrix of the column subsets, one column each, and their signs.

    The empty subset's term is the product of m zero row sums, 0 for m >= 1,
    so it is left out there; at m = 0 it is the empty product 1, and it is
    the only subset.
    """
    if m > 9:
        raise ValueError(f"permanent limited to order 9, got {m}")
    masks = (np.arange(1 if m else 0, 1 << m) >> np.arange(m)[:, None] & 1).astype(float)
    signs = (-1.0) ** (m - masks.sum(axis=0))
    for shared in (masks, signs):
        shared.flags.writeable = False
    return masks, signs


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
    the same weight.  A point's Ryser row sums take m * 2^m cells.
    """
    l, x = _check_e_inputs(l, x)
    return _matrix_form(permanent, l, x, len(l) << len(l))


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
