"""Outside-in tracing of orbitpoly: spans around calls into each module's
public functions, recorded from the benchmark's files without editing the
package.

A wrapper replaces the original function at every place it is bound:
module attributes (including re-exports in ``orbitpoly/__init__``), names
imported into other modules (``chebyshev.exp_sum``, ``analysis.exp_sum``),
the ``analysis._EVALUATORS`` and ``analysis.SUITES`` tables, and the class
attribute ``ExpSum.__mul__``.  ``functools.wraps`` keeps the original as
``__wrapped__``, so ``weyl.orbit.__wrapped__.cache_info()`` still reads the
real orbit cache.

Spans are kept in memory as flat records (name, rank, request, start, end,
parent, counters).  ``raw_totals`` folds them into additive per-name sums;
``layer_metrics`` derives the reported numbers from those sums.  The
``lie`` module is not spanned: its calls take well under a microsecond and
a wrapper would cost more than the call, so its time shows up in the self
time of its callers.
"""
from __future__ import annotations

import functools
import sys
import time

import workloads

RANKS = range(1, 8)
#: Spans whose self time is also reported per rank of the weight argument.
RANK_SPLIT = ("weyl.orbit", "exp_ring.mul", "exp_ring.decompose",
              "exp_ring.divide", "orbit_functions.eval")

_NAME, _RANK, _REQ, _START, _END, _PARENT, _COUNTS = range(7)


def _rank_of(args) -> int:
    """Rank of the first weight-like argument (ExpSum, or tuple/list of ints)."""
    for a in args:
        rank = getattr(a, "rank", None)
        if isinstance(rank, int):
            return rank
        if isinstance(a, (tuple, list)) and a and all(isinstance(c, int) for c in a):
            return len(a)
    return 0


class Tracer:
    """Span recorder shared by every wrapper installed in one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.originals: dict[int, str] = {}

    def wrap(self, name: str, fn, counts=None):
        """Return a traced stand-in for fn.

        ``counts(args, result)`` returns a dict of counters for the span; it
        runs after the end stamp, so its cost lands in the caller's self time
        and never in this span's.
        """
        spans, stack = self.spans, self.stack
        self.originals[id(fn)] = name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, self.request, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                stack.pop()
            rec[_RANK] = _rank_of(args)
            if counts is not None:
                rec[_COUNTS] = counts(args, out)
            return out

        return traced

    def count(self, name: str, start: int = 0) -> int:
        return sum(1 for rec in self.spans[start:] if rec[_NAME] == name)


def _orbit_counts(lru):
    """Counters for weyl.orbit: a miss is a change of cache_info().misses."""
    seen = lru.cache_info().misses

    def counts(args, out):
        nonlocal seen
        misses = lru.cache_info().misses
        missed, seen = misses != seen, misses
        return {"misses": 1, "points_built": out.size} if missed else None

    return counts


def _eval_points(kind: str):
    """Orbit points an eval_c/s/e call sums over, from the label alone."""
    def counts(args, out):
        lam = tuple(args[0])
        if kind == "C":
            points = workloads.orbit_size(lam)
        elif kind == "S":
            points = workloads.orbit_size(lam) if all(c > 0 for c in lam) else 0
        else:
            points = workloads.even_orbit_size(lam)
        return {"points": points}
    return counts


def _terms(key: str):
    return lambda args, out: {key: len(out.terms)}


def _spec():
    """(span name, owner, attribute, counters) for every traced function."""
    from orbitpoly import analysis, chebyshev, exp_ring, orbit_functions, weyl

    spec = [
        ("weyl.orbit", weyl, "orbit", _orbit_counts(weyl.orbit)),
        ("weyl.dominant_representative", weyl, "dominant_representative", None),
        ("orbit_functions.eval", orbit_functions, "eval_c", _eval_points("C")),
        ("orbit_functions.eval", orbit_functions, "eval_s", _eval_points("S")),
        ("orbit_functions.eval", orbit_functions, "eval_e", _eval_points("E")),
        ("orbit_functions.forms", orbit_functions, "d_plus", None),
        ("orbit_functions.forms", orbit_functions, "d_minus", None),
        ("orbit_functions.forms", orbit_functions, "d_alt", None),
        ("exp_ring.exp_sum", exp_ring, "exp_sum", None),
        ("exp_ring.decompose", exp_ring, "decompose_into_c",
         lambda args, out: {"terms_in": len(args[0].terms), "orbits_out": len(out.terms)}),
        ("exp_ring.divide", exp_ring, "exact_divide", _terms("quotient_terms")),
        ("exp_ring.character", exp_ring, "character", None),
        ("chebyshev.poly_t", chebyshev, "poly_t", _terms("out_terms")),
        ("chebyshev.poly_u", chebyshev, "poly_u", _terms("out_terms")),
        ("chebyshev.recursion_relation", chebyshev, "recursion_relation", None),
    ]
    spec += [(f"analysis.{name}", analysis.SUITES, name, None) for name in analysis.SUITES]
    return spec


def _namespaces() -> list[dict]:
    """Every dict in which a traced function may be bound by name."""
    from orbitpoly import analysis
    mods = [m for name, m in sys.modules.items()
            if name == "orbitpoly" or name.startswith("orbitpoly.")]
    return [vars(m) for m in mods] + [analysis._EVALUATORS, analysis.SUITES]


def install(tracer: Tracer) -> None:
    """Replace every traced function with its wrapper wherever it is bound."""
    from orbitpoly import exp_ring

    spaces = _namespaces()
    for name, owner, attr, counts in _spec():
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        wrapper = tracer.wrap(name, original, counts)
        for space in spaces:
            for key, value in list(space.items()):
                if value is original:
                    space[key] = wrapper
    exp_ring.ExpSum.__mul__ = tracer.wrap(
        "exp_ring.mul", exp_ring.ExpSum.__mul__,
        lambda args, out: {"term_pairs": len(args[0].terms) * len(args[1].terms)},
    )


def unwrapped_bindings(tracer: Tracer) -> list[str]:
    """Names still bound to an original that ``install`` wrapped."""
    from orbitpoly import exp_ring

    left = [f"{tracer.originals[id(value)]} as {key}"
            for space in _namespaces() for key, value in space.items()
            if id(value) in tracer.originals]
    if id(vars(exp_ring.ExpSum)["__mul__"]) in tracer.originals:
        left.append("exp_ring.mul as ExpSum.__mul__")
    return left


# ---------------------------------------------------------------------------
# Aggregation.

def raw_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Additive per-span-name sums: calls, dur, self, self.r<n>, counters.

    Self time is a span's duration minus the durations of its direct
    children; one thread runs at a time, so children never overlap.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[_PARENT] >= 0:
            child[rec[_PARENT]] += rec[_END] - rec[_START]
    out: dict[str, dict[str, float]] = {}
    for i, rec in enumerate(spans):
        dur = rec[_END] - rec[_START]
        own = dur - child[i]
        agg = out.setdefault(rec[_NAME], {"calls": 0, "dur": 0.0, "self": 0.0})
        agg["calls"] += 1
        agg["dur"] += dur
        agg["self"] += own
        if rec[_NAME] in RANK_SPLIT:
            key = f"self.r{rec[_RANK]}"
            agg[key] = agg.get(key, 0.0) + own
        for key, value in (rec[_COUNTS] or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def merge_raw(into: dict, other: dict) -> dict:
    for name, agg in other.items():
        dst = into.setdefault(name, {})
        for key, value in agg.items():
            dst[key] = dst.get(key, 0) + value
    return into


def layer_metrics(raw: dict, extras: dict) -> dict[str, float]:
    """Per-layer metric values of one round from its raw sums.

    ``extras`` carries what spans cannot see: ``memo_size`` (entries in
    chebyshev._T_MEMO at the end) and the start-up split ``cli.*``.
    """
    def get(name: str, key: str = "self") -> float:
        return raw.get(name, {}).get(key, 0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    m: dict[str, float] = {}
    calls, misses = get("weyl.orbit", "calls"), get("weyl.orbit", "misses")
    m["weyl.orbit.calls"] = calls
    m["weyl.orbit.misses"] = misses
    m["weyl.orbit.hit_ratio"] = ratio(calls - misses, calls)
    m["weyl.orbit.points_built"] = get("weyl.orbit", "points_built")
    m["weyl.orbit.self_s"] = get("weyl.orbit")
    m["weyl.dominant_representative.self_s"] = get("weyl.dominant_representative")

    ev = "orbit_functions.eval"
    m[f"{ev}.calls"] = get(ev, "calls")
    m[f"{ev}.points"] = get(ev, "points")
    m[f"{ev}.self_s"] = get(ev)
    m[f"{ev}.ns_per_point"] = ratio(get(ev), get(ev, "points"), 1e9)
    m["orbit_functions.forms.calls"] = get("orbit_functions.forms", "calls")
    m["orbit_functions.forms.self_s"] = get("orbit_functions.forms")

    m["exp_ring.exp_sum.calls"] = get("exp_ring.exp_sum", "calls")
    m["exp_ring.exp_sum.self_s"] = get("exp_ring.exp_sum")
    m["exp_ring.mul.calls"] = get("exp_ring.mul", "calls")
    m["exp_ring.mul.term_pairs"] = get("exp_ring.mul", "term_pairs")
    m["exp_ring.mul.self_s"] = get("exp_ring.mul")
    dec = "exp_ring.decompose"
    m[f"{dec}.calls"] = get(dec, "calls")
    m[f"{dec}.terms_in"] = get(dec, "terms_in")
    m[f"{dec}.orbits_out"] = get(dec, "orbits_out")
    m[f"{dec}.self_s"] = get(dec)
    m[f"{dec}.orbits_per_kpair"] = ratio(get(dec, "orbits_out"),
                                          get("exp_ring.mul", "term_pairs"), 1e3)
    m["exp_ring.divide.calls"] = get("exp_ring.divide", "calls")
    m["exp_ring.divide.quotient_terms"] = get("exp_ring.divide", "quotient_terms")
    m["exp_ring.divide.self_s"] = get("exp_ring.divide")
    m["exp_ring.character.self_s"] = get("exp_ring.character")

    for fn in ("poly_t", "poly_u"):
        m[f"chebyshev.{fn}.calls"] = get(f"chebyshev.{fn}", "calls")
        m[f"chebyshev.{fn}.self_s"] = get(f"chebyshev.{fn}")
    m["chebyshev.recursion_relation.self_s"] = get("chebyshev.recursion_relation")
    m["chebyshev.memo_size"] = extras.get("memo_size", 0)
    m["chebyshev.out_terms"] = (get("chebyshev.poly_t", "out_terms")
                                + get("chebyshev.poly_u", "out_terms"))

    suites = [name for name in raw if name.startswith("analysis.")]
    for suite in workloads.SUITE_NAMES:
        m[f"analysis.{suite}.s"] = get(f"analysis.{suite}", "dur")
    m["analysis.self_s"] = sum(get(name) for name in suites)

    for key in ("interp_s", "import_s", "numpy_import_s", "command_s"):
        m[f"cli.{key}"] = extras.get(f"cli.{key}", 0.0)

    for name in RANK_SPLIT:
        for r in RANKS:
            m[f"{name}.self_s.r{r}"] = get(name, f"self.r{r}")
    return m
