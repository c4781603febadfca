"""Orbit generation, parity signs, dominant representatives, even sub-orbits."""
import ast
import functools
import itertools
import pathlib
import time
from math import factorial

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from orbitpoly import _record, chebyshev, exp_ring, lie, weyl
from conftest import dominant_weights, strict_weights, weights
from oracles import cartan_matrix, e_to_omega, omega_to_e, signed_permutations


def a2_generic_signed_orbit(m1, m2):
    """Signed orbit of a strictly dominant A2 weight, written out directly."""
    return {
        (m1, m2): 1,
        (-m1, m1 + m2): -1,
        (m1 + m2, -m2): -1,
        (-m2, -m1): -1,
        (-m1 - m2, m1): 1,
        (m2, -m1 - m2): 1,
    }


def _multiset_arrangements(values):
    """Distinct arrangements of a multiset, each exactly once."""
    if not values:
        yield ()
        return
    seen = set()
    for i, v in enumerate(values):
        if v in seen:
            continue
        seen.add(v)
        for rest in _multiset_arrangements(values[:i] + values[i + 1:]):
            yield (v,) + rest


def omega_to_e_scaled(lam):
    """e-coordinates scaled by n+1, from the explicit conversion formula
    l_j (n+1) = sum_{k>=j} (n+1-k) lam_k - sum_{k<j} k lam_k: the sorting
    oracles' frame, independent of the suffix sums."""
    n = len(lam)
    return tuple(
        sum((n + 1 - k) * lam[k - 1] for k in range(j, n + 1))
        - sum(k * lam[k - 1] for k in range(1, j))
        for j in range(1, n + 2)
    )


def orbit_by_sorting(lam):
    """Orbit oracle: arrange the scaled e-coordinates (all permutations with
    their parity, or distinct multiset arrangements with a per-point stable
    sort sign), sort descending, divide the differences back by n+1.
    Returns (points, signs, even) as ``weyl.orbit`` does."""
    n = len(lam)
    scaled = omega_to_e_scaled(lam)
    if len(set(scaled)) == len(scaled):
        entries = [(arr, s, s > 0) for arr, s in signed_permutations(scaled)]
    else:
        entries = [(arr, weyl.stable_sort_sign(arr), True)
                   for arr in _multiset_arrangements(scaled)]
    entries.sort(key=lambda t: t[0], reverse=True)
    points = []
    for arr, _, _ in entries:
        diffs = [divmod(arr[i] - arr[i + 1], n + 1) for i in range(n)]
        assert all(r == 0 for _, r in diffs)
        points.append(tuple(q for q, _ in diffs))
    return tuple(points), tuple(s for _, s, _ in entries), tuple(e for _, _, e in entries)


def reflection_closure(lam):
    """Independent orbit oracle: breadth-first closure under the n simple
    reflections acting on omega coordinates, tracking parity."""
    seen = {lam: 1}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, len(lam) + 1):
                r = weyl.reflect_weight(i, w)
                if r != w and r not in seen:
                    seen[r] = -seen[w]
                    nxt.append(r)
        frontier = nxt
    return seen


class TestReflect:
    def test_swaps_adjacent(self):
        assert weyl.reflect(1, (1, 0, -1)) == (0, 1, -1)
        assert weyl.reflect(2, (3, 1, 0, -4)) == (3, 0, 1, -4)

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=6), st.data())
    def test_involution(self, coords, data):
        i = data.draw(st.integers(1, len(coords) - 1))
        assert weyl.reflect(i, weyl.reflect(i, coords)) == tuple(coords)

    def test_index_range(self):
        with pytest.raises(ValueError):
            weyl.reflect(0, (1, -1))
        with pytest.raises(ValueError):
            weyl.reflect(2, (1, -1))

    @given(weights(max_rank=6, min_coord=-5, max_coord=5), st.data())
    def test_omega_action_matches_cartan_column(self, lam, data):
        # r_i lam = lam - lam_i * alpha_i, alpha_i the i-th Cartan column.
        i = data.draw(st.integers(1, len(lam)))
        cartan = cartan_matrix(len(lam))
        expect = tuple(c - lam[i - 1] * cartan[j][i - 1] for j, c in enumerate(lam))
        assert weyl.reflect_weight(i, lam) == expect

    def test_weight_index_range(self):
        for i in (0, 3):
            with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
                weyl.reflect_weight(i, (1, 2))

    def test_omega_action_matches_e_action(self):
        lam = (2, -1, 3)
        for i in (1, 2, 3):
            via_e = e_to_omega(weyl.reflect(i, omega_to_e(lam)))
            assert weyl.reflect_weight(i, lam) == via_e


class TestOrbit:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a2_short_orbits(self, m):
        assert set(weyl.orbit((0, m)).points) == {(0, m), (-m, 0), (m, -m)}
        assert set(weyl.orbit((m, 0)).points) == {(m, 0), (-m, m), (0, -m)}

    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_a2_generic_orbit_with_signs(self, m1, m2):
        orb = weyl.orbit((m1, m2))
        assert dict(orb.items()) == a2_generic_signed_orbit(m1, m2)

    def test_origin(self):
        orb = weyl.orbit((0, 0, 0))
        assert orb.points == ((0, 0, 0),)
        assert orb.signs == (1,)

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            weyl.orbit((1, -1))

    def test_dominant_point_first_with_plus_sign(self):
        orb = weyl.orbit((2, 1))
        assert orb.points[0] == (2, 1)
        assert orb.signs[0] == 1

    @given(dominant_weights())
    @settings(max_examples=40, deadline=None)
    def test_matches_reflection_closure(self, lam):
        orb = weyl.orbit(lam)
        closure = reflection_closure(lam)
        assert set(orb.points) == set(closure)
        if lie.is_strictly_dominant(lam):
            assert dict(orb.items()) == closure

    @given(dominant_weights(max_rank=6, max_coord=2))
    @example((0, 0, 0, 0, 0, 0))
    @example((1, 0, 0, 1, 0, 0))
    @example((0, 2, 0, 2, 0))
    @example((1, 1, 1, 1, 1, 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_sorting_oracle(self, lam):
        orb = weyl.orbit(lam)
        assert (orb.points, orb.signs, orb.even) == orbit_by_sorting(lam)

    @given(strict_weights())
    @settings(max_examples=30, deadline=None)
    def test_signs_split_evenly_on_generic_orbits(self, lam):
        orb = weyl.orbit(lam)
        assert sum(orb.signs) == 0
        assert orb.size == factorial(len(lam) + 1)

    @given(dominant_weights())
    @settings(max_examples=40, deadline=None)
    def test_points_return_to_dominant(self, lam):
        orb = weyl.orbit(lam)
        for p, s in orb.items():
            assert weyl.dominant_representative(p) == (lam, s)

    @given(dominant_weights(max_rank=3, max_coord=2), st.data())
    @settings(max_examples=30, deadline=None)
    def test_reflection_permutes_orbit(self, lam, data):
        i = data.draw(st.integers(1, len(lam)))
        orb = weyl.orbit(lam)
        reflected = {weyl.reflect_weight(i, p) for p in orb.points}
        assert reflected == set(orb.points)

    def test_even_points_generic(self):
        orb = weyl.orbit((1, 1))
        assert set(orb.even_points) == {p for p, s in orb.items() if s == 1}
        assert len(orb.even_points) == 3

    def test_even_points_on_wall_cover_everything(self):
        orb = weyl.orbit((1, 0))
        assert orb.even_points == orb.points

    @given(dominant_weights())
    @settings(max_examples=40, deadline=None)
    def test_even_point_rule(self, lam):
        orb = weyl.orbit(lam)
        if lie.is_strictly_dominant(lam):
            assert set(orb.even_points) == {p for p, s in orb.items() if s == 1}
        else:
            assert orb.even_points == orb.points


#: The polynomial-table boxes, rank -> largest coordinate.
TABLE_BOXES = {1: 20, 2: 8, 3: 6, 4: 3, 5: 1}


class TestOrbitTemplates:
    @pytest.mark.parametrize("n", sorted(TABLE_BOXES))
    def test_matches_sorting_oracle_on_table_boxes(self, n):
        for lam in itertools.product(range(TABLE_BOXES[n] + 1), repeat=n):
            orb = weyl.orbit(lam)
            assert (orb.points, orb.signs, orb.even) == orbit_by_sorting(lam), lam

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_matches_sorting_oracle_on_zero_one_labels(self, n):
        # Every multiplicity pattern of the rank: all of them at rank 6,
        # those with at most 7! points at ranks 7 and 8.
        for lam in itertools.product((0, 1), repeat=n):
            if n == 6 or weyl.orbit_size(lam) <= factorial(7):
                orb = weyl.orbit.__wrapped__(lam)
                assert (orb.points, orb.signs, orb.even) == orbit_by_sorting(lam), lam

    @pytest.mark.parametrize("n", range(1, 7))
    def test_uncached_points_are_the_orbits_on_every_zero_pattern(self, n):
        for lam in itertools.product((0, 1), repeat=n):
            before = weyl.orbit.cache_info()
            points = weyl._orbit_points(lam)
            assert weyl.orbit.cache_info() == before
            assert points == weyl.orbit(lam).points, lam

    def test_uncached_points_of_a_generic_rank8_orbit_span_several_blocks(self):
        lam = (1, 2, 1, 3, 1, 1, 2, 1)
        assert factorial(9) * 9 > 50 * weyl._BLOCK_CELLS
        before = weyl.orbit.cache_info()
        points = weyl._orbit_points(lam)
        assert weyl.orbit.cache_info() == before
        assert points == weyl.orbit.__wrapped__(lam).points
        assert len(set(points)) == factorial(9) and points[0] == lam

    @pytest.mark.parametrize("a,b", [((2, 1), (5, 3)), ((1, 0, 2), (4, 0, 1)),
                                     ((0, 3, 0, 1), (0, 1, 0, 7)), ((3, 0), (1, 0))])
    def test_one_pattern_shares_signs_and_even(self, a, b):
        orb_a, orb_b = weyl.orbit(a), weyl.orbit(b)
        assert orb_a.points != orb_b.points
        assert orb_a.signs is orb_b.signs
        assert orb_a.even is orb_b.even

    def test_template_cache_stays_within_its_bound(self, monkeypatch):
        cache = weyl._bounded_cache(lambda t: len(t[1]), 30)(weyl._template.__wrapped__)
        monkeypatch.setattr(weyl, "_template", cache)
        for lam in [(1, 1, 1), (1, 0, 1), (2, 0, 0), (1, 1, 1, 1), (3, 1), (0, 2, 0), (1, 2, 1)]:
            orb = weyl.orbit.__wrapped__(lam)
            assert (orb.points, orb.signs, orb.even) == orbit_by_sorting(lam)
            held = [len(signs) for _, signs, _ in cache.entries.values()]
            assert cache.cache_info().held == sum(held)
            # A template over the bound (the 120 rows of (1, 1, 1, 1)) is held alone.
            assert cache.cache_info().held <= 30 or len(held) == 1


class TestOrbitCache:
    @pytest.fixture
    def cache(self, monkeypatch):
        """A fresh orbit cache of 30 points in place of the module's."""
        cache = weyl._bounded_cache(lambda orb: len(orb.points), 30,
                                    weyl._orbit_key)(weyl.orbit.__wrapped__)
        monkeypatch.setattr(weyl, "orbit", cache)
        return cache

    def test_stays_within_its_bound(self, cache):
        for lam in [(1, 1), (1, 0, 1), (2, 0, 0), (1, 1, 1, 1), (3, 1), (0, 2, 0), (1, 2, 1),
                    (0, 2, 0), (1, 1)]:
            orb = weyl.orbit(lam)
            assert (orb.points, orb.signs, orb.even) == orbit_by_sorting(lam)
            held = [orb.size for orb in cache.entries.values()]
            assert cache.cache_info().held == sum(held)
            # An orbit over the bound (the 120 points of (1, 1, 1, 1)) is held alone.
            assert cache.cache_info().held <= 30 or len(held) == 1
        # The hit on (0, 2, 0) made (1, 2, 1) the least recently used.
        assert list(cache.entries) == [(0, 2, 0), (1, 1)]

    def test_evicts_in_use_order_at_constant_cost(self):
        # 2^17 held keys of size 1, then 2 * 10^5 misses that each evict one.
        # Finding the oldest key by iterating a plain dict skips every slot
        # freed at its front since the last resize: ~12 s CPU on a 2-CPU x86
        # host, against ~0.3 s for the OrderedDict, which pops it in O(1).
        bound, evictions = 1 << 17, 200_000
        cache = weyl._bounded_cache(lambda value: 1, bound)(lambda key: key)
        for key in range(bound):
            cache(key)
        cache(5)
        cache(0)
        assert list(cache.entries)[:2] == [1, 2] and list(cache.entries)[-2:] == [5, 0]
        start = time.process_time()
        for key in range(bound, bound + evictions):
            cache(key)
            if key == 2 * bound - 3:
                # Every key older than the two hits is gone, in use order.
                assert list(cache.entries)[:3] == [5, 0, bound]
        assert time.process_time() - start < 3
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize, info.held) == (
            2, bound + evictions, bound, bound)
        assert list(cache.entries) == list(range(evictions, bound + evictions))

    def test_hits_and_misses_as_lru_cache_counts_them(self, cache):
        # The label is checked before the lookup: a list is looked up as its
        # tuple, and an invalid label raises without counting anything.
        lru = functools.lru_cache(maxsize=None)(weyl.orbit.__wrapped__)
        calls = [(1, 1), (1, 1), (2, 1), (1, 1), [1, 2], (1, -1), (True, 1), (0,)]
        for lam in calls:
            try:
                weyl.orbit(lam)
            except ValueError:
                continue
            lru(tuple(lam))
            info = weyl.orbit.cache_info()
            assert (info.hits, info.misses) == (lru.cache_info().hits, lru.cache_info().misses)
        info = weyl.orbit.cache_info()
        assert (info.hits, info.misses, info.currsize, info.held) == (2, 4, 4, 19)
        assert weyl.orbit((2, 1)) is weyl.orbit((2, 1))

    @pytest.mark.parametrize("bad,good,message", [
        ((True, 1), (1, 1), "must be integers, got True"),
        ((1.0, 2), (1, 2), "must be integers, got 1.0"),
        ((1, -2), (1, 2), r"^orbit requires a dominant weight, got \(1, -2\)$"),
    ])
    def test_invalid_labels_raise_cold_and_warm(self, bad, good, message):
        # The module's own cache: (True, 1) and (1.0, 2) hash and compare
        # equal to (1, 1) and (1, 2), so a check made only on a miss would
        # let them through once the valid orbit is cached.
        weyl.orbit.cache_clear()
        for warm in (False, True):
            assert (good in weyl.orbit.entries) is warm
            with pytest.raises(ValueError, match=message):
                weyl.orbit(bad)
            weyl.orbit(good)
        assert weyl.orbit(list(good)) is weyl.orbit(good)

    def test_cache_clear_empties_it(self, cache):
        weyl.orbit((1, 2))
        weyl.orbit((1, 2))
        weyl.orbit.cache_clear()
        info = weyl.orbit.cache_info()
        assert (info.hits, info.misses, info.currsize, info.held) == (0, 0, 0, 0)
        assert cache.entries == {}

    def test_wrapped_is_the_uncached_builder(self, cache):
        assert not hasattr(weyl.orbit.__wrapped__, "cache_info")
        orb = weyl.orbit.__wrapped__((1, 0, 2))
        assert orb is not weyl.orbit.__wrapped__((1, 0, 2))
        assert cache.cache_info().misses == 0
        assert orb == weyl.orbit((1, 0, 2))

    def test_pc_then_ps_pass_builds_each_orbit_once(self, monkeypatch):
        # The tables job's substitution passes over the rank-4 box, on the
        # module's own bound.
        monkeypatch.setattr(weyl, "orbit", weyl._bounded_cache(
            lambda orb: len(orb.points), weyl.ORBIT_POINT_BOUND, weyl._orbit_key)(weyl.orbit.__wrapped__))
        box = list(itertools.product(range(4), repeat=4))
        for lam in box:
            chebyshev.substitute_p(lam, "C")
        for lam in box:
            if min(lam) > 0:
                chebyshev.substitute_p(lam, "S")
        info = weyl.orbit.cache_info()
        assert info.misses == len(box)
        assert info.hits == sum(min(lam) > 0 for lam in box)


def module_level_imports(module) -> list[str]:
    """Modules imported when ``module`` is imported: every import outside a
    function body, relative ones as ``orbitpoly.<name>``."""
    out = []
    stack = list(ast.parse(pathlib.Path(module.__file__).read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                out += ([f"orbitpoly.{node.module}"] if node.module
                        else [f"orbitpoly.{alias.name}" for alias in node.names])
            else:
                out.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_exact_modules_import_no_numpy():
    # weyl and exp_ring, and the package modules they import, are exact:
    # importing them must not import numpy.
    exact = {"orbitpoly._record": _record, "orbitpoly.lie": lie, "orbitpoly.weyl": weyl,
             "orbitpoly.exp_ring": exp_ring}
    for name, module in exact.items():
        imported = module_level_imports(module)
        assert not [m for m in imported if m.split(".")[0] == "numpy"], name
        assert {m for m in imported if m.startswith("orbitpoly.")} <= set(exact), name


class TestOrbitSize:
    def test_examples(self):
        assert weyl.orbit_size((1, 1)) == 6
        assert weyl.orbit_size((0, 0, 0)) == 1
        assert weyl.orbit_size((1, 0, 1)) == 12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_generic_orbits_have_group_order(self, n):
        assert weyl.orbit_size((1,) * n) == factorial(n + 1)

    @given(dominant_weights())
    def test_size_times_stabilizer(self, lam):
        n = len(lam)
        assert weyl.orbit_size(lam) * weyl.stabilizer_order(lam) == factorial(n + 1)

    @given(dominant_weights(max_rank=3, max_coord=2))
    @settings(max_examples=30, deadline=None)
    def test_size_matches_materialized_orbit(self, lam):
        assert weyl.orbit_size(lam) == weyl.orbit(lam).size


class TestDominantRepresentative:
    def test_single_transposition(self):
        assert weyl.dominant_representative((-1, 1)) == ((1, 0), -1)

    def test_already_dominant(self):
        assert weyl.dominant_representative((2, 3)) == ((2, 3), 1)

    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 1), (1, 3)])
    def test_generic_reflection_point(self, m1, m2):
        assert weyl.dominant_representative((-m1, m1 + m2)) == ((m1, m2), -1)

    @given(weights())
    def test_result_is_dominant(self, mu):
        dom, sign = weyl.dominant_representative(mu)
        assert lie.is_dominant(dom)
        assert sign in (1, -1)


def dominant_by_scaled_sort(mu):
    """Dominant representative and sign by sorting the e-coordinates scaled by
    n+1 and dividing their differences back: the independent oracle."""
    n = len(mu)
    scaled = omega_to_e_scaled(mu)
    top = sorted(scaled, reverse=True)
    dom = []
    for a, b in zip(top, top[1:]):
        q, r = divmod(a - b, n + 1)
        assert r == 0
        dom.append(q)
    return tuple(dom), weyl.stable_sort_sign(scaled)


def e_label_by_reflections(lam):
    """The E-label rule spelled out: lam is dominant or r_i of its
    dominant representative for some i; None otherwise."""
    dom, _ = dominant_by_scaled_sort(lam)
    if dom == lam or any(weyl.reflect_weight(i, lam) == dom for i in range(1, len(lam) + 1)):
        return dom
    return None


class TestDominantRepresentativeOracle:
    @given(weights(max_rank=6, min_coord=-5, max_coord=5))
    @settings(max_examples=300, deadline=None)
    def test_matches_scaled_sort(self, mu):
        assert weyl.dominant_representative(mu) == dominant_by_scaled_sort(mu)

    @given(dominant_weights(max_rank=6, max_coord=3), st.lists(st.integers(1, 6), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_reflected_weights_return_to_their_label(self, lam, word):
        mu = lam
        for i in word:
            mu = weyl.reflect_weight(min(i, len(lam)), mu)
        dom, sign = weyl.dominant_representative(mu)
        assert (dom, sign) == dominant_by_scaled_sort(mu)
        assert dom == lam
        if lie.is_strictly_dominant(lam):
            assert sign == (-1) ** len(word)

    @given(weights(max_rank=6, min_coord=-4, max_coord=4))
    @settings(max_examples=300, deadline=None)
    def test_e_label_rule(self, lam):
        expect = e_label_by_reflections(lam)
        if expect is None:
            with pytest.raises(ValueError, match="P\\+ or r_i P\\+"):
                weyl.e_label_dominant(lam)
        else:
            assert weyl.e_label_dominant(lam) == expect

    @given(dominant_weights(max_rank=6, max_coord=3), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_every_reflected_label_is_an_e_label(self, lam, i):
        i = min(i, len(lam))
        assert weyl.e_label_dominant(weyl.reflect_weight(i, lam)) == lam


class TestSignedPermutations:
    def test_small(self):
        got = dict(signed_permutations((0, 1)))
        assert got == {(0, 1): 1, (1, 0): -1}

    def test_counts_by_parity(self):
        perms = list(signed_permutations((0, 1, 2, 3)))
        assert len(perms) == 24
        assert sum(s for _, s in perms) == 0

    @given(st.lists(st.integers(-3, 3), max_size=8))
    def test_stable_sort_sign_matches_sorting_permutation(self, arrangement):
        # Parity of the stable descending sort, read off the sorted indices.
        order = sorted(range(len(arrangement)), key=lambda i: (arrangement[i], -i), reverse=True)
        inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
        assert weyl.stable_sort_sign(arrangement) == (-1) ** inversions

    def test_suffix_sums_shared_with_lie(self):
        assert weyl.suffix_sums is lie.suffix_sums

    def test_stable_sort_sign(self):
        assert weyl.stable_sort_sign((3, 2, 1)) == 1
        assert weyl.stable_sort_sign((2, 3, 1)) == -1
        # Repeated values: parity of the minimal (stable) sorting permutation.
        assert weyl.stable_sort_sign((-1, 2, -1)) == -1
        assert weyl.stable_sort_sign((2, -1, -1)) == 1
