import contextlib
from unittest import mock

import hypothesis.strategies as st


@st.composite
def weights(draw, max_rank=3, min_coord=-4, max_coord=4):
    n = draw(st.integers(1, max_rank))
    return tuple(
        draw(st.lists(st.integers(min_coord, max_coord), min_size=n, max_size=n))
    )


@st.composite
def dominant_weights(draw, max_rank=3, max_coord=3):
    n = draw(st.integers(1, max_rank))
    return tuple(
        draw(st.lists(st.integers(0, max_coord), min_size=n, max_size=n))
    )


@st.composite
def strict_weights(draw, max_rank=3, max_coord=3):
    n = draw(st.integers(1, max_rank))
    return tuple(
        draw(st.lists(st.integers(1, max_coord), min_size=n, max_size=n))
    )


@st.composite
def weight_pairs(draw, max_rank=3, min_coord=-4, max_coord=4):
    n = draw(st.integers(1, max_rank))
    mk = lambda: tuple(
        draw(st.lists(st.integers(min_coord, max_coord), min_size=n, max_size=n))
    )
    return mk(), mk()


@contextlib.contextmanager
def forced_break_even(break_even):
    """Every ``eval_*`` call breaks even at ``break_even`` points: 1 sends
    every call to the column expansion, ``inf`` every call to the table.

    A batch reads ``_costs`` and a one-point call its ``_tables`` entry,
    built from ``_costs``; a fresh table cache stands in for the module's,
    so no entry built under the patch outlives it and none built before is
    read.  Yields the fresh cache.
    """
    from orbitpoly import orbit_functions as of, weyl

    tables = weyl._bounded_cache(of._entry_rows, of.TABLE_ROW_BOUND)(of._tables.__wrapped__)
    with mock.patch.object(of, "_costs", lambda dom, kind: (break_even,)), \
            mock.patch.object(of, "_tables", tables):
        yield tables
