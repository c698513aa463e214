"""Hermite-normal-form canonicality and membership."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_span, same_span
from ksphere.lattice import hermite_normal_form, integrally_independent, lattice_rank

small_matrix = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
    min_size=1,
    max_size=5,
)


def test_known_forms():
    assert hermite_normal_form([[2, 0], [0, 3]]) == ((2, 0), (0, 3))
    assert hermite_normal_form([[0, 0], [0, 0]]) == ()
    assert hermite_normal_form([[4, 6]]) == ((4, 6),)
    assert hermite_normal_form([[2], [3]]) == ((1,),)
    # pivots positive, entries above reduced
    h = hermite_normal_form([[1, 5], [0, 3]])
    assert h == ((1, 2), (0, 3))


@given(small_matrix)
@settings(max_examples=80)
def test_hnf_idempotent_and_rows_in_span(rows):
    h = hermite_normal_form(rows)
    assert hermite_normal_form(h) == h
    for row in rows:
        assert in_span(row, h)
    for row in h:
        assert in_span(row, h)


@given(small_matrix, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_hnf_invariant_under_row_operations(rows, rnd):
    h = hermite_normal_form(rows)
    mixed = [list(r) for r in rows]
    rnd.shuffle(mixed)
    if len(mixed) >= 2:
        mixed[0] = [a + 3 * b for a, b in zip(mixed[0], mixed[1])]
        mixed[-1] = [-a for a in mixed[-1]]
    assert hermite_normal_form(mixed) == h
    assert same_span(rows, mixed)


@given(small_matrix)
@settings(max_examples=60)
def test_rank_matches_numpy_over_rationals(rows):
    h = lattice_rank(rows)
    assert h == np.linalg.matrix_rank(np.array(rows, dtype=float))


def test_membership_counterexamples():
    h = hermite_normal_form([[2, 0], [0, 2]])
    assert in_span([4, -2], h)
    assert not in_span([1, 0], h)
    assert not in_span([0, 3], h)


def test_integral_independence():
    assert integrally_independent([[1, 0, -1], [0, 1, -1]])
    assert not integrally_independent([[1, 0, -1], [2, 0, -2]])
    assert integrally_independent([])
