from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crncert.ratlin import (
    ExactBudgetError,
    canonical_basis,
    dot,
    integerize,
    nullspace,
    rank,
    rref,
    solve_le,
)


def test_rref_and_rank():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert rank(rows) == 2
    assert reduced[0] == (Fraction(1), Fraction(0), Fraction(1))
    assert reduced[1] == (Fraction(0), Fraction(1), Fraction(1))


def test_integerize():
    assert integerize([Fraction(1, 2), Fraction(-1, 3)]) == (3, -2)
    assert integerize([Fraction(-1, 2), Fraction(1, 4)]) == (2, -1)
    assert integerize([Fraction(-1, 2), Fraction(1, 4)], keep_sign=True) == (-2, 1)
    assert integerize([0, 0]) == (0, 0)


def test_canonical_basis_is_row_space_invariant():
    a = [(1, 0, 1), (0, 1, 1)]
    b = [(1, 1, 2), (1, -1, 0)]
    assert canonical_basis(a) == canonical_basis(b)
    c = [(1, 1, 2), (1, -1, 1)]
    assert canonical_basis(a) != canonical_basis(c)


def test_nullspace_empty_constraints():
    basis = nullspace([], 3)
    assert len(basis) == 3


_entries = st.integers(-4, 4)


@given(st.lists(st.lists(_entries, min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=100)
def test_nullspace_is_orthogonal_and_complementary(rows):
    ns = nullspace(rows, 3)
    for v in ns:
        for row in rows:
            assert dot(v, row) == Fraction(0)
    assert rank(rows) + len(ns) == 3


def test_solve_le_feasible_simple():
    # x <= 2, -x <= -1  =>  1 <= x <= 2
    point, farkas = solve_le([(1,), (-1,)], [2, -1])
    assert farkas is None
    assert Fraction(1) <= point[0] <= Fraction(2)


def test_solve_le_infeasible_simple():
    # x <= 1 and -x <= -2 cannot both hold
    point, farkas = solve_le([(1,), (-1,)], [1, -2])
    assert point is None
    assert farkas == [Fraction(1), Fraction(1)]


def test_solve_le_stops_at_row_budget():
    # eliminating x1 pairs two upper with two lower bounds: four rows > 3
    A = [(1, 1, 0), (1, 0, 1), (-1, 1, 1), (-1, -1, 2)]
    assert solve_le(A, [1, 1, 1, 1])[0] is not None
    with pytest.raises(ExactBudgetError, match="past 3 rows"):
        solve_le(A, [1, 1, 1, 1], max_rows=3)
    assert issubclass(ExactBudgetError, ArithmeticError)


def test_solve_le_unbounded_direction():
    # x + y <= -5 alone is feasible (take x very negative)
    point, farkas = solve_le([(1, 1)], [-5])
    assert farkas is None
    assert point[0] + point[1] <= -5


@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_solve_le_is_self_certifying(nvars, nrows, data):
    A = [
        [data.draw(_entries) for _ in range(nvars)]
        for _ in range(nrows)
    ]
    b = [data.draw(_entries) for _ in range(nrows)]
    point, farkas = solve_le(A, b)
    if point is not None:
        for row, rhs in zip(A, b):
            assert dot(row, point) <= Fraction(rhs)
    else:
        assert all(y >= 0 for y in farkas)
        for j in range(nvars):
            assert sum(y * Fraction(A[i][j]) for i, y in enumerate(farkas)) == 0
        assert sum(y * Fraction(b[i]) for i, y in enumerate(farkas)) < 0
