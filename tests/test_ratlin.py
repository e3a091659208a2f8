from fractions import Fraction
from math import lcm

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crncert import (
    RationalBasis,
    check_discrete,
    ratlin,
    structure_report,
)
from crncert.ratlin import (
    ExactBudgetError,
    canonical_basis,
    nullspace,
    rref,
    solve_le,
)

from conftest import dot, face_kernel, integer_rows, rank, reaction_vector
from randomnet import random_cycle_network, random_network


def test_rref_and_rank():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert rank(rows) == 2
    assert reduced == [(1, 0, 1), (0, 1, 1)]
    # rows come back as primitive integer rows with positive pivots
    assert rref([(2, 1, 0), (0, 0, 0), (-4, 0, 3)]) == ([(4, 0, -3), (0, 2, 3)], [0, 1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: rref([(1, 2, 3), (1, 5)]),
        lambda: rank([(1, 2, 3), (1, 5)]),
        lambda: canonical_basis([(1, 5), (1, 2, 3)]),
        lambda: nullspace([(1, 1, 0)], 2),
        lambda: nullspace([(1, 1)], 4),
        lambda: nullspace([(0, 0), (0, 0, 0)], 2),
        lambda: dot((1, 2), (1,)),
        lambda: solve_le([(1, 2), (1,)], [1, 1]),
    ],
    ids=["rref", "rank", "canonical_basis", "nullspace-wide", "nullspace-narrow",
         "nullspace-ragged-zero", "dot", "solve_le"],
)
def test_ragged_input_is_rejected(call):
    with pytest.raises(ValueError, match="length"):
        call()


def test_solve_le_needs_one_right_hand_side_per_row():
    with pytest.raises(ValueError, match="2 rows but 1 right-hand sides"):
        solve_le([(1,), (2,)], [1])


def test_dot_is_an_exact_int_on_integers():
    assert type(dot((3, -2), (5, 7))) is int
    assert dot((3, -2), (5, 7)) == 1
    assert dot((Fraction(1, 2),), (3,)) == Fraction(3, 2)


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
    (p, d), farkas = solve_le([(1,), (-1,)], [2, -1])
    assert farkas is None
    assert d > 0 and d <= p[0] <= 2 * d


def test_solve_le_infeasible_simple():
    # x <= 1 and -x <= -2 cannot both hold
    point, farkas = solve_le([(1,), (-1,)], [1, -2])
    assert point is None
    assert farkas == [1, 1]


def test_solve_le_stops_at_pivot_budget(monkeypatch):
    # x is eliminated into the first row; each other row then starts with
    # an artificial, and driving each out takes one pivot
    A, b = [(1,), (1,), (1,)], [0, -1, -2]
    monkeypatch.setattr(ratlin, "PIVOT_BUDGET", 2)
    assert solve_le(A, b) == (([-2], 1), None)
    monkeypatch.setattr(ratlin, "PIVOT_BUDGET", 1)
    with pytest.raises(ExactBudgetError, match="budget of 1 pivots"):
        solve_le(A, b)
    assert issubclass(ExactBudgetError, ArithmeticError)


def test_solve_le_unbounded_direction():
    # x + y <= -5 alone is feasible (take x very negative)
    (p, d), farkas = solve_le([(1, 1)], [-5])
    assert farkas is None
    assert d > 0 and p[0] + p[1] <= -5 * d


def assert_certified(A, b, result):
    """The point p / d satisfies A x <= b, or the multipliers prove it infeasible."""
    point, farkas = result
    assert (point is None) != (farkas is None)
    if point is not None:
        p, d = point
        assert type(d) is int and d > 0
        assert all(type(v) is int for v in p)
        for row, rhs in zip(A, b):
            assert dot(row, p) <= d * rhs
    else:
        assert all(type(y) is int and y >= 0 for y in farkas)
        for j in range(len(A[0])):
            assert sum(y * A[i][j] for i, y in enumerate(farkas)) == 0
        assert dot(farkas, b) < 0


@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_solve_le_is_self_certifying(nvars, nrows, data):
    A = [
        [data.draw(_entries) for _ in range(nvars)]
        for _ in range(nrows)
    ]
    b = [data.draw(_entries) for _ in range(nrows)]
    assert_certified(A, b, solve_le(A, b))


def test_rational_and_float_entries_raise_type_error():
    # entries are read through operator.index: a caller scales rational rows first
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            rref([(1, 0), (bad, 1)])
        with pytest.raises(TypeError):
            solve_le([(bad,), (-1,)], [1, -1])
        with pytest.raises(TypeError):
            solve_le([(1,), (-1,)], [bad, -1])


def test_numpy_integer_entries_give_the_python_int_results():
    # entries near 3e9 with products past 2**63, where int64 arithmetic wraps
    rng = np.random.default_rng(3)
    big = rng.integers(3_050_000_000, 3_100_000_000, size=(4, 5))
    big *= rng.choice(np.array([-1, 1]), size=(4, 5))
    assert big.dtype == np.int64 and abs(int(big[0, 0]) * int(big[1, 0])) > 2**63
    rows = big.tolist()
    reduced, pivots = rref(big)
    assert (reduced, pivots) == rref(rows)
    assert all(type(v) is int for row in reduced for v in row)
    assert nullspace(big, 5) == nullspace(rows, 5)
    A, b = big[:, :3], big[:, 3]
    result = solve_le(A, b)
    assert result == solve_le(A.tolist(), b.tolist())
    assert_certified(A.tolist(), b.tolist(), result)
    # a_1 x <= -b_1 and -a_1 x <= -b_3 cannot both hold
    A, b = np.vstack([big[:2, :2], -big[:2, :2]]), -np.abs(big[:, 4])
    result = solve_le(A, b)
    assert result[0] is None and result == solve_le(A.tolist(), b.tolist())
    assert_certified(A.tolist(), b.tolist(), result)


@pytest.mark.parametrize("level, feasible", [(-5, True), (-6, False)])
def test_solve_le_terminates_on_beales_example(level, feasible):
    # Beale's LP: min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 subject to
    # x1 = -x4/4 + 8 x5 + x6 - 9 x7, x2 = -x4/2 + 12 x5 + x6/2 - 3 x7,
    # x3 = 1 - x6, x >= 0; optimum -5/4 at x4 = x6 = 1.  With x4 = 4 y1,
    # x5 = y2, x6 = 2 y3, x7 = y4, every slack below is one of Beale's
    # variables; the sign rows come first, so each y is eliminated into its
    # own and the phase-1 tableau is Beale's, with 4 * objective <= level as
    # the one artificial row.  The largest-coefficient rule cycles on it.
    A = [
        (-4, 0, 0, 0),
        (0, -1, 0, 0),
        (0, 0, -2, 0),
        (0, 0, 0, -1),
        (1, -8, -2, 9),
        (2, -12, -1, 3),
        (0, 0, 2, 0),
        (-12, 80, -4, 24),
    ]
    b = [0, 0, 0, 0, 0, 0, 1, level]
    result = solve_le(A, b)
    assert_certified(A, b, result)
    if feasible:
        p, d = result[0]
        assert [Fraction(v, d) for v in p] == [Fraction(1, 4), 0, Fraction(1, 2), 0]
    else:
        assert result[0] is None


def test_solve_le_ratio_test_ties_go_to_the_lowest_basis_index():
    # 2x <= 1, -2x <= 0, 2x <= -1, 2x <= 0: x is eliminated into row 0, so the
    # first pivot brings in row 0's slack, and rows 1 and 3 tie in its ratio
    # test.  Bland's rule lets row 3's artificial leave, not row 1's slack,
    # which fixes the multipliers; keeping the first tied row would end at
    # [0, 2, 1, 1], another valid certificate.
    A, b = [[2], [-2], [2], [2]], [1, 0, -1, 0]
    result = solve_le(A, b)
    assert_certified(A, b, result)
    assert result == (None, [0, 1, 1, 0])


def test_solve_le_random_12x12_within_pivot_bound(monkeypatch):
    # A full-rank draw takes no pivot: every variable is eliminated into a
    # row.  A rank-6 draw [R | R reversed] with b = -1 leaves 6 rows to the
    # simplex (at most 15 pivots in 2000 draws) and is infeasible about half
    # the time.
    monkeypatch.setattr(ratlin, "PIVOT_BUDGET", 20)
    rng = np.random.default_rng(12)
    outcomes = set()
    for trial in range(60):
        if trial % 2:
            r = rng.integers(-9, 10, size=(12, 6))
            A, b = np.hstack([r, r[:, ::-1]]).tolist(), [-1] * 12
        else:
            A, b = rng.integers(-9, 10, size=(12, 12)).tolist(), rng.integers(-9, 10, 12).tolist()
        result = solve_le(A, b)
        assert_certified(A, b, result)
        outcomes.add(result[0] is None)
    assert outcomes == {False, True}


# --- Reference: Gauss-Jordan elimination in Fraction arithmetic --------------


def reference_rref(rows):
    """Reduced row echelon form with unit pivots, in Fraction arithmetic."""
    m = [[Fraction(v) for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def reference_canonical(rows):
    # a unit-pivot row times the lcm of its denominators is integer with gcd 1
    reduced, _ = reference_rref(rows)
    return tuple(
        tuple(int(v * lcm(*(f.denominator for f in row))) for v in row) for row in reduced
    )


def reference_nullspace(rows, ncols):
    reduced, pivots = reference_rref(rows)
    vectors = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        vectors.append(v)
    return reference_canonical(vectors)


def reference_face_kernel(basis, w):
    vectors = basis.vectors
    if not vectors:
        return ()
    constraint = [[Fraction(v[i]) for v in vectors] for i in sorted(w)]
    zs = [
        [sum(Fraction(a) * v[j] for a, v in zip(alpha, vectors)) for j in range(basis.dimension)]
        for alpha in reference_nullspace(constraint, len(vectors))
    ]
    return reference_canonical(zs)


_scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def _matrices(draw):
    """(ncols, rows): int and Fraction entries, some rows and columns zeroed."""
    ncols = draw(st.integers(0, 6))
    nrows = draw(st.integers(0, 6))
    rows = [[draw(_scalars) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2))
    rows = [
        [0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    if rows and draw(st.booleans()):
        rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])  # a dependent row
    return ncols, rows


@given(_matrices())
@example((0, []))
@example((3, []))
@example((2, [[0, 0], [0, 0]]))
@example((3, [[-2, 4, 0], [0, 0, 0], [-1, 2, 5]]))
@example((3, [[Fraction(-1, 2), 0, 3], [0, Fraction(2, 3), 0]]))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_fraction_reference_and_sympy(matrix):
    ncols, rows = matrix
    ints = integer_rows(rows)
    reduced, pivots = rref(ints)
    ref_reduced, ref_pivots = reference_rref(rows)
    assert pivots == ref_pivots
    assert all(type(v) is int for row in reduced for v in row)
    for row, pc, ref_row in zip(reduced, pivots, ref_reduced):
        assert row[pc] > 0
        assert tuple(Fraction(v, row[pc]) for v in row) == ref_row
    assert len(reduced) == len(ref_reduced)
    assert canonical_basis(ints) == tuple(reduced) == reference_canonical(rows)
    assert RationalBasis(ncols, tuple(reduced)).leads == tuple(pivots)
    assert rank(ints) == len(ref_pivots)
    kernel = nullspace(ints, ncols)
    assert kernel == reference_nullspace(rows, ncols)
    assert all(dot(row, z) == 0 for row in rows for z in kernel)
    if rows and ncols:
        sym = sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows])
        sym_reduced, sym_pivots = sym.rref()
        assert list(sym_pivots) == pivots
        for i, (row, pc) in enumerate(zip(reduced, pivots)):
            assert [sympy.Rational(v, row[pc]) for v in row] == list(sym_reduced.row(i))
        sym_kernel = [[Fraction(int(x.p), int(x.q)) for x in v] for v in sym.nullspace()]
        assert kernel == reference_canonical(sym_kernel)


def test_face_kernels_match_fraction_reference_on_random_networks():
    rng = np.random.default_rng(5)
    faces = 0
    for trial in range(300):
        if trial % 2:
            net = random_cycle_network(rng, max_species=7, max_complexes=6)
        else:
            net = random_network(rng, max_species=7, max_reactions=9, allow_empty_complex=True)
        m = net.num_species
        vectors = [reaction_vector(r, m) for r in net.reactions]
        basis = structure_report(net).s_basis
        assert basis.vectors == reference_canonical(vectors)
        assert structure_report(net).conservation_basis.vectors == reference_nullspace(vectors, m)
        subsets = [{i} for i in range(m)] + [
            set(np.flatnonzero(rng.random(m) < 0.5).tolist()) or {0} for _ in range(3)
        ]
        for w in subsets:
            ref = reference_face_kernel(basis, w)
            assert face_kernel(basis, w) == ref
            assert check_discrete(basis, w) == (not ref, ref[0] if ref else None)
            faces += 1
    assert faces > 1500
