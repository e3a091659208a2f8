"""Exact linear algebra over the rationals, on integer data.

Everything that feeds a certificate must be tolerance-free, so ranks, row
spaces, kernels and linear feasibility are decided here exactly.  Vectors
are tuples, matrices are sequences of row vectors.  Entries are integers:
each is read through :func:`operator.index`, so a numpy integer becomes a
Python ``int`` (and cannot overflow), while a rational or a float entry
raises ``TypeError``.  A caller holding rational rows scales each row to
integers first; that changes no row space, kernel or feasible set.

Canonical form used throughout the package: a subspace is represented by
the reduced row echelon form of a spanning set, with every row scaled to
integer entries of gcd 1 and positive leading entry.  Two spanning sets
describe the same subspace iff their canonical bases are equal.  A kernel
basis is read off a matrix already in that form (``_kernel``), so a caller
holding the reduced rows of a matrix needs only one more elimination, the
one that puts the kernel vectors in canonical form.  No computed basis is
checked again by a further elimination: the canonical form can be checked
entry by entry, as :class:`~crncert.structure.RationalBasis` does.

That form is computed by Gauss-Jordan elimination over the integers: each
row is divided by the gcd of its entries after every update, so no
rational is ever formed and entries stay within the Hadamard bound of the
input.  ``solve_le`` pivots an integer simplex tableau with the same row
update, bounded by ``PIVOT_BUDGET`` pivots, and returns its feasible point
as integer numerators over one positive denominator.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index
from typing import Optional, Sequence

IntVec = tuple[int, ...]

PIVOT_BUDGET = 10_000


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _eliminate(m: list[list[int]], r: int, c: int) -> None:
    """Clear column c from every row but r, whose entry there is positive.

    Each other row is replaced by a positive multiple of its combination
    with row r and divided by its gcd, so it stays an integer row.
    """
    top = m[r]
    p = top[c]
    for i, row in enumerate(m):
        f = row[c]
        if i != r and f:
            g = gcd(p, f)
            a, b = p // g, f // g
            m[i] = _primitive([a * x - b * y for x, y in zip(row, top)])


def _int_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows as lists of Python ints; rejects ragged rows and non-integer entries."""
    out = []
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError(f"row of length {len(row)} in a matrix of {len(rows[0])} columns")
        out.append(list(map(index, row)))
    return out


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[IntVec], list[int]]:
    """Canonical reduced row echelon form.  Returns (nonzero rows, pivot columns).

    Each returned row is the reduced row echelon row scaled to integer
    entries of gcd 1 with a positive pivot.  Rows of unequal length raise
    ``ValueError``, and an entry that is not an integer ``TypeError``.
    """
    m = [row for row in _int_rows(rows) if any(row)]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for pivot_row in range(r, len(m)):
            if m[pivot_row][c]:
                break
        else:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = _primitive(m[r] if m[r][c] > 0 else [-v for v in m[r]])
        _eliminate(m, r, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def canonical_basis(rows: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Canonical integer basis of the row space of ``rows``."""
    return tuple(rref(rows)[0])


def _kernel(reduced: Sequence[IntVec], pivots: Sequence[int], ncols: int) -> list[list[int]]:
    """Integer kernel vectors of a reduced matrix, one per free column.

    ``reduced`` and ``pivots`` are as :func:`rref` returns them.  The vectors
    span the kernel but are not yet in canonical form.
    """
    pivot_set = set(pivots)
    vectors: list[list[int]] = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        # x_fc = L and x_pc = -row[fc] * L / row[pc] solve every reduced row.
        scale = lcm(*(row[pc] for row, pc in zip(reduced, pivots) if row[fc]))
        v = [0] * ncols
        v[fc] = scale
        for row, pc in zip(reduced, pivots):
            if row[fc]:
                v[pc] = -row[fc] * (scale // row[pc])
        vectors.append(v)
    return vectors


def nullspace(rows: Sequence[Sequence[int]], ncols: int) -> tuple[IntVec, ...]:
    """Canonical integer basis of the right kernel {x : rows @ x = 0}.

    Every row must have exactly ``ncols`` entries.
    """
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)} for a kernel in {ncols} columns")
    reduced, pivots = rref(rows)
    return canonical_basis(_kernel(reduced, pivots, ncols))


class ExactBudgetError(ArithmeticError):
    """An exact routine stopped at its work bound before deciding."""


def solve_le(
    A: Sequence[Sequence[int]], b: Sequence[int]
) -> tuple[Optional[tuple[list[int], int]], Optional[list[int]]]:
    """Decide feasibility of A x <= b, x free, by an exact phase-1 simplex.

    Returns ``(point, farkas)`` where exactly one entry is not None.
    ``point`` is ``(numerators, denominator)``: integer numerators over a
    positive denominator, the lcm of the free variables' pivot entries, so
    ``A @ numerators <= denominator * b``.  ``farkas`` is a nonnegative
    integer vector y with gcd 1, y A = 0 and y . b < 0, an exact witness of
    infeasibility.  Entries are read as in :func:`rref`.

    Each row becomes ``A_i x + s_i = b_i`` with a slack s_i >= 0.  The free
    variables are eliminated first, each into a row of its own that stays
    out of the ratio test, as in :func:`rref`.  Every other row is negated
    if its right-hand side is negative; it then starts with its slack basic
    if that side is zero or positive, else with an artificial variable.
    The phase-1 objective is the sum of the artificials.  Bland's rule picks
    the entering column (lowest index with a negative reduced cost) and
    breaks ties in the ratio test (artificials first, then lowest index), so
    degenerate systems cannot cycle.  Rows, the objective included, are
    stored as integer multiples of the tableau rows and divided by their gcd
    after every pivot; an artificial is dropped once it leaves the basis.

    The objective row is a combination of the input rows whose weights are
    its slack entries, and it is zero on the free columns; so when no slack
    can enter and the objective is still positive, minus those weights,
    made primitive, are the infeasibility multipliers.  Raises
    :class:`ExactBudgetError` past ``PIVOT_BUDGET`` simplex pivots.
    """
    if len(A) != len(b):
        raise ValueError(f"{len(A)} rows but {len(b)} right-hand sides")
    m = len(A)
    tableau = _int_rows(A)
    n = len(tableau[0]) if m else 0
    for i, (row, rhs) in enumerate(zip(tableau, b)):
        row.extend([0] * m + [index(rhs)])
        row[n + i] = 1
    # basis[r] is a column index, or r - m for row r's artificial; every row
    # starts with its own slack, column n + r.
    basis = [n + r for r in range(m)]
    free: list[int] = []
    for c in range(n):
        r = next((i for i in range(m) if basis[i] >= n and tableau[i][c]), None)
        if r is None:
            continue
        if tableau[r][c] < 0:
            tableau[r] = [-v for v in tableau[r]]
        _eliminate(tableau, r, c)
        basis[r] = c
        free.append(r)
    bounded = [r for r in range(m) if basis[r] >= n]
    objective = [0] * (n + m + 1)
    for r in bounded:
        if tableau[r][-1] < 0:
            tableau[r] = [-v for v in tableau[r]]
            basis[r] = r - m
            objective = [g + v for g, v in zip(objective, tableau[r])]
    # objective[c] > 0 is a negative reduced cost; objective[-1] is the
    # artificials' sum, zero exactly when the current basis is feasible.
    tableau.append(objective)
    pivots = 0
    while tableau[m][-1] > 0:
        objective = tableau[m]
        entering = next((c for c in range(n, n + m) if objective[c] > 0), None)
        if entering is None:
            return None, _primitive([-v for v in objective[n : n + m]])
        # Ratio test by cross-multiplication: the phase-1 objective is
        # bounded below, so some entry of the entering column is positive.
        candidates = [r for r in bounded if tableau[r][entering] > 0]
        leaving = candidates[0]
        for r in candidates[1:]:
            ratio = tableau[r][-1] * tableau[leaving][entering]
            best = tableau[leaving][-1] * tableau[r][entering]
            if (ratio, basis[r]) < (best, basis[leaving]):
                leaving = r
        if pivots == PIVOT_BUDGET:
            raise ExactBudgetError(
                f"exact LP on {m} rows and {n} variables exceeded its budget of "
                f"{PIVOT_BUDGET} pivots"
            )
        pivots += 1
        _eliminate(tableau, leaving, entering)
        basis[leaving] = entering
    # Free row r reads pivot * x_basis[r] = rhs with every nonbasic variable at zero.
    denominator = lcm(*(tableau[r][basis[r]] for r in free))
    numerators = [0] * n
    for r in free:
        numerators[basis[r]] = tableau[r][-1] * (denominator // tableau[r][basis[r]])
    return (numerators, denominator), None
