"""Exact linear algebra over the rationals.

Everything that feeds a certificate must be tolerance-free, so ranks, row
spaces, kernels and linear feasibility are decided here exactly.  Vectors
are tuples, matrices are sequences of row vectors; entries may be ``int``
or ``Fraction``.

Canonical form used throughout the package: a subspace is represented by
the reduced row echelon form of a spanning set, with every row scaled to
integer entries of gcd 1 and positive leading entry.  Two spanning sets
describe the same subspace iff their canonical bases are equal.

That form is computed by Gauss-Jordan elimination over the integers: each
row is scaled to integers once on entry and divided by the gcd of its
entries after every update, so no rational is ever formed and entries stay
within the Hadamard bound of the input.  Only ``solve_le`` (Fourier-Motzkin
elimination) works in ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Scalar = Fraction | int
IntVec = tuple[int, ...]


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def integerize(vec: Sequence[Scalar], keep_sign: bool = False) -> IntVec:
    """Scale a rational vector to integer entries with gcd 1.

    The scale factor is always positive when ``keep_sign`` is set; otherwise
    the sign is chosen so the first nonzero entry is positive.
    """
    fracs = [Fraction(v) for v in vec]
    den_lcm = lcm(*(f.denominator for f in fracs))
    ints = _primitive([int(f * den_lcm) for f in fracs])
    if not keep_sign:
        lead = next((v for v in ints if v != 0), 0)
        if lead < 0:
            ints = [-v for v in ints]
    return tuple(ints)


def _int_rows(rows: Sequence[Sequence[Scalar]]) -> list[list[int]]:
    """Each row times a nonzero factor that makes it integer; rejects ragged rows."""
    out = []
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError(f"row of length {len(row)} in a matrix of {len(rows[0])} columns")
        out.append(list(row) if all(type(v) is int for v in row) else list(integerize(row)))
    return out


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[IntVec], list[int]]:
    """Canonical reduced row echelon form.  Returns (nonzero rows, pivot columns).

    Each returned row is the reduced row echelon row scaled to integer
    entries of gcd 1 with a positive pivot.  Rows of unequal length raise
    ``ValueError``.
    """
    m = [row for row in _int_rows(rows) if any(row)]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = _primitive(m[r] if m[r][c] > 0 else [-v for v in m[r]])
        m[r] = top
        p = top[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                m[i] = _primitive([a * x - b * y for x, y in zip(m[i], top)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(rref(rows)[1])


def canonical_basis(rows: Sequence[Sequence[Scalar]]) -> tuple[IntVec, ...]:
    """Canonical integer basis of the row space of ``rows``."""
    return tuple(rref(rows)[0])


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple[IntVec, ...]:
    """Canonical integer basis of the right kernel {x : rows @ x = 0}.

    Every row must have exactly ``ncols`` entries.
    """
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)} for a kernel in {ncols} columns")
    reduced, pivots = rref(rows)
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
    return canonical_basis(vectors)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Exact inner product; an ``int`` when both vectors are integer."""
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return sum(a * b for a, b in zip(u, v))


class _Ineq:
    """One inequality coeffs . x <= rhs with its multiplier provenance."""

    __slots__ = ("coeffs", "rhs", "mult")

    def __init__(self, coeffs: list[Fraction], rhs: Fraction, mult: list[Fraction]):
        self.coeffs = coeffs
        self.rhs = rhs
        self.mult = mult

    def scaled(self, f: Fraction) -> "_Ineq":
        return _Ineq([c * f for c in self.coeffs], self.rhs * f, [m * f for m in self.mult])

    def plus(self, other: "_Ineq") -> "_Ineq":
        return _Ineq(
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.rhs + other.rhs,
            [a + b for a, b in zip(self.mult, other.mult)],
        )


def _dedupe(ineqs: list[_Ineq]) -> list[_Ineq]:
    # Keep, per coefficient direction, only the tightest right-hand side.
    best: dict[tuple[Fraction, ...], _Ineq] = {}
    order: list[tuple[Fraction, ...]] = []
    for q in ineqs:
        lead = next((c for c in q.coeffs if c != 0), None)
        scale = Fraction(1) if lead is None else 1 / abs(lead)
        key = tuple(c * scale for c in q.coeffs)
        q = q.scaled(scale)
        if key not in best:
            best[key] = q
            order.append(key)
        elif q.rhs < best[key].rhs:
            best[key] = q
    return [best[k] for k in order]


class ExactBudgetError(ArithmeticError):
    """An exact routine stopped at its work bound before deciding."""


def solve_le(
    A: Sequence[Sequence[Scalar]],
    b: Sequence[Scalar],
    max_rows: int = 200_000,
) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]]]:
    """Decide feasibility of A x <= b by Fourier-Motzkin elimination.

    Returns ``(point, farkas)`` where exactly one entry is not None.
    ``point`` is a feasible rational vector.  ``farkas`` is a nonnegative
    multiplier vector y with y A = 0 and y . b < 0, an exact witness of
    infeasibility (every eliminated inequality is a nonnegative combination
    of the originals, so the multipliers come out of the elimination).
    Raises :class:`ExactBudgetError` when an elimination stage keeps more
    than ``max_rows`` inequalities.
    """
    nrows = len(A)
    nvars = len(A[0]) if nrows else 0
    system = [
        _Ineq(
            [Fraction(v) for v in row],
            Fraction(b[i]),
            [Fraction(int(i == j)) for j in range(nrows)],
        )
        for i, row in enumerate(A)
    ]
    stages: list[list[_Ineq]] = []
    current = system
    for j in range(nvars):
        for q in current:
            if all(c == 0 for c in q.coeffs) and q.rhs < 0:
                return None, q.mult
        stages.append(current)
        pos = [q.scaled(1 / q.coeffs[j]) for q in current if q.coeffs[j] > 0]
        neg = [q.scaled(-1 / q.coeffs[j]) for q in current if q.coeffs[j] < 0]
        nxt = [q for q in current if q.coeffs[j] == 0]
        for p in pos:
            for n in neg:
                nxt.append(p.plus(n))
        current = _dedupe(nxt)
        if len(current) > max_rows:
            raise ExactBudgetError(
                f"inequality system grew past {max_rows} rows during elimination"
            )
    for q in current:
        if q.rhs < 0:
            return None, q.mult
    point: list[Fraction] = [Fraction(0)] * nvars
    for j in range(nvars - 1, -1, -1):
        lower: Optional[Fraction] = None
        upper: Optional[Fraction] = None
        for q in stages[j]:
            cj = q.coeffs[j]
            if cj == 0:
                continue
            residual = q.rhs - sum(q.coeffs[i] * point[i] for i in range(j + 1, nvars))
            bound = residual / cj
            if cj > 0:
                upper = bound if upper is None else min(upper, bound)
            else:
                lower = bound if lower is None else max(lower, bound)
        if lower is not None and upper is not None:
            point[j] = (lower + upper) / 2
        elif lower is not None:
            point[j] = lower + 1
        elif upper is not None:
            point[j] = upper - 1
    return point, None
