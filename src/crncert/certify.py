"""Global-stability certification for mass-action networks.

For a weakly reversible network of deficiency zero, the unique positive
equilibrium in every compatibility class is globally asymptotically stable
provided each boundary face cut out by a semi-locking set W meets the
classes in a set that is empty or discrete.  Both conditions reduce to
exact linear algebra on the reaction span S:

* ``DISCRETE``: the basis of S restricted to the W coordinates has rank
  dim S, an s x |W| elimination, so a class can meet the face in at most
  one point.
* ``EMPTY_ALL_CLASSES``: no vector of S is strictly negative on all W
  coordinates, so no positive anchor can reach the face at all.  The
  infeasibility dual is a nonnegative conserved combination supported on
  W, which is reported as the separating witness.

A face that is neither is INCONCLUSIVE.  Only then does the full
elimination of ``check_discrete`` run, with the W columns first, for the
kernel witness: a nonzero vector of S that vanishes on W.

Everything here is exact; no verdict depends on a floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from . import ratlin
from .network import ReactionNetwork
from .siphons import SiphonCatalog, SpeciesSet, minimal_semi_locking_sets
from .structure import RationalBasis, StructureReport, structure_report


class FaceStatus(str, Enum):
    EMPTY_ALL_CLASSES = "EMPTY_ALL_CLASSES"
    DISCRETE = "DISCRETE"
    INCONCLUSIVE = "INCONCLUSIVE"


class OverallStatus(str, Enum):
    GLOBALLY_STABLE = "GLOBALLY_STABLE"
    NOT_CERTIFIED = "NOT_CERTIFIED"


@dataclass(frozen=True)
class FaceVerdict:
    """Outcome for the boundary face of one semi-locking set.

    ``kernel_witness``: nonzero vector of S vanishing on W (face direction).
    ``feasible_witness``: vector of S strictly negative on W (shows some
    class closure reaches the face).
    ``separating_witness``: nonnegative conserved vector supported on W
    (proves no class reaches the face).
    """

    species: SpeciesSet
    status: FaceStatus
    kernel_witness: Optional[tuple[int, ...]] = None
    feasible_witness: Optional[tuple[int, ...]] = None
    separating_witness: Optional[tuple[int, ...]] = None

    def to_json_dict(self, names: tuple[str, ...]) -> dict:
        doc: dict = {
            "W": [names[i] for i in sorted(self.species)],
            "status": self.status.value,
        }
        witness: dict = {}
        if self.kernel_witness is not None:
            witness["kernel"] = list(self.kernel_witness)
        if self.feasible_witness is not None:
            witness["feasible"] = list(self.feasible_witness)
        if self.separating_witness is not None:
            witness["separating"] = list(self.separating_witness)
        if witness:
            doc["witness"] = witness
        return doc


@dataclass(frozen=True)
class Certificate:
    """``catalog`` is None when the hypotheses failed before enumeration."""

    structure: StructureReport
    catalog: Optional[SiphonCatalog]
    verdicts: tuple[FaceVerdict, ...]
    overall: OverallStatus
    reasons: tuple[str, ...]

    def verdict_for(self, members: Iterable[int]) -> Optional[FaceVerdict]:
        w = frozenset(members)
        for v in self.verdicts:
            if v.species == w:
                return v
        return None

    def to_json_dict(self) -> dict:
        names = self.structure.species_names
        doc: dict = {"structure": self.structure.to_json_dict()}
        # No "siphons" key when none were enumerated: an empty list would
        # claim the network has no semi-locking sets.
        if self.catalog is not None:
            doc["siphons"] = self.catalog.to_json_list(names)
        doc["verdicts"] = [v.to_json_dict(names) for v in self.verdicts]
        doc["overall"] = self.overall.value
        doc["reasons"] = list(self.reasons)
        return doc


def _combine(alpha: Sequence[int], vectors: Sequence[Sequence[int]], dim: int) -> list[int]:
    """sum_k alpha_k * vectors_k, in integers."""
    return [sum(a * v[j] for a, v in zip(alpha, vectors)) for j in range(dim)]


def _verified(kind: str, witness: tuple[int, ...], holds: bool) -> tuple[int, ...]:
    if not holds:
        raise ArithmeticError(f"{kind} witness {witness} failed exact verification")
    return witness


def _face_columns(s_basis: RationalBasis, members: Iterable[int]) -> list[int]:
    w = sorted(set(members))
    if not w or w[0] < 0 or w[-1] >= s_basis.dimension:
        raise ValueError(f"species set {w} must be a nonempty subset of 0..{s_basis.dimension - 1}")
    return w


def _spans_on(s_basis: RationalBasis, w: list[int]) -> bool:
    """True iff the basis of S restricted to the columns ``w`` has rank dim S.

    That takes an elimination of s rows and |W| columns at most.  None runs
    when |W| < s, nor when W holds every leading column of the canonical
    basis, on which the basis is diagonal with positive entries.
    """
    vectors = s_basis.vectors
    if len(w) < len(vectors):
        return False
    members = set(w)
    if all(v.index(next(filter(None, v))) in members for v in vectors):
        return True
    return len(ratlin.rref([[v[j] for j in w] for v in vectors])[1]) == len(vectors)


def check_discrete(
    s_basis: RationalBasis, members: Iterable[int]
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Decide whether the face of W can meet a class in more than one point.

    One ``rref`` of the basis of S with the W columns first has r pivots in
    the W block, r being the rank of S on W.  Its later rows, zero on W, are
    in the original column order the canonical basis of {z in S : z_W = 0}.
    Returns ``(True, None)`` when there is none, else ``(False, witness)``
    with the first of them.  :func:`certify` decides DISCRETE by the rank on
    W alone and calls this full elimination only for the witness of an
    INCONCLUSIVE face.
    """
    w = _face_columns(s_basis, members)
    order = w + sorted(set(range(s_basis.dimension)).difference(w))
    rows, pivots = ratlin.rref([[v[j] for j in order] for v in s_basis.vectors])
    r = sum(p < len(w) for p in pivots)
    if r == len(rows):
        return True, None
    z = tuple(rows[r][order.index(j)] for j in range(s_basis.dimension))
    # The direction must verify exactly: nonzero and zero on every W coordinate.
    return False, _verified("kernel", z, any(z) and not any(z[i] for i in w))


def check_empty_all_classes(
    s_basis: RationalBasis, members: Iterable[int]
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Decide whether any class closure can reach the face of W.

    The face is reachable from a positive anchor iff some s in S is strictly
    negative on every W coordinate; by homogeneity that is the exact linear
    feasibility of ``s_i <= -1`` for i in W over the basis coefficients.
    Returns ``(True, separating_witness)`` when infeasible and
    ``(False, feasible_witness)`` otherwise.  The separating witness is
    built as zero off W, so its orthogonality to S is checked as the sum
    over i in W of y_i * v_i for each basis vector v.
    """
    w = _face_columns(s_basis, members)
    vectors = s_basis.vectors
    A = [[v[i] for v in vectors] for i in w]
    point, farkas = ratlin.solve_le(A, [-1] * len(w))
    if point is not None:
        # The numerators are a positive multiple of the point, which keeps s_W < 0.
        s = tuple(ratlin._primitive(_combine(point[0], vectors, s_basis.dimension)))
        # The point must verify exactly: strictly negative on every W coordinate.
        return False, _verified("feasible", s, all(s[i] < 0 for i in w))
    assert farkas is not None
    y = [0] * s_basis.dimension
    for row_idx, i in enumerate(w):
        y[i] = farkas[row_idx]
    # The dual must verify exactly: nonnegative, nonzero, orthogonal to S.
    # y is farkas on W and zero elsewhere, so each check runs over W alone.
    return True, _verified(
        "separating",
        tuple(y),
        any(farkas)
        and min(farkas) >= 0
        and all(sum(y[i] * v[i] for i in w) == 0 for v in vectors),
    )


def _face_verdict(s_basis: RationalBasis, w: SpeciesSet) -> FaceVerdict:
    """The face's status, decided by the cheapest check that settles it.

    DISCRETE is decided by the rank of S on the W columns alone.  Otherwise
    the emptiness LP runs, and only a face it leaves INCONCLUSIVE pays for
    :func:`check_discrete`'s full elimination, whose kernel witness only
    that status prints.
    """
    if _spans_on(s_basis, _face_columns(s_basis, w)):
        return FaceVerdict(species=w, status=FaceStatus.DISCRETE)
    empty, witness = check_empty_all_classes(s_basis, w)
    if empty:
        return FaceVerdict(
            species=w, status=FaceStatus.EMPTY_ALL_CLASSES, separating_witness=witness
        )
    discrete, kernel_witness = check_discrete(s_basis, w)
    if discrete:
        raise ArithmeticError(f"rank of S on {sorted(w)} and the full elimination disagree")
    return FaceVerdict(
        species=w,
        status=FaceStatus.INCONCLUSIVE,
        kernel_witness=kernel_witness,
        feasible_witness=witness,
    )


def certify(net: ReactionNetwork) -> Certificate:
    """Assemble the global-stability certificate for a network.

    Weak reversibility and deficiency zero are checked first; when either
    fails, no siphon is enumerated and the certificate has no catalog.
    Otherwise each minimal semi-locking set receives one face verdict, in
    catalog order.  Both face checks only gain constraints as W grows and
    every semi-locking set contains a minimal one, so the minimal faces
    decide every semi-locking face.
    """
    report = structure_report(net)
    reasons = list(report.hypothesis_failures)
    if reasons:
        return Certificate(
            structure=report,
            catalog=None,
            verdicts=(),
            overall=OverallStatus.NOT_CERTIFIED,
            reasons=tuple(reasons),
        )

    catalog = minimal_semi_locking_sets(net)
    verdicts = tuple(_face_verdict(report.s_basis, w) for w in catalog.minimal_sets)
    inconclusive = [v for v in verdicts if v.status is FaceStatus.INCONCLUSIVE]
    if inconclusive:
        names = report.species_names
        for v in inconclusive:
            label = ",".join(names[i] for i in sorted(v.species))
            reasons.append(
                f"face {{{label}}} admits a direction inside the reaction span and is "
                "reachable from a positive anchor: neither empty nor provably discrete"
            )
        overall = OverallStatus.NOT_CERTIFIED
    else:
        overall = OverallStatus.GLOBALLY_STABLE
        reasons.append(
            "weakly reversible, deficiency zero, and every semi-locking face is "
            "empty or discrete in each compatibility class"
        )
    return Certificate(
        structure=report,
        catalog=catalog,
        verdicts=verdicts,
        overall=overall,
        reasons=tuple(reasons),
    )
