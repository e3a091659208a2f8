"""Semi-locking and locking species sets.

A nonempty species set W is semi-locking when every reaction that produces
a member of W also consumes one; it is locking when every reaction consumes
one.  Zeroing a semi-locking set freezes the species of W at zero, which is
why these sets are the only candidate supports for boundary attractors.

The minimal semi-locking sets are found by a branch-and-bound search over
species (after Cordone, Ferrarini & Piroddi, IEEE TSMC-A 2005, and Nabli,
Martinez, Fages & Soliman, Constraints 2016).  Each node holds a set I of
species that must be in the set and a set A of species that may be; it is
pruned with the largest semi-locking set inside A, a greatest fixpoint
computed in polynomial time.  The search is bounded by ``FIXPOINT_BUDGET``
fixpoint evaluations, not by the number of species.  The scan over all
2^m subsets remains only in :func:`all_semi_locking_sets`, a test oracle
for small networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .network import ReactionNetwork

SpeciesSet = frozenset[int]

BRUTE_FORCE_LIMIT = 12
FIXPOINT_BUDGET = 100_000


class EnumerationCapError(RuntimeError):
    """Raised when an enumeration would exceed its bound on work."""


def _mask(members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def _members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _reaction_masks(net: ReactionNetwork) -> list[tuple[int, int]]:
    return [(_mask(r.source.indices), _mask(r.product.indices)) for r in net.reactions]


def _largest_siphon(allowed: int, rmasks: list[tuple[int, int]]) -> int:
    """Mask of the largest semi-locking set inside ``allowed`` (0 if none).

    Greatest fixpoint: drop every product of a reaction whose source misses
    the set, until no reaction does.  Semi-locking sets are closed under
    union, so what is left contains every one of them inside ``allowed``.
    """
    w = allowed
    changed = True
    while changed:
        changed = False
        for src, prod in rmasks:
            if prod & w and not src & w:
                w &= ~prod
                changed = True
    return w


def _check_members(net: ReactionNetwork, members: Iterable[int]) -> SpeciesSet:
    w = frozenset(members)
    if not w:
        raise ValueError("species set must be nonempty")
    if any(i < 0 or i >= net.num_species for i in w):
        raise ValueError("species index out of range")
    return w


def is_semi_locking(net: ReactionNetwork, members: Iterable[int]) -> bool:
    """True iff every reaction producing a member of W also consumes one."""
    w = _mask(_check_members(net, members))
    return all(src & w for src, prod in _reaction_masks(net) if prod & w)


def is_locking(net: ReactionNetwork, members: Iterable[int]) -> bool:
    """True iff every reaction's source complex meets W."""
    w = _mask(_check_members(net, members))
    return all(src & w for src, _ in _reaction_masks(net))


@dataclass(frozen=True)
class SiphonEntry:
    species: SpeciesSet
    locking: bool


@dataclass(frozen=True)
class SiphonCatalog:
    """Inclusion-minimal semi-locking sets, each flagged if also locking."""

    entries: tuple[SiphonEntry, ...]

    @property
    def minimal_sets(self) -> tuple[SpeciesSet, ...]:
        return tuple(e.species for e in self.entries)

    def to_json_list(self, names: tuple[str, ...]) -> list[dict]:
        return [
            {"species": [names[i] for i in sorted(e.species)], "locking": e.locking}
            for e in self.entries
        ]


def minimal_semi_locking_sets(net: ReactionNetwork) -> SiphonCatalog:
    """Enumerate all inclusion-minimal semi-locking sets.

    Depth-first branch and bound over pairs (I, A) of species masks, I inside
    A, standing for the sets W with I <= W <= A.  A node first shrinks A to
    the largest semi-locking set inside it and is pruned when that misses I.
    Once I contains a semi-locking set, no proper superset of I is minimal,
    so I is recorded if it is itself minimal and the node ends.  Otherwise
    some reaction produces a member of I from a source disjoint from I; every
    W must then contain one of that source's species c_1..c_k in A, and child
    j takes c_j into I and drops c_1..c_{j-1} from A, so the children split
    the node's sets disjointly.  Each minimal set is found once; the catalog
    is sorted by size, then by sorted species indices.

    Raises :class:`EnumerationCapError` once the search would evaluate more
    than ``FIXPOINT_BUDGET`` fixpoints.  Networks with exponentially many
    minimal sets reach it.
    """
    m = net.num_species
    rmasks = _reaction_masks(net)
    evaluations = 0

    def largest(allowed: int) -> int:
        nonlocal evaluations
        evaluations += 1
        if evaluations > FIXPOINT_BUDGET:
            raise EnumerationCapError(
                f"minimal siphon search on {m} species exceeded its budget of "
                f"{FIXPOINT_BUDGET} fixpoint evaluations"
            )
        return _largest_siphon(allowed, rmasks)

    found: list[int] = []
    stack = [(0, (1 << m) - 1)]
    while stack:
        inc, allowed = stack.pop()
        allowed = largest(allowed)
        if not allowed or inc & ~allowed:
            continue
        if not inc:
            low = allowed & -allowed
            stack += [(0, allowed & ~low), (low, allowed)]
            continue
        core = largest(inc)
        if core:
            if core == inc and not any(largest(inc & ~(1 << i)) for i in _members(inc)):
                found.append(inc)
            continue
        src = next(src for src, prod in rmasks if prod & inc and not src & inc)
        dropped = 0
        for c in _members(src & allowed):
            stack.append((inc | 1 << c, allowed & ~dropped))
            dropped |= 1 << c
    found.sort(key=lambda w: (w.bit_count(), _members(w)))
    entries = tuple(
        SiphonEntry(
            species=frozenset(_members(w)),
            locking=all(src & w for src, _ in rmasks),
        )
        for w in found
    )
    return SiphonCatalog(entries=entries)


def all_semi_locking_sets(net: ReactionNetwork) -> tuple[SpeciesSet, ...]:
    """Every semi-locking set, by scanning all nonempty subsets (small m only)."""
    m = net.num_species
    if m > BRUTE_FORCE_LIMIT:
        raise EnumerationCapError(
            f"full catalog limited to {BRUTE_FORCE_LIMIT} species, got {m}"
        )
    rmasks = _reaction_masks(net)
    out = [
        w
        for w in range(1, 1 << m)
        if all(src & w for src, prod in rmasks if prod & w)
    ]
    out.sort(key=lambda w: (w.bit_count(), _members(w)))
    return tuple(frozenset(_members(w)) for w in out)

