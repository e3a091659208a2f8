"""Semi-locking and locking species sets.

A nonempty species set W is semi-locking when every reaction that produces
a member of W also consumes one; it is locking when every reaction consumes
one.  Zeroing a semi-locking set freezes the species of W at zero, which is
why these sets are the only candidate supports for boundary attractors.

The minimal semi-locking sets are found by a branch-and-bound search over
species (after Cordone, Ferrarini & Piroddi, IEEE TSMC-A 2005, and Nabli,
Martinez, Fages & Soliman, Constraints 2016).  Each node holds a set I of
species that must be in the set and a set A of species that may be, and A
is always its own largest semi-locking set: a greatest fixpoint computed in
time linear in the network's size by Horn propagation (Dowling & Gallier,
J. Logic Programming 1984).  A node whose I is its own largest
semi-locking set records I as a candidate; minimality is then proved by
subsumption, not by more fixpoints: a candidate is kept unless a kept,
strictly smaller candidate lies inside it.  The search is bounded by
``FIXPOINT_BUDGET`` fixpoint evaluations, not by the number of species,
and raises ``ratlin.ExactBudgetError`` past it.
The test suite checks it against a scan of all 2^m subsets of small
networks, and the fixpoint against one that rescans every reaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .network import ReactionNetwork
from .ratlin import ExactBudgetError
from .structure import _members

SpeciesSet = frozenset[int]

FIXPOINT_BUDGET = 100_000


def _mask(members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


ReactionMasks = list[tuple[int, int]]


def _reaction_tables(net: ReactionNetwork) -> tuple[ReactionMasks, list[ReactionMasks]]:
    """Each reaction's (source, product) masks, and per species those of the
    reactions whose source contains it."""
    rmasks: ReactionMasks = []
    consumers: list[ReactionMasks] = [[] for _ in range(net.num_species)]
    for r in net.reactions:
        masks = (_mask(r.source.indices), _mask(r.product.indices))
        rmasks.append(masks)
        for i in r.source.indices:
            consumers[i].append(masks)
    return rmasks, consumers


def _largest_siphon(allowed: int, rmasks: ReactionMasks, consumers: list[ReactionMasks]) -> int:
    """Mask of the largest semi-locking set inside ``allowed`` (0 if none).

    Greatest fixpoint: drop every product of a reaction whose source misses
    the set, until no reaction does.  Semi-locking sets are closed under
    union, so what is left contains every one of them inside ``allowed``.
    One pass over the reactions drops what it can; after it, a source can
    come to miss the set only when one of its species is dropped, so only
    that species' consumers are looked at again.  Each species is dropped
    once, so each reaction is looked at once more per source species.
    """
    w = allowed
    for src, prod in rmasks:
        if prod & w and not src & w:
            w &= ~prod
    dropped = allowed ^ w
    while dropped:
        low = dropped & -dropped
        dropped ^= low
        for src, prod in consumers[low.bit_length() - 1]:
            if prod & w and not src & w:
                dropped |= prod & w
                w &= ~prod
    return w


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
    A, standing for the sets W with I <= W <= A; every stacked A is already
    the largest semi-locking set inside itself.  Once I contains a
    semi-locking set, no proper superset of I is minimal, so the node ends;
    I is recorded as a candidate if it is semi-locking itself.  Otherwise
    every W must contain one of some species c_1..c_k of A: all of A when I
    is empty, else those of the source of a reaction that produces a member
    of I from a source disjoint from I.  Child j takes c_j into I and has
    A_j, the largest semi-locking set inside A minus c_1..c_{j-1}, so the
    children split the node's sets disjointly.  A_1 is A itself and takes no
    evaluation, a child whose A_j lacks c_j holds no set and is not stacked,
    and the A_j shrink with j, so the first A_j that is empty or misses I
    ends the branching.  Each minimal set M is recorded once, at the node
    whose I is M.  Any other candidate contains a smaller semi-locking set,
    hence a minimal one, which is also a candidate.  So, with the candidates
    sorted by size, then by sorted species indices (the catalog's order), a
    candidate is minimal exactly when no kept candidate of strictly smaller
    size lies inside it; two sets of one size never contain each other, so
    only the smaller ones are compared.

    Raises :class:`~crncert.ratlin.ExactBudgetError`, the package's one
    error for an exact routine stopped at its work bound, once the search
    would evaluate more than ``FIXPOINT_BUDGET`` fixpoints.  Networks with
    exponentially many minimal sets reach it.
    """
    m = net.num_species
    rmasks, consumers = _reaction_tables(net)
    evaluations = 0

    def largest(allowed: int) -> int:
        nonlocal evaluations
        evaluations += 1
        if evaluations > FIXPOINT_BUDGET:
            raise ExactBudgetError(
                f"minimal siphon search on {m} species exceeded its budget of "
                f"{FIXPOINT_BUDGET} fixpoint evaluations"
            )
        return _largest_siphon(allowed, rmasks, consumers)

    found: list[int] = []
    stack = [(0, largest((1 << m) - 1))]
    while stack:
        inc, allowed = stack.pop()
        todo = allowed
        if inc:
            core = largest(inc)
            if core:
                if core == inc:
                    found.append(inc)
                continue
            todo &= next(src for src, prod in rmasks if prod & inc and not src & inc)
        while todo and not inc & ~allowed:
            low = todo & -todo
            stack.append((inc | low, allowed))
            todo ^= low
            if todo:
                allowed = largest(allowed & ~low)
                todo &= allowed
    found.sort(key=lambda w: (w.bit_count(), _members(w)))
    kept: list[int] = []
    smaller = size = 0  # kept[:smaller] are the kept sets of size below ``size``
    for w in found:
        if w.bit_count() > size:
            size, smaller = w.bit_count(), len(kept)
        if not any(k & w == k for k in kept[:smaller]):
            kept.append(w)
    entries = tuple(
        SiphonEntry(
            species=frozenset(_members(w)),
            locking=all(src & w for src, _ in rmasks),
        )
        for w in kept
    )
    return SiphonCatalog(entries=entries)
