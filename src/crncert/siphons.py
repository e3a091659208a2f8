"""Semi-locking and locking species sets.

A nonempty species set W is semi-locking when every reaction that produces
a member of W also consumes one; it is locking when every reaction consumes
one.  Zeroing a semi-locking set freezes the species of W at zero, which is
why these sets are the only candidate supports for boundary attractors.

Enumeration is an exhaustive size-ascending sweep over subsets with
superset pruning; networks of interest are small, and the unpruned subset
scan doubles as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .network import ReactionNetwork

SpeciesSet = frozenset[int]

BRUTE_FORCE_LIMIT = 12
ENUMERATION_LIMIT = 20


class EnumerationCapError(RuntimeError):
    """Raised when a network is too large for exhaustive subset enumeration."""


def _mask(members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def _reaction_masks(net: ReactionNetwork) -> list[tuple[int, int]]:
    return [(_mask(r.source.indices), _mask(r.product.indices)) for r in net.reactions]


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

    Sweeps subsets by ascending size (lexicographic within a size), skipping
    supersets of sets already found, so the output order is deterministic.
    Raises :class:`EnumerationCapError` beyond ``ENUMERATION_LIMIT`` species.
    """
    m = net.num_species
    if m > ENUMERATION_LIMIT:
        raise EnumerationCapError(
            f"{m} species is too large for exhaustive enumeration (cap {ENUMERATION_LIMIT})"
        )
    rmasks = _reaction_masks(net)
    found: list[int] = []
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            w = _mask(combo)
            if any(f & w == f for f in found):
                continue
            if all(src & w for src, prod in rmasks if prod & w):
                found.append(w)
    entries = tuple(
        SiphonEntry(
            species=frozenset(i for i in range(m) if w >> i & 1),
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
    out.sort(key=lambda w: (bin(w).count("1"), tuple(i for i in range(m) if w >> i & 1)))
    return tuple(frozenset(i for i in range(m) if w >> i & 1) for w in out)

