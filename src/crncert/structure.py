"""Reaction-graph structure and exact stoichiometric linear algebra.

Rates never enter here: linkage classes, weak reversibility, the
stoichiometric subspace, conservation laws and the deficiency are all
properties of the graph and of integer complex vectors, computed by
exact integer elimination.  The flood fill that finds a linkage class
walks a spanning tree of it, and the n - l edge differences
y_j - y_parent(j) of those trees span the same subspace S as the r
reaction vectors; a reversible pair contributes two reaction vectors but
one edge at most.  An edge row touches only the species of two adjacent
complexes, so the elimination fills in little (a star of differences from
one shared complex would put that complex's species in every row).  One
elimination of the edges gives the canonical basis of S, and its rows and
pivots give the kernel, whose canonical form takes a second elimination:
two per network.
A :class:`RationalBasis` checks its canonical form entry by entry and runs
no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import TYPE_CHECKING

from . import ratlin

if TYPE_CHECKING:
    from .network import Complex, ReactionNetwork


def _members(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, in increasing order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


@dataclass(frozen=True)
class RationalBasis:
    """Canonical integer basis of a subspace of Q^dimension.

    The rows are the reduced row echelon form of the subspace (see
    :mod:`crncert.ratlin`): each row has gcd 1 and a positive leading entry,
    the leading entries sit in strictly increasing columns, and every other
    row is zero in those columns.  Construction checks exactly this, which
    implies independence, in time linear in the entries, and keeps the
    leading columns, row by row, as ``leads`` (derived, so it takes no part
    in equality or ``repr``).
    """

    dimension: int
    vectors: tuple[tuple[int, ...], ...]
    leads: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        leads: list[int] = []
        for v in self.vectors:
            if len(v) != self.dimension:
                raise ValueError("basis vector length differs from ambient dimension")
            first = next(filter(None, v), 0)
            if first <= 0 or gcd(*v) != 1:
                raise ValueError(f"basis vector {v} is not primitive with a positive leading entry")
            lead = v.index(first)
            if leads and lead <= leads[-1]:
                raise ValueError("basis leading entries are not in strictly increasing columns")
            leads.append(lead)
        # A row is zero before its own leading column, so only later leads need a look.
        for i, v in enumerate(self.vectors):
            for c in leads[i + 1 :]:
                if v[c]:
                    raise ValueError(f"basis vector {v} is nonzero in another vector's leading column")
        object.__setattr__(self, "leads", tuple(leads))

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class StructureReport:
    weakly_reversible: bool
    linkage_classes: tuple[tuple[int, ...], ...]
    complex_labels: tuple[str, ...]
    species_names: tuple[str, ...]
    s_basis: RationalBasis
    conservation_basis: RationalBasis

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "l": self.l,
            "s": self.s,
            "deficiency": self.deficiency,
            "weakly_reversible": self.weakly_reversible,
            "linkage_classes": [
                [self.complex_labels[i] for i in block] for block in self.linkage_classes
            ],
            "s_basis": [list(v) for v in self.s_basis.vectors],
            "conservation_basis": [list(v) for v in self.conservation_basis.vectors],
        }

    @property
    def n(self) -> int:
        return len(self.complex_labels)

    @property
    def l(self) -> int:
        return len(self.linkage_classes)

    @property
    def s(self) -> int:
        return len(self.s_basis)

    @property
    def deficiency(self) -> int:
        return self.n - self.l - self.s

    @property
    def hypothesis_failures(self) -> tuple[str, ...]:
        """Why the Deficiency Zero Theorem does not apply; empty when it does."""
        failures = []
        if not self.weakly_reversible:
            failures.append(
                "hypotheses of Deficiency Zero Theorem fail: network is not weakly reversible"
            )
        if self.deficiency != 0:
            failures.append(
                "hypotheses of Deficiency Zero Theorem fail: "
                f"deficiency is {self.deficiency}, not 0"
            )
        return tuple(failures)


def _complex_graph(
    net: ReactionNetwork,
) -> tuple[tuple[tuple[int, ...], ...], list[int], bool]:
    """Linkage classes, a spanning forest and weak reversibility, in one
    flood fill over bit masks.

    Each linkage class is the undirected flood from its lowest complex, so
    blocks are sorted and ordered by their smallest member.  The flood
    records the complex from which it first reached each other complex,
    its parent in a spanning tree of the class; a root is its own parent.
    The network is weakly reversible iff every class is strongly connected,
    that is iff the forward and the backward flood from each root cover its
    class.
    """
    idx = net.complex_index
    n = len(net.complexes)
    succ = [0] * n
    pred = [0] * n
    for source, product, _ in net.reactions:
        u, v = idx[source], idx[product]
        succ[u] |= 1 << v
        pred[v] |= 1 << u
    links = [a | b for a, b in zip(succ, pred)]

    parent = list(range(n))

    def flood(root: int, adj: list[int], tree: bool = False) -> int:
        seen = frontier = 1 << root
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            u = low.bit_length() - 1
            new = adj[u] & ~seen
            seen |= new
            frontier |= new
            if tree:
                for v in _members(new):
                    parent[v] = u
        return seen

    classes = []
    weakly_reversible = True
    unplaced = (1 << n) - 1
    while unplaced:
        root = (unplaced & -unplaced).bit_length() - 1
        block = flood(root, links, tree=True)
        unplaced &= ~block
        weakly_reversible = weakly_reversible and flood(root, succ) == block == flood(root, pred)
        classes.append(_members(block))
    return tuple(classes), parent, weakly_reversible


def structure_report(net: ReactionNetwork) -> StructureReport:
    """The network's exact structure, built once per network object (``net.structure``)."""
    return net.structure


def _label(c: Complex, names: tuple[str, ...]) -> str:
    """The text of complex ``c`` in the ``.crn`` format: ``2A + C``, or ``0`` when empty."""
    return " + ".join(f"{k}{names[i]}" if k > 1 else names[i] for i, k in c) or "0"


def _build_report(net: ReactionNetwork) -> StructureReport:
    """Compute the structure report; ``ReactionNetwork.structure`` keeps the result."""
    classes, parent, weakly_reversible = _complex_graph(net)
    m = net.num_species
    # The edges of a spanning tree of each linkage class span the same S as
    # its reaction vectors: n - l rows, not r.
    spanning = []
    for _, *rest in classes:
        for j in rest:
            row = [0] * m
            for i, k in net.complexes[j]:
                row[i] = k
            for i, k in net.complexes[parent[j]]:
                row[i] -= k
            spanning.append(row)
    reduced, pivots = ratlin.rref(spanning)
    s_basis = RationalBasis(m, tuple(reduced))
    cons = RationalBasis(m, ratlin.canonical_basis(ratlin._kernel(reduced, pivots, m)))
    return StructureReport(
        weakly_reversible=weakly_reversible,
        linkage_classes=classes,
        complex_labels=tuple(_label(c, net.species) for c in net.complexes),
        species_names=net.species,
        s_basis=s_basis,
        conservation_basis=cons,
    )
