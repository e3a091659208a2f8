"""Reaction-graph structure and exact stoichiometric linear algebra.

Rates never enter here: linkage classes, weak reversibility, the
stoichiometric subspace, conservation laws and the deficiency are all
properties of the graph and of integer reaction vectors, computed by
exact integer elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ratlin
from .network import ReactionNetwork, reaction_vector


@dataclass(frozen=True)
class RationalBasis:
    """Independent spanning set with exact integer entries (canonical form)."""

    dimension: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.dimension:
                raise ValueError("basis vector length differs from ambient dimension")
        if ratlin.rank(self.vectors) != len(self.vectors):
            raise ValueError("basis vectors are not linearly independent")

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class StructureReport:
    n: int
    l: int
    s: int
    deficiency: int
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


def _complex_graph(net: ReactionNetwork) -> tuple[int, list[tuple[int, int]]]:
    idx = net.complex_index
    edges = [(idx[r.source], idx[r.product]) for r in net.reactions]
    return len(net.complexes), edges


def linkage_classes(net: ReactionNetwork) -> tuple[tuple[int, ...], ...]:
    """Connected components of the undirected complex graph.

    Returns blocks of indices into ``net.complexes``, each block
    sorted, blocks ordered by their smallest member.
    """
    n, edges = _complex_graph(net)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return tuple(tuple(blocks[root]) for root in sorted(blocks))


def _strongly_connected_components(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Tarjan's algorithm, iterative.  Returns component id per node."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for k in range(ei, len(adj[node])):
                nxt = adj[node][k]
                if index[nxt] == -1:
                    work[-1] = (node, k + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == node:
                        break
                ncomp += 1
    return comp


def is_weakly_reversible(net: ReactionNetwork) -> bool:
    """True iff every reaction edge stays inside one strongly connected component."""
    n, edges = _complex_graph(net)
    comp = _strongly_connected_components(n, edges)
    return all(comp[u] == comp[v] for u, v in edges)


def stoichiometric_basis(net: ReactionNetwork) -> RationalBasis:
    """Canonical exact basis of the span of all reaction vectors."""
    m = net.num_species
    vectors = [reaction_vector(r, m) for r in net.reactions]
    return RationalBasis(m, ratlin.canonical_basis(vectors))


def _orthogonal_complement(s_basis: RationalBasis) -> RationalBasis:
    return RationalBasis(s_basis.dimension, ratlin.nullspace(s_basis.vectors, s_basis.dimension))


def conservation_basis(net: ReactionNetwork) -> RationalBasis:
    """Canonical exact basis of the orthogonal complement of the reaction span."""
    return _orthogonal_complement(stoichiometric_basis(net))


def structure_report(net: ReactionNetwork) -> StructureReport:
    classes = linkage_classes(net)
    s_basis = stoichiometric_basis(net)
    cons = _orthogonal_complement(s_basis)
    n = len(net.complexes)
    l = len(classes)
    s = len(s_basis)
    deficiency = n - l - s
    names = net.species_names
    return StructureReport(
        n=n,
        l=l,
        s=s,
        deficiency=deficiency,
        weakly_reversible=is_weakly_reversible(net),
        linkage_classes=classes,
        complex_labels=tuple(c.format(names) for c in net.complexes),
        species_names=names,
        s_basis=s_basis,
        conservation_basis=cons,
    )
