import pathlib
from fractions import Fraction
from math import lcm

import pytest

from crncert import (
    Complex,
    Reaction,
    ReactionNetwork,
    Species,
    check_discrete,
    parse_network_file,
    structure_report,
)
from crncert.ratlin import ExactBudgetError, rref

NETWORKS = pathlib.Path(__file__).resolve().parent.parent / "networks"


@pytest.fixture(scope="session")
def ex1():
    return parse_network_file(NETWORKS / "ex1.crn")


@pytest.fixture(scope="session")
def ex2():
    return parse_network_file(NETWORKS / "ex2.crn")


@pytest.fixture(scope="session")
def ex3():
    return parse_network_file(NETWORKS / "ex3.crn")


def species_set(net, *names):
    index = {n: i for i, n in enumerate(net.species_names)}
    return frozenset(index[n] for n in names)


def reaction_vector(reaction, num_species):
    """Dense net stoichiometry of one reaction: product minus source."""
    v = [0] * num_species
    for i, k in reaction.source.terms:
        v[i] -= k
    for i, k in reaction.product.terms:
        v[i] += k
    return tuple(v)


def dot(u, v):
    """Exact inner product; an ``int`` when both vectors are integer."""
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def integer_rows(rows):
    """Each row of ints and Fractions times the lcm of its denominators.

    The package reads integer entries only; scaling a row by a positive
    factor keeps its row space, its kernel and its half-space.
    """
    out = []
    for row in rows:
        fracs = [Fraction(v) for v in row]
        scale = lcm(*(f.denominator for f in fracs))
        out.append([int(f * scale) for f in fracs])
    return out


def vec_by_name(net, mapping):
    """Dense tuple in the network's species order from a name -> value dict."""
    return tuple(mapping.get(s.name, 0) for s in net.species)


def face_kernel(basis, members):
    """Canonical basis of {z in S : z_W = 0}, read off ``check_discrete``.

    Each witness is the first row of that basis and the later rows are zero
    at its pivot, so adding the pivot to W leaves exactly the later rows.
    """
    w, kernel = set(members), []
    while True:
        discrete, z = check_discrete(basis, w)
        if discrete:
            return tuple(kernel)
        kernel.append(z)
        w.add(next(i for i, v in enumerate(z) if v))


def names_of(net, members):
    return frozenset(net.species_names[i] for i in members)


def rank(rows):
    return len(rref(rows)[1])


def random_rates(net, rng, low=0.5, high=2.0):
    """Fresh copy of the network with rates drawn uniformly from [low, high]."""
    rates = rng.uniform(low, high, size=len(net.reactions))
    reactions = tuple(
        Reaction(r.source, r.product, float(k)) for r, k in zip(net.reactions, rates)
    )
    return ReactionNetwork(net.species, reactions)


def serialize_network(net):
    """Render the network in the ``.crn`` format, one directed reaction per line."""
    names = net.species_names
    lines = [
        f"{r.source.format(names)} -> {r.product.format(names)} ; k={r.rate!r}"
        for r in net.reactions
    ]
    return "\n".join(lines) + "\n"


def verdict_for(cert, members):
    """The certificate's verdict on the face of W, or None if it has none."""
    w = frozenset(members)
    return next((v for v in cert.verdicts if v.species == w), None)


def _species_set(net, members):
    w = frozenset(members)
    if not w:
        raise ValueError("species set must be nonempty")
    if any(i < 0 or i >= net.num_species for i in w):
        raise ValueError("species index out of range")
    return w


def is_semi_locking(net, members):
    """True iff every reaction producing a member of W also consumes one."""
    w = _species_set(net, members)
    return all(r.source.indices & w for r in net.reactions if r.product.indices & w)


def is_locking(net, members):
    """True iff every reaction's source complex meets W."""
    w = _species_set(net, members)
    return all(r.source.indices & w for r in net.reactions)


# Species count above which the 2^m scan below refuses to run.
BRUTE_FORCE_LIMIT = 12


def all_semi_locking_sets(net):
    """Every semi-locking set, by scanning all nonempty subsets (small m only).

    Sorted by size, then by sorted species indices, the order of the
    minimal catalog.
    """
    m = net.num_species
    if m > BRUTE_FORCE_LIMIT:
        raise ExactBudgetError(
            f"full catalog limited to {BRUTE_FORCE_LIMIT} species, got {m}"
        )
    rmasks = [
        (sum(1 << i for i in r.source.indices), sum(1 << i for i in r.product.indices))
        for r in net.reactions
    ]
    semi = [
        tuple(i for i in range(m) if w >> i & 1)
        for w in range(1, 1 << m)
        if all(src & w for src, prod in rmasks if prod & w)
    ]
    return tuple(frozenset(ws) for ws in sorted(semi, key=lambda ws: (len(ws), ws)))


def largest_siphon_by_rescan(allowed, rmasks):
    """Mask of the largest semi-locking set inside ``allowed`` (0 if none).

    Greatest fixpoint by rescanning: drop every product of a reaction whose
    source misses the set, and scan every reaction again until none does.
    ``rmasks`` holds each reaction's (source, product) species masks.
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


# Rates from 3e-10 to 6e8: from X_SPREAD, its class equilibrium is about
# (0.0506, 2.50e8, 2.50e8, 1.75e18), with the one conservation law S1 - S2.
SPREAD = (
    "S0 + 2S1 + 2S2 -> 2S3 ; k=5.187587939345723e-06\n"
    "2S3 -> S3 ; k=3.319925670712246e-10\n"
    "S3 -> S0 + 2S3 ; k=582178373.0854931\n"
    "S0 + 2S3 -> S0 + 2S1 + 2S2 ; k=6.557536500659369e-09\n"
)
X_SPREAD = [1.34492680147361, 0.8678807389115167, 1.4510229811957993, 0.8994252615788064]


# Smallest k at which the doubling network below exceeds
# siphons.FIXPOINT_BUDGET: its search takes 2^(k+2) - 2 evaluations, here
# for 32768 minimal sets of 30 species each.
OVER_BUDGET_K = 15


def doubling_siphons_text(k):
    """``Z_i -> X_i``, ``Z_i -> Y_i``, ``X_i + Y_i -> Z_{i+1 mod k}`` for i < k.

    Its minimal semi-locking sets are all the Z_i plus one of X_i, Y_i for
    every i: 2^k sets on 3k species, so enumerating them takes exponential
    work however the search prunes.
    """
    return "\n".join(
        f"Z{i} -> X{i} ; k=1\nZ{i} -> Y{i} ; k=1\nX{i} + Y{i} -> Z{(i + 1) % k} ; k=1"
        for i in range(k)
    )


def ring_text(k):
    """``A_i + B_i <-> A_{i+1} + B_{i+1}`` for i < k, indices mod k.

    One linkage class of k complexes and deficiency zero; its minimal
    semi-locking sets take one of A_i, B_i for every i: 2^k sets of k species.
    """
    return "\n".join(
        f"A{i} + B{i} <-> A{(i + 1) % k} + B{(i + 1) % k} ; kf=1, kr=1" for i in range(k)
    )


def two_ring_text(k):
    """The ring of ``ring_text(k)`` plus ``B_i + C_i <-> B_{i+1} + C_{i+1}``."""
    return ring_text(k) + "\n" + "\n".join(
        f"B{i} + C{i} <-> B{(i + 1) % k} + C{(i + 1) % k} ; kf=1, kr=1" for i in range(k)
    )


def _fraction_det(matrix):
    """Determinant of a square list-of-lists of Fractions, by Gaussian elimination."""
    a = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            factor = a[r][col] / a[col][col]
            for j in range(col, len(a)):
                a[r][j] -= factor * a[col][j]
    return det


def exact_tree_constants(net):
    """Tree constant of every complex, exact, by the Matrix-Tree theorem.

    Built by loops over ``net.reactions``.  On each linkage class, with
    ``Q[a][b]`` the rate a -> b and ``Q[a][a]`` minus the total rate out of
    a, the constant of complex j is the determinant of ``-Q`` without row
    and column j, in ``Fraction``.  The constants are checked to balance
    every complex exactly before they are returned, indexed like
    ``net.complexes``.
    """
    idx = net.complex_index
    n = len(net.complexes)
    q = [[Fraction(0)] * n for _ in range(n)]
    for r in net.reactions:
        a, b = idx[r.source], idx[r.product]
        q[a][b] += Fraction(r.rate)
        q[a][a] -= Fraction(r.rate)
    kappa = [Fraction(0)] * n
    for block in structure_report(net).linkage_classes:
        for j in block:
            rest = [a for a in block if a != j]
            kappa[j] = _fraction_det([[-q[a][b] for b in rest] for a in rest])
    for j in range(n):
        inflow = sum(kappa[a] * q[a][j] for a in range(n) if a != j)
        assert inflow == -kappa[j] * q[j][j] and kappa[j] > 0
    return kappa


def cycle_union(rng, shared_species, with_empty):
    """Union of 2-3 directed cycles of distinct complexes, as constructors build it.

    No complex sits on two cycles, so each cycle is one linkage class and
    the network is weakly reversible.  The cycles draw their complexes from
    one pool of species (``shared_species``) or from disjoint pools; with
    ``with_empty`` the first cycle passes through the empty complex.
    Species are indexed in order of first appearance.  Returns the network
    and its number of cycles.
    """
    n_cycles = int(rng.integers(2, 4))
    pool = int(rng.integers(2, 6))
    taken = set()
    cycles = []
    for c in range(n_cycles):
        first = 0 if shared_species else c * pool
        cycle = [()] if with_empty and c == 0 else []
        for _ in range(int(rng.integers(2, 5))):
            picked = rng.choice(pool, size=int(rng.integers(1, 3)), replace=False)
            members = sorted(first + int(i) for i in picked)
            terms = tuple((i, int(rng.integers(1, 3))) for i in members)
            if terms not in taken and terms not in cycle:
                cycle.append(terms)
        k = 3
        while len(cycle) < 2:
            if ((first, k),) not in taken:
                cycle.append(((first, k),))
            k += 1
        taken.update(cycle)
        cycles.append(cycle)
    order = {}
    for cycle in cycles:
        for terms in cycle:
            for i, _ in terms:
                order.setdefault(i, len(order))

    def complex_(terms):
        return Complex(tuple(sorted((order[i], k) for i, k in terms)))

    reactions = tuple(
        Reaction(complex_(a), complex_(b), float(rng.uniform(0.5, 2.0)))
        for cycle in cycles
        for a, b in zip(cycle, cycle[1:] + cycle[:1])
    )
    species = tuple(Species(f"S{i}") for i in range(len(order)))
    return ReactionNetwork(species, reactions), n_cycles
