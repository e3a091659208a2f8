from fractions import Fraction

import numpy as np
import pytest
import sympy

from hypothesis import given, settings
from hypothesis import strategies as st

from crncert import (
    MASS_ACTION,
    RationalBasis,
    ReactionNetwork,
    find_equilibrium,
    parse_network,
    simulate,
    structure_report,
)
from crncert import ratlin
from crncert.ratlin import canonical_basis

from conftest import cycle_union, dot, integer_rows, reaction_vector, vec_by_name
from randomnet import random_cycle_network, random_network


def test_linkage_classes_counts(ex1, ex3):
    assert [len(b) for b in structure_report(ex1).linkage_classes] == [4]
    assert [len(b) for b in structure_report(ex3).linkage_classes] == [2, 2]
    oneway = structure_report(parse_network("A -> B ; k=1"))
    assert [len(b) for b in oneway.linkage_classes] == [2]

def test_weak_reversibility(ex2):
    def weakly_reversible(net):
        return structure_report(net).weakly_reversible

    assert weakly_reversible(ex2)
    assert not weakly_reversible(parse_network("A -> B ; k=1"))
    cycle = parse_network("A -> B ; k=1\nB -> C ; k=1\nC -> A ; k=1")
    assert weakly_reversible(cycle)
    # one irreversible edge hanging off a cycle breaks it
    tail = parse_network("A -> B ; k=1\nB -> A ; k=1\nB -> C ; k=1")
    assert not weakly_reversible(tail)

def test_stoichiometric_basis_golden(ex1, ex2):
    basis = structure_report(ex1).s_basis
    assert len(basis) == 3
    expected_rows = [
        vec_by_name(ex1, {"A": 1, "D": 1, "E": -1}),
        vec_by_name(ex1, {"B": 1, "D": 2, "E": -2}),
        vec_by_name(ex1, {"C": 1, "D": -2, "E": 1}),
    ]
    assert canonical_basis(expected_rows) == basis.vectors
    assert len(structure_report(ex2).s_basis) == 2

def test_stoichiometric_basis_trivial():
    net = parse_network("A <-> B ; kf=1, kr=1")
    basis = structure_report(net).s_basis
    assert basis.vectors == ((1, -1),)

def test_conservation_basis_golden(ex2, ex3):
    assert structure_report(ex2).conservation_basis.vectors == ((1, 1, 1),)
    assert structure_report(ex3).conservation_basis.vectors == ((1, 1, 1),)
    net = parse_network("A <-> B ; kf=1, kr=1")
    assert structure_report(net).conservation_basis.vectors == ((1, 1),)

def test_structure_report_golden(ex1, ex2, ex3):
    for net, expected in ((ex1, (4, 1, 3)), (ex2, (3, 1, 2)), (ex3, (4, 2, 2))):
        rep = structure_report(net)
        assert (rep.n, rep.l, rep.s) == expected
        assert rep.deficiency == 0
        assert rep.weakly_reversible

def test_report_json_fields(ex1):
    doc = structure_report(ex1).to_json_dict()
    assert set(doc) == {
        "n", "l", "s", "deficiency", "weakly_reversible",
        "linkage_classes", "s_basis", "conservation_basis",
    }
    assert doc["linkage_classes"] == [["2A + C", "A + D", "C + B", "E"]]

@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_basis_orthogonality_and_dimension(seed):
    net = random_network(np.random.default_rng(seed))
    m = net.num_species
    s_basis = structure_report(net).s_basis
    cons = structure_report(net).conservation_basis
    assert len(s_basis) + len(cons) == m
    for u in s_basis.vectors:
        for w in cons.vectors:
            assert dot(u, w) == Fraction(0)

@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_deficiency_nonnegative(seed):
    net = random_network(np.random.default_rng(seed), allow_empty_complex=True)
    assert structure_report(net).deficiency >= 0

@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_exact_rank_matches_svd_oracle(seed):
    net = random_network(np.random.default_rng(seed))
    vectors = np.array(
        [reaction_vector(r, net.num_species) for r in net.reactions], dtype=float
    )
    svals = np.linalg.svd(vectors, compute_uv=False)
    float_rank = int(np.sum(svals > 1e-9))
    assert len(structure_report(net).s_basis) == float_rank

def _disjoint_union(nets, rng):
    """The parts on disjoint species, reactions shuffled so classes interleave."""
    reactions = []
    offset = 0
    for net in nets:
        for s, p, rate in net.reactions:
            source, product = (tuple((i + offset, k) for i, k in c) for c in (s, p))
            reactions.append((source, product, rate))
        offset += net.num_species
    species = tuple(f"S{i}" for i in range(offset))
    return ReactionNetwork(species, tuple(reactions[i] for i in rng.permutation(len(reactions))))

@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_graph_structure_matches_networkx(seed):
    import networkx as nx

    rng = np.random.default_rng(seed)
    nets = (
        random_network(rng, max_species=6, max_reactions=8),
        random_network(rng, max_species=8, max_reactions=16, allow_empty_complex=True),
        random_cycle_network(rng, max_species=6, max_complexes=8),
        # several linkage classes with interleaved complex indices; parts that
        # both use the empty complex share one class
        _disjoint_union(
            [random_network(rng, allow_empty_complex=True) for _ in range(2)]
            + [random_cycle_network(rng)],
            rng,
        ),
    )
    for net in nets:
        graph = nx.DiGraph()
        graph.add_nodes_from(range(len(net.complexes)))
        idx = net.complex_index
        for source, product, _ in net.reactions:
            graph.add_edge(idx[source], idx[product])
        report = structure_report(net)

        # JSON shows the blocks as stored: each sorted, ordered by smallest member
        expected_classes = sorted(
            sorted(c) for c in nx.connected_components(graph.to_undirected())
        )
        assert [list(b) for b in report.linkage_classes] == expected_classes
        assert report.l == len(expected_classes)

        comp_of = {}
        for cid, comp in enumerate(nx.strongly_connected_components(graph)):
            for node in comp:
                comp_of[node] = cid
        expected_wr = all(comp_of[u] == comp_of[v] for u, v in graph.edges)
        assert report.weakly_reversible == expected_wr


@given(st.integers(0, 10_000), st.randoms())
@settings(max_examples=40, deadline=None)
def test_linkage_classes_invariant_under_reaction_permutation(seed, rnd):
    net = random_network(np.random.default_rng(seed))
    shuffled = list(net.reactions)
    rnd.shuffle(shuffled)
    permuted = ReactionNetwork(net.species, tuple(shuffled))
    original = {
        frozenset(net.complexes[i] for i in block)
        for block in structure_report(net).linkage_classes
    }
    after = {
        frozenset(permuted.complexes[i] for i in block)
        for block in structure_report(permuted).linkage_classes
    }
    assert original == after

@given(st.integers(0, 10_000), st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_several_linkage_classes_give_the_span_of_all_reaction_vectors(seed, shared, with_empty):
    # The report eliminates the edges of a spanning tree of each class; the
    # reaction vectors span the same S.
    net, n_cycles = cycle_union(np.random.default_rng(seed), shared, with_empty)
    report = structure_report(net)
    m = net.num_species
    vectors = [reaction_vector(r, m) for r in net.reactions]
    stoichiometry = sympy.Matrix(vectors)
    rank = stoichiometry.rank()
    kernel = integer_rows(
        [[Fraction(int(x.p), int(x.q)) for x in v] for v in stoichiometry.nullspace()]
    )
    assert report.l == n_cycles and report.weakly_reversible
    assert report.s_basis.vectors == canonical_basis(vectors)
    assert report.conservation_basis.vectors == canonical_basis(kernel)
    assert report.s == len(report.s_basis) == rank
    assert len(report.conservation_basis) == m - rank
    assert report.deficiency == len(net.complexes) - n_cycles - rank


def test_chain_report_takes_few_row_updates(monkeypatch):
    # The edge rows S_i - S_j of a chain's spanning tree keep the elimination
    # sparse: about 3,700 row updates at m = 400, where differences from one
    # shared complex put it in every row and take 158,802.  The lines are
    # shuffled, as the benchmark's generator does: on species numbered along
    # the chain, Gauss-Jordan elimination updates every earlier row at each
    # pivot whatever rows it starts from.
    m = 400
    lines = [f"S{i} <-> S{i + 1} ; kf=1, kr=1" for i in range(m - 1)]
    order = np.random.default_rng(0).permutation(m - 1)
    net = parse_network("\n".join(lines[i] for i in order))
    eliminate = ratlin._eliminate
    updates = 0

    def counted_eliminate(rows, r, c):
        nonlocal updates
        updates += sum(1 for i, row in enumerate(rows) if i != r and row[c])
        eliminate(rows, r, c)

    monkeypatch.setattr(ratlin, "_eliminate", counted_eliminate)
    report = structure_report(net)
    assert report.s == m - 1 and len(report.conservation_basis) == 1
    assert updates < 10_000


def test_negative_deficiency_is_impossible_on_fixtures(ex1, ex2, ex3):
    for net in (ex1, ex2, ex3):
        assert structure_report(net).deficiency >= 0


def test_structure_is_built_once_per_network(monkeypatch):
    text = "A <-> B ; kf=1, kr=2\nB <-> C ; kf=3, kr=1"
    net = parse_network(text)
    rref = ratlin.rref
    calls = []

    def counted_rref(rows):
        calls.append(rows)
        return rref(rows)

    # One elimination gives S and the kernel; one more makes the kernel canonical.
    monkeypatch.setattr(ratlin, "rref", counted_rref)
    report = structure_report(net)
    assert len(calls) == 2
    monkeypatch.undo()
    assert structure_report(net) is report is net.structure

    def no_rref(rows):
        raise AssertionError("exact elimination ran again")

    # Equilibrium and integration reuse the report: no further elimination.
    monkeypatch.setattr(ratlin, "rref", no_rref)
    x_ref = find_equilibrium(net, [1.0, 1.0, 1.0]).x_bar
    simulate(net, MASS_ACTION, [0.5, 1.0, 1.5], 1.0, x_ref=x_ref)
    monkeypatch.undo()
    # The report lives on the network object, not in a process-wide cache.
    assert parse_network(text).structure is not report


@pytest.mark.parametrize(
    "vectors",
    [
        ((1, 0, 1), (2, 0, 2)),  # dependent
        ((0, 1, 1), (1, 0, 1)),  # independent, leading entries out of order
        ((1, 1, 0), (0, 1, 0)),  # first row nonzero in the second's leading column
        ((-1, 0, 1),),  # negative leading entry
        ((2, 0, 2),),  # not primitive
        ((0, 0, 0),),  # zero row
        ((1, 0),),  # wrong length
    ],
)
def test_rational_basis_rejects_rows_not_in_canonical_form(vectors):
    with pytest.raises(ValueError):
        RationalBasis(3, vectors)


def test_rational_basis_check_runs_no_elimination(monkeypatch):
    def no_rref(rows):
        raise AssertionError("exact elimination ran")

    monkeypatch.setattr(ratlin, "rref", no_rref)
    assert len(RationalBasis(3, ())) == 0
    basis = RationalBasis(4, ((1, 0, -2, 3), (0, 1, 5, -1)))
    assert len(basis) == 2 and basis.leads == (0, 1)
    # The leads are derived: equality, hashing and repr ignore them.
    twin = RationalBasis(4, basis.vectors)
    object.__setattr__(twin, "leads", ())
    assert twin == basis and hash(twin) == hash(basis)
    assert repr(basis) == f"RationalBasis(dimension=4, vectors={basis.vectors!r})"
