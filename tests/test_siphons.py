import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crncert import (
    minimal_semi_locking_sets,
    parse_network,
)
from crncert import siphons
from crncert.ratlin import ExactBudgetError
from crncert.siphons import FIXPOINT_BUDGET, _largest_siphon, _reaction_tables

from conftest import (
    BRUTE_FORCE_LIMIT,
    OVER_BUDGET_K,
    all_semi_locking_sets,
    cycle_union,
    doubling_siphons_text,
    is_locking,
    is_semi_locking,
    largest_siphon_by_rescan,
    names_of,
    ring_text,
    species_set,
    two_ring_text,
)
from randomnet import random_cycle_network, random_network


def minimal_by_scan(net):
    """Inclusion-minimal elements of the full 2^m scan, in the scan's order."""
    semi = all_semi_locking_sets(net)
    return [w for w in semi if not any(o < w for o in semi)]


def brute_force_minimal(net):
    m = net.num_species
    semi = [
        frozenset(i for i in range(m) if w >> i & 1)
        for w in range(1, 1 << m)
        if is_semi_locking(net, [i for i in range(m) if w >> i & 1])
    ]
    return {s for s in semi if not any(o < s for o in semi)}


def test_is_semi_locking_examples(ex1, ex2):
    assert is_semi_locking(ex1, species_set(ex1, "A", "B", "E"))
    # B + C -> E produces E but consumes neither B nor C from {E}
    assert not is_semi_locking(ex1, species_set(ex1, "E"))
    assert is_semi_locking(ex1, range(ex1.num_species))
    assert is_semi_locking(ex2, species_set(ex2, "A", "B"))
    # B + C -> E produces E without consuming A, D or E
    assert not is_semi_locking(ex1, species_set(ex1, "A", "D", "E"))
    # A -> B produces B from outside {B}
    two = parse_network("A <-> B ; kf=1, kr=2")
    assert not is_semi_locking(two, species_set(two, "B"))


def test_is_locking_examples(ex2, ex3):
    assert is_locking(ex3, species_set(ex3, "A", "B"))
    assert is_locking(ex2, species_set(ex2, "A", "C"))
    assert is_locking(ex2, range(ex2.num_species))
    assert not is_locking(ex2, species_set(ex2, "C"))


def test_nonempty_required(ex1):
    with pytest.raises(ValueError):
        is_semi_locking(ex1, [])
    with pytest.raises(ValueError):
        is_locking(ex1, [])


def test_minimal_sets_golden(ex1, ex2, ex3):
    got1 = {names_of(ex1, e.species) for e in minimal_semi_locking_sets(ex1).entries}
    assert got1 == {
        frozenset("ABE"), frozenset("ACE"), frozenset("CDE"),
    }
    got2 = {names_of(ex2, e.species) for e in minimal_semi_locking_sets(ex2).entries}
    assert got2 == {frozenset("AB"), frozenset("AC")}
    cat3 = minimal_semi_locking_sets(ex3)
    assert [names_of(ex3, e.species) for e in cat3.entries] == [frozenset("AB")]
    assert cat3.entries[0].locking


def test_deterministic_order(ex1):
    entries = minimal_semi_locking_sets(ex1).entries
    keys = [(len(e.species), tuple(sorted(e.species))) for e in entries]
    assert keys == sorted(keys)


def test_cap_exceeded():
    small = parse_network(doubling_siphons_text(4))
    catalog = minimal_semi_locking_sets(small)
    assert len(catalog.entries) == 16
    assert list(catalog.minimal_sets) == minimal_by_scan(small)
    net = parse_network(doubling_siphons_text(OVER_BUDGET_K))
    with pytest.raises(ExactBudgetError, match=f"budget of {FIXPOINT_BUDGET} fixpoint"):
        minimal_semi_locking_sets(net)
    with pytest.raises(ExactBudgetError, match="limited to 12 species"):
        all_semi_locking_sets(net)


def _assert_catalog_matches_scan(net, label):
    expected = minimal_by_scan(net)
    entries = minimal_semi_locking_sets(net).entries
    assert [e.species for e in entries] == expected, label
    assert [e.locking for e in entries] == [is_locking(net, w) for w in expected], label


def test_minimal_sets_equal_scan_oracle():
    # Species, order and locking flags against the 2^m scan, m <= 12.
    for seed in range(3000):
        rng = np.random.default_rng(seed)
        if seed % 3 == 0:
            net = random_network(rng, max_species=12, max_reactions=14, allow_empty_complex=seed % 2 == 0)
        elif seed % 3 == 1:
            net = random_network(rng)
        else:
            net = random_cycle_network(rng, max_species=12, max_complexes=8)
        _assert_catalog_matches_scan(net, seed)
    # Unions of cycles, from one shared pool of species and from disjoint
    # pools: one shared draw in eight and over a quarter of the disjoint
    # ones record a semi-locking candidate that contains a smaller one.
    checked = 0
    for seed in range(600):
        for shared in (True, False):
            net, _ = cycle_union(np.random.default_rng(seed), shared, seed % 3 == 0)
            if net.num_species <= BRUTE_FORCE_LIMIT:
                _assert_catalog_matches_scan(net, (seed, shared))
                checked += 1
    assert checked > 1150


PAIRS_TEXT = "\n".join(f"A{i} <-> B{i} ; kf=1, kr=1" for i in range(30))
CHAIN_TEXT = "\n".join(f"S{i} <-> S{i + 1} ; kf=1, kr=1" for i in range(59))
ENZYME_TEXT = "\n".join(
    f"E + S{i} <-> C{i} ; kf=1, kr=1\nC{i} <-> E + P{i} ; kf=1, kr=1" for i in range(20)
)


def test_synthetic_families_at_scale():
    pairs = parse_network(PAIRS_TEXT)
    assert [names_of(pairs, w) for w in minimal_semi_locking_sets(pairs).minimal_sets] == [
        frozenset({f"A{i}", f"B{i}"}) for i in range(30)
    ]
    chain = parse_network(CHAIN_TEXT)
    assert minimal_semi_locking_sets(chain).minimal_sets == (frozenset(range(60)),)
    enzyme = parse_network(ENZYME_TEXT)
    assert enzyme.num_species == 61
    assert [names_of(enzyme, w) for w in minimal_semi_locking_sets(enzyme).minimal_sets] == [
        frozenset({f"S{i}", f"C{i}", f"P{i}"}) for i in range(20)
    ] + [frozenset({"E"} | {f"C{i}" for i in range(20)})]


@pytest.mark.parametrize(
    "text, bound",
    [
        (PAIRS_TEXT, 92),
        (CHAIN_TEXT, 63),
        (ENZYME_TEXT, 104),
        (doubling_siphons_text(10), 4_095),
        (doubling_siphons_text(12), 16_383),
        (ring_text(13), 24_576),
        (two_ring_text(9), 57_526),
    ],
    ids=["pairs-30", "chain-60", "enzyme-20", "doubling-10", "doubling-12", "ring-13", "two-ring-9"],
)
def test_fixpoint_evaluations_on_the_scale_families(monkeypatch, text, bound):
    # Every stacked A is already a fixpoint, so neither a popped node nor a
    # first child evaluates it again, and a recorded I costs only largest(I).
    # Each bound is one above the search's count.
    net = parse_network(text)
    evaluations = 0

    def counted_largest(allowed, rmasks, consumers):
        nonlocal evaluations
        evaluations += 1
        return _largest_siphon(allowed, rmasks, consumers)

    monkeypatch.setattr(siphons, "_largest_siphon", counted_largest)
    minimal_semi_locking_sets(net)
    assert evaluations < bound


def _assert_fixpoint_matches_rescan(net, masks):
    rmasks, consumers = _reaction_tables(net)
    for allowed in masks:
        expected = largest_siphon_by_rescan(allowed, rmasks)
        assert _largest_siphon(allowed, rmasks, consumers) == expected, (net, allowed)


def test_fixpoint_equals_rescan_on_every_mask():
    checked = 0
    for seed in range(120):
        rng = np.random.default_rng(seed)
        if seed % 2:
            net, _ = cycle_union(rng, seed % 4 == 1, seed % 3 == 0)
        else:
            net = random_network(rng, max_species=10, max_reactions=14, allow_empty_complex=seed % 4 == 0)
        if net.num_species > 10:
            continue
        _assert_fixpoint_matches_rescan(net, range(1 << net.num_species))
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize(
    "text",
    [
        "\n".join(f"S{i} <-> S{i + 1} ; kf=1, kr=1" for i in range(39)),
        "\n".join(f"A{i} <-> B{i} ; kf=1, kr=1" for i in range(20)),
        "\n".join(f"E + S{i} <-> C{i} ; kf=1, kr=1\nC{i} <-> E + P{i} ; kf=1, kr=1" for i in range(13)),
    ],
    ids=["chain-m40", "pairs-p20", "enzyme-k13"],
)
def test_fixpoint_equals_rescan_on_random_masks_at_scale(text):
    net = parse_network(text)
    m = net.num_species
    rng = np.random.default_rng(m)
    # Dense masks keep most species, so the propagation runs long.
    masks = [
        sum(1 << int(i) for i in np.flatnonzero(rng.random(m) < density))
        for density in (0.5, 0.9, 0.97, 1.0)
        for _ in range(100)
    ]
    _assert_fixpoint_matches_rescan(net, masks)


def test_semi_locking_count(ex2):
    # {A,B}, {A,C}, {A,B,C} are all the semi-locking sets of the chain
    assert len(all_semi_locking_sets(ex2)) == 3
    assert len(minimal_semi_locking_sets(ex2).entries) == 2


def test_catalog_json(ex3):
    doc = minimal_semi_locking_sets(ex3).to_json_list(ex3.species)
    assert doc == [{"species": ["A", "B"], "locking": True}]


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_minimal_sets_match_brute_force(seed):
    net = random_network(np.random.default_rng(seed))
    got = set(minimal_semi_locking_sets(net).minimal_sets)
    assert got == brute_force_minimal(net)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_every_semi_locking_set_contains_a_minimal_one(seed):
    net = random_network(np.random.default_rng(seed))
    minimal = set(minimal_semi_locking_sets(net).minimal_sets)
    for w in all_semi_locking_sets(net):
        assert any(s <= w for s in minimal)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_union_of_semi_locking_is_semi_locking(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    catalog = all_semi_locking_sets(net)
    if len(catalog) < 2:
        return
    a, b = (catalog[i] for i in rng.choice(len(catalog), size=2))
    assert is_semi_locking(net, a | b)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_weakly_reversible_single_class_siphons_are_locking(seed):
    net = random_cycle_network(np.random.default_rng(seed))
    for entry in minimal_semi_locking_sets(net).entries:
        assert entry.locking
