"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single pass line when its criterion holds; a failed
assertion marks the criterion as failed in the pytest report.
"""

import numpy as np

from crncert import (
    FaceStatus,
    MASS_ACTION,
    OverallStatus,
    certify,
    check_discrete,
    complex_balanced_point,
    find_equilibrium,
    generalized_kinetics,
    jacobian,
    lyapunov,
    minimal_semi_locking_sets,
    parse_network,
    persistence_margin,
    rhs,
    simulate,
    structure_report,
)
from crncert.ratlin import canonical_basis

from conftest import (
    face_kernel,
    is_semi_locking,
    names_of,
    random_rates,
    species_set,
    vec_by_name,
    verdict_for,
)
from randomnet import random_network


def _report(criterion: int, detail: str = "") -> None:
    print(f"criterion {criterion}: PASS {detail}".rstrip())


def test_criterion_1_example_1_golden(ex1):
    rep = structure_report(ex1)
    assert (rep.n, rep.l, rep.s, rep.deficiency) == (4, 1, 3, 0)
    assert rep.weakly_reversible

    catalog = minimal_semi_locking_sets(ex1)
    assert {names_of(ex1, e.species) for e in catalog.entries} == {
        frozenset("ABE"), frozenset("ACE"), frozenset("CDE"),
    }

    expected_span = [
        vec_by_name(ex1, {"A": 1, "D": 1, "E": -1}),
        vec_by_name(ex1, {"B": 1, "D": 2, "E": -2}),
        vec_by_name(ex1, {"C": 1, "D": -2, "E": 1}),
    ]
    basis = structure_report(ex1).s_basis
    assert canonical_basis(expected_span) == basis.vectors

    kernel = face_kernel(basis, species_set(ex1, "C", "D", "E"))
    assert kernel == (vec_by_name(ex1, {"A": 2, "B": -1}),)

    cert = certify(ex1)
    assert cert.overall is OverallStatus.GLOBALLY_STABLE
    assert verdict_for(cert, species_set(ex1, "A", "B", "E")).status is FaceStatus.DISCRETE
    assert verdict_for(cert, species_set(ex1, "A", "C", "E")).status is FaceStatus.DISCRETE
    assert (
        verdict_for(cert, species_set(ex1, "C", "D", "E")).status
        is FaceStatus.EMPTY_ALL_CLASSES
    )
    _report(1, "(example 1 golden, exact)")


def test_criterion_2_example_2_golden(ex2):
    rep = structure_report(ex2)
    assert (rep.n, rep.l, rep.s, rep.deficiency) == (3, 1, 2, 0)

    cert = certify(ex2)
    for pair in (("A", "B"), ("A", "C")):
        assert verdict_for(cert, species_set(ex2, *pair)).status is FaceStatus.DISCRETE
    assert {names_of(ex2, e.species) for e in cert.catalog.entries} == {
        frozenset("AB"), frozenset("AC"),
    }

    assert rep.conservation_basis.vectors == (vec_by_name(ex2, {"A": 1, "B": 1, "C": 1}),)

    for big in (1.0, 3.0):
        corner = np.array(vec_by_name(ex2, {"C": big}), dtype=float)
        eigvals = np.linalg.eigvals(jacobian(ex2, MASS_ACTION, corner))
        assert np.max(np.abs(eigvals)) < 1e-9
    _report(2, "(example 2 golden, boundary eigenvalues < 1e-9)")


def test_criterion_3_example_3_golden(ex3):
    rep = structure_report(ex3)
    assert (rep.n, rep.l, rep.s, rep.deficiency) == (4, 2, 2, 0)

    catalog = minimal_semi_locking_sets(ex3)
    assert len(catalog.entries) == 1
    assert names_of(ex3, catalog.entries[0].species) == frozenset("AB")
    assert catalog.entries[0].locking

    assert certify(ex3).overall is OverallStatus.GLOBALLY_STABLE
    _report(3, "(example 3 golden)")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(20_240_401)
    for _ in range(200):
        net = random_network(rng, max_species=6, max_reactions=8)
        m = net.num_species

        semi = [
            frozenset(i for i in range(m) if w >> i & 1)
            for w in range(1, 1 << m)
            if is_semi_locking(net, [i for i in range(m) if w >> i & 1])
        ]
        brute_minimal = {s for s in semi if not any(o < s for o in semi)}
        assert set(minimal_semi_locking_sets(net).minimal_sets) == brute_minimal

        basis = structure_report(net).s_basis
        for w in semi:
            rows = np.array(
                [[v[i] for v in basis.vectors] for i in sorted(w)], dtype=float
            )
            svals = np.linalg.svd(rows, compute_uv=False)
            svd_trivial_kernel = int(np.sum(svals > 1e-9)) == len(basis.vectors)
            assert check_discrete(basis, w)[0] == svd_trivial_kernel
    _report(4, "(200 random networks, brute-force and SVD oracles)")


def test_criterion_5_dynamics_properties(ex1, ex2, ex3):
    rng = np.random.default_rng(5_050)
    for net in (ex1, ex2, ex3):
        varied = random_rates(net, rng, 0.5, 2.0)
        m = net.num_species
        anchor = rng.uniform(0.5, 1.5, size=m)
        x_bar = find_equilibrium(varied, anchor).x_bar
        span = np.array(structure_report(net).s_basis.vectors, dtype=float).T

        endpoints = []
        for _ in range(10):
            while True:
                x0 = anchor + span @ rng.uniform(-0.3, 0.3, size=span.shape[1])
                if np.all(x0 > 0.05):
                    break
            traj = simulate(varied, MASS_ACTION, x0, 100.0, x_ref=x_bar)
            assert np.all(traj.states > 0)
            assert float(np.max(traj.conservation_residual)) <= 1e-8
            assert np.all(np.diff(traj.lyapunov) < 1e-12)
            assert persistence_margin(traj) > 0
            endpoints.append(traj.states[-1])
            assert np.max(np.abs(traj.states[-1] - x_bar)) < 1e-5

        for i in range(len(endpoints)):
            for j in range(i + 1, len(endpoints)):
                assert np.max(np.abs(endpoints[i] - endpoints[j])) < 1e-4
    _report(5, "(30 trajectories: positivity, conservation, V decay, uniqueness)")


def test_criterion_6_equilibrium_solver(ex1, ex2, ex3):
    rng = np.random.default_rng(606)
    for net in (ex1, ex2, ex3):
        for _ in range(20):
            varied = random_rates(net, rng, 0.5, 2.0)
            c = rng.uniform(0.5, 2.0, size=net.num_species)
            res = find_equilibrium(varied, c)
            assert res.residual_rhs <= 1e-9
            assert res.complex_balance_residual <= 1e-9

    two = parse_network("A -> B ; k=1\nB -> A ; k=2")
    res = find_equilibrium(two, [1.0, 2.0])
    assert np.max(np.abs(res.x_bar - np.array([2.0, 1.0]))) <= 1e-12
    _report(6, "(60 rate draws; closed form reproduced to 1e-12)")


def test_criterion_7_generalized_kinetics(ex2):
    m = ex2.num_species
    gk_abs = generalized_kinetics(abs, m)
    rng = np.random.default_rng(707)
    x_bar = np.ones(m)
    for _ in range(100):
        x = rng.uniform(0.05, 5.0, size=m)
        assert np.max(np.abs(rhs(ex2, MASS_ACTION, x) - rhs(ex2, gk_abs, x))) < 1e-12
        assert abs(lyapunov(x, x_bar)[0] - lyapunov(x, x_bar, gk_abs)[0]) < 1e-12

    def theta(v):
        # saturating map plus a linear tail: strictly increasing, onto [0, inf)
        return v / (1.0 + v) + 0.1 * v

    gk_sat = generalized_kinetics(theta, m)

    def theta_inverse(target):
        lo, hi = 0.0, 1.0
        while theta(hi) < target:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if theta(mid) < target else (lo, mid)
        return 0.5 * (lo + hi)

    x_star = complex_balanced_point(ex2)
    x_ref = np.array([theta_inverse(v) for v in x_star])
    traj = simulate(ex2, gk_sat, [0.4, 1.1, 2.0], 20.0, x_ref=x_ref)
    assert np.all(np.diff(traj.lyapunov) < 1e-12)
    assert persistence_margin(traj) > 0
    _report(7, "(theta=|x| matches mass action to 1e-12; saturating theta stays monotone)")


def test_criterion_8_negative_controls():
    oneway = parse_network("A -> B ; k=1")
    cert = certify(oneway)
    assert cert.overall is OverallStatus.NOT_CERTIFIED
    assert any("weakly reversible" in r for r in cert.reasons)
    assert structure_report(oneway).hypothesis_failures == (
        "hypotheses of Deficiency Zero Theorem fail: network is not weakly reversible",
    )

    deficient = parse_network("A <-> B ; kf=1, kr=1\n2A -> 2B ; k=1")
    rep = structure_report(deficient)
    # complexes A, B, 2A, 2B; classes {A,B} and {2A,2B}; span is 1-dimensional
    assert (rep.n, rep.l, rep.s) == (4, 2, 1)
    assert rep.deficiency == 1
    assert rep.hypothesis_failures == (
        "hypotheses of Deficiency Zero Theorem fail: network is not weakly reversible",
        "hypotheses of Deficiency Zero Theorem fail: deficiency is 1, not 0",
    )
    cert = certify(deficient)
    assert cert.overall is OverallStatus.NOT_CERTIFIED
    assert any("deficiency is 1" in r for r in cert.reasons)
    _report(8, "(refusals carry the failed hypothesis)")
