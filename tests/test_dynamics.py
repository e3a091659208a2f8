import math

import numpy as np
import pytest

from crncert import (
    MASS_ACTION,
    HypothesesError,
    IntegrationError,
    OverallStatus,
    Trajectory,
    certify,
    complex_balance_residual,
    complex_balanced_point,
    conservation_basis,
    find_equilibrium,
    generalized_kinetics,
    is_semi_locking,
    jacobian,
    lyapunov,
    parse_network,
    persistence_margin,
    rhs,
    simulate,
    stoichiometric_basis,
)
from crncert import dynamics
from crncert.randomnet import random_cycle_network, random_rates


@pytest.fixture(scope="module")
def ab():
    return parse_network("A -> B ; k=1\nB -> A ; k=2")


def test_rhs_hand_examples(ab, ex2):
    assert np.allclose(rhs(ab, MASS_ACTION, [2.0, 1.0]), [0.0, 0.0])
    assert np.allclose(rhs(ab, MASS_ACTION, [1.0, 1.0]), [1.0, -1.0])
    assert np.allclose(rhs(ex2, MASS_ACTION, [1.0, 1.0, 1.0]), np.zeros(3))


def test_rhs_locked_at_zero(ex3):
    # {A, B} is locking: zeroing it silences every source complex
    x = np.array([0.0, 0.0, 2.5])
    assert np.allclose(rhs(ex3, MASS_ACTION, x), np.zeros(3))


def test_rhs_rejects_negative(ab):
    for bad in ([-0.1, 1.0], [math.nan, 1.0], [1.0, math.inf]):
        for f in (rhs, jacobian):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                f(ab, MASS_ACTION, bad)


def test_lyapunov_examples():
    v, g = lyapunov([1.5, 0.2], [1.5, 0.2])
    assert v == 0.0
    assert np.allclose(g, 0.0)
    v, g = lyapunov([math.e, 1.0], [1.0, 1.0])
    assert abs(v - 1.0) < 1e-14
    assert np.allclose(g, [1.0, 0.0])
    with pytest.raises(ValueError):
        lyapunov([0.0, 1.0], [1.0, 1.0])


def test_lyapunov_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(0.2, 3.0, size=4)
        x_bar = rng.uniform(0.2, 3.0, size=4)
        _, grad = lyapunov(x, x_bar)
        h = 1e-6
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (lyapunov(xp, x_bar)[0] - lyapunov(xm, x_bar)[0]) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


def test_jacobian_constant_for_linear_system(ab):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0.1, 5.0, size=2)
        assert np.allclose(jacobian(ab, MASS_ACTION, x), [[-1.0, 2.0], [1.0, -2.0]])


def test_jacobian_matches_finite_differences(ex1):
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(0.3, 2.0, size=ex1.num_species)
        jac = jacobian(ex1, MASS_ACTION, x)
        h = 1e-6
        for j in range(ex1.num_species):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (rhs(ex1, MASS_ACTION, xp) - rhs(ex1, MASS_ACTION, xm)) / (2 * h)
            denom = np.maximum(1.0, np.abs(jac[:, j]))
            assert np.max(np.abs(fd - jac[:, j]) / denom) < 1e-6


def test_jacobian_zero_eigenvalues_at_boundary(ex2):
    for big in (1.0, 3.0):
        jac = jacobian(ex2, MASS_ACTION, [0.0, 0.0, big])
        assert np.max(np.abs(np.linalg.eigvals(jac))) < 1e-9


def test_simulate_two_species_closed_form(ab):
    traj = simulate(ab, MASS_ACTION, [1.0, 2.0], 10.0)
    assert np.max(np.abs(traj.states[-1] - [2.0, 1.0])) < 1e-6
    assert np.all(traj.states > 0)
    assert np.all(np.diff(traj.times) > 0)


def test_simulate_monotone_lyapunov(ex2):
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0.3, 1.7, size=3)
    x0 *= 3.0 / x0.sum()
    x_bar = find_equilibrium(ex2, x0).x_bar
    traj = simulate(ex2, MASS_ACTION, x0, 50.0, x_ref=x_bar)
    assert np.all(np.diff(traj.lyapunov) < 1e-12)


def test_simulate_conservation_residual(ex1, ex2, ex3):
    rng = np.random.default_rng(9)
    for net in (ex1, ex2, ex3):
        x0 = rng.uniform(0.5, 1.5, size=net.num_species)
        traj = simulate(net, MASS_ACTION, x0, 100.0)
        assert float(np.max(traj.conservation_residual)) <= 1e-8


def test_simulate_rejects_boundary_start(ex2):
    with pytest.raises(ValueError):
        simulate(ex2, MASS_ACTION, [0.0, 1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        simulate(ex2, MASS_ACTION, [1.0, 1.0, 1.0], -1.0)
    for x0 in ([1.0, math.nan, 1.0], [1.0, 1.0, math.inf]):
        with pytest.raises(ValueError, match="x0 must be entrywise positive and finite"):
            simulate(ex2, MASS_ACTION, x0, 1.0)
    for t_end in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            simulate(ex2, MASS_ACTION, [1.0, 1.0, 1.0], t_end)
    for tols, name in (((-1.0, 1e-10), "rtol"), ((1e-8, math.inf), "atol"),
                       ((math.nan, 1e-10), "rtol"), ((0.0, 0.0), "atol")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            simulate(ex2, MASS_ACTION, [1.0, 1.0, 1.0], 1.0, rtol=tols[0], atol=tols[1])


def test_find_equilibrium_closed_form(ab):
    res = find_equilibrium(ab, [1.0, 2.0])
    assert np.max(np.abs(res.x_bar - [2.0, 1.0])) < 1e-12
    assert res.residual_rhs <= 1e-9
    assert np.allclose(res.class_anchor, [1.0, 2.0])


def test_find_equilibrium_cross_validates_with_integration(ex2):
    rng = np.random.default_rng(21)
    c = np.ones(3)
    x_bar = find_equilibrium(ex2, c).x_bar
    basis = np.array(stoichiometric_basis(ex2).vectors, dtype=float).T
    for _ in range(5):
        while True:
            x0 = c + basis @ rng.uniform(-0.4, 0.4, size=basis.shape[1])
            if np.all(x0 > 0):
                break
        traj = simulate(ex2, MASS_ACTION, x0, 200.0)
        assert np.max(np.abs(traj.states[-1] - x_bar)) < 1e-5


def test_find_equilibrium_residuals_random_rates(ex1, ex2, ex3):
    rng = np.random.default_rng(2)
    for net in (ex1, ex2, ex3):
        for _ in range(3):
            varied = random_rates(net, rng)
            c = rng.uniform(0.5, 2.0, size=net.num_species)
            res = find_equilibrium(varied, c)
            assert res.residual_rhs <= 1e-9
            assert res.complex_balance_residual <= 1e-9
            # the equilibrium stays in the anchor's class
            cons = np.array(conservation_basis(net).vectors, dtype=float)
            assert np.max(np.abs(cons @ (res.x_bar - c))) < 1e-9


def test_find_equilibrium_refuses_bad_networks():
    oneway = parse_network("A -> B ; k=1")
    with pytest.raises(HypothesesError, match="weakly reversible"):
        find_equilibrium(oneway, [1.0, 1.0])
    deficient = parse_network("A <-> B ; kf=1, kr=1\n2A <-> 2B ; kf=1, kr=1")
    with pytest.raises(HypothesesError, match="deficiency"):
        find_equilibrium(deficient, [1.0, 1.0])
    ok = parse_network("A <-> B ; kf=1, kr=1")
    # a bad anchor is a bad argument, not a failed hypothesis
    for anchor in ([1.0, 0.0], [math.nan, 1.0], [1.0, math.inf]):
        with pytest.raises(ValueError, match="anchor c must be entrywise positive") as info:
            find_equilibrium(ok, anchor)
        assert not isinstance(info.value, HypothesesError)


def test_find_equilibrium_inflow_network_without_conservation():
    # 0 <-> A <-> B: the span is all of R^2, one class covers everything
    net = parse_network("0 <-> A ; kf=1, kr=1\nA <-> B ; kf=3, kr=1")
    assert len(conservation_basis(net)) == 0
    res = find_equilibrium(net, [1.0, 1.0])
    assert np.max(np.abs(res.x_bar - [1.0, 3.0])) < 1e-10
    traj = simulate(net, MASS_ACTION, [5.0, 0.2], 120.0, x_ref=res.x_bar)
    assert np.all(np.diff(traj.lyapunov) < 1e-12)
    assert np.max(np.abs(traj.states[-1] - res.x_bar)) < 1e-6
    assert float(np.max(traj.conservation_residual)) == 0.0


def test_generalized_jacobian_fd_matches_analytic(ex2):
    gk = generalized_kinetics(abs, 3)
    rng = np.random.default_rng(29)
    for _ in range(5):
        x = rng.uniform(0.3, 2.0, size=3)
        fd = jacobian(ex2, gk, x)
        analytic = jacobian(ex2, MASS_ACTION, x)
        assert np.max(np.abs(fd - analytic)) < 1e-5


def test_complex_balance_at_stage_one_point(ex1, ex2, ex3):
    rng = np.random.default_rng(13)
    for net in (ex1, ex2, ex3):
        varied = random_rates(net, rng)
        x_star = complex_balanced_point(varied)
        assert np.all(x_star > 0)
        assert complex_balance_residual(varied, x_star) <= 1e-9


def test_equilibria_of_two_classes_differ_inside_conservation_space(ex2):
    rng = np.random.default_rng(17)
    for _ in range(5):
        varied = random_rates(ex2, rng)
        c1 = rng.uniform(0.5, 2.0, size=3)
        c2 = rng.uniform(0.5, 2.0, size=3)
        x1 = find_equilibrium(varied, c1).x_bar
        x2 = find_equilibrium(varied, c2).x_bar
        diff = np.log(x1) - np.log(x2)
        basis = np.array(stoichiometric_basis(ex2).vectors, dtype=float)
        q, _ = np.linalg.qr(basis.T)
        # the log-difference has no component inside the reaction span
        assert np.max(np.abs(q.T @ diff)) < 1e-8


def test_persistence_margin_frozen_trajectory(ab):
    x_bar = np.array([2.0, 1.0])
    traj = Trajectory(
        times=np.linspace(0, 1, 11),
        states=np.tile(x_bar, (11, 1)),
        lyapunov=None,
        conservation_residual=np.zeros(11),
    )
    assert persistence_margin(traj) == 1.0


def test_persistence_margin_decays_for_draining_network():
    net = parse_network("A -> B ; k=1")
    short = simulate(net, MASS_ACTION, [1.0, 1.0], 2.0)
    long = simulate(net, MASS_ACTION, [1.0, 1.0], 100.0)
    assert persistence_margin(short) > 0.1
    assert persistence_margin(long) < 1e-15
    assert persistence_margin(long) > 0


def test_certified_networks_simulate_persistently():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 6:
        net = random_cycle_network(rng)
        if certify(net).overall is not OverallStatus.GLOBALLY_STABLE:
            continue
        checked += 1
        x0 = rng.uniform(0.3, 1.5, size=net.num_species)
        traj = simulate(net, MASS_ACTION, x0, 30.0)
        assert persistence_margin(traj) > 0
        assert np.min(traj.states[-1]) > 1e-8
        # Boundary limit points sit only on semi-locking faces, so the species
        # near zero at the end must be none or a semi-locking set.
        near_zero = [i for i, v in enumerate(traj.states[-1]) if v < 1e-6]
        assert not near_zero or is_semi_locking(net, near_zero)


def test_generalized_abs_matches_mass_action(ex2):
    gk = generalized_kinetics(abs, 3)
    rng = np.random.default_rng(23)
    x_bar = np.array([1.0, 1.0, 1.0])
    for _ in range(100):
        x = rng.uniform(0.05, 4.0, size=3)
        assert np.max(np.abs(rhs(ex2, MASS_ACTION, x) - rhs(ex2, gk, x))) < 1e-12
        v_ma, g_ma = lyapunov(x, x_bar)
        v_gk, g_gk = lyapunov(x, x_bar, gk)
        assert abs(v_ma - v_gk) < 1e-12
        assert np.max(np.abs(g_ma - g_gk)) < 1e-12


def test_generalized_admissibility_checks():
    with pytest.raises(ValueError, match="theta"):
        generalized_kinetics(lambda x: x + 1.0, 2)
    with pytest.raises(ValueError, match="increasing"):
        generalized_kinetics(lambda x: 0.0 * x, 2)


def _saturating(x):
    # saturating map with a linear tail: strictly increasing and onto [0, inf)
    return x / (1.0 + x) + 0.1 * x


def _saturating_reference(net):
    """The state whose saturated values are the network's complex-balanced point."""

    def inverse(target):
        lo, hi = 0.0, 1.0
        while _saturating(hi) < target:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _saturating(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return np.array([inverse(v) for v in complex_balanced_point(net)])


def test_generalized_saturating_simulation(ex2):
    gk = generalized_kinetics(_saturating, 3)
    traj = simulate(ex2, gk, [0.4, 1.1, 2.0], 20.0, x_ref=_saturating_reference(ex2))
    assert np.all(np.diff(traj.lyapunov) < 1e-12)
    assert persistence_margin(traj) > 0


def test_diagnostics_match_per_state_recomputation(ex1, ex2):
    # V and the drift are computed after the loop, over all stored states at
    # once; each entry must still be the per-state value.
    x_bar = find_equilibrium(ex1, [0.5, 1.0, 1.5, 1.0, 0.7]).x_bar
    runs = [
        (ex1, MASS_ACTION, [0.5, 1.0, 1.5, 1.0, 0.7], x_bar),
        (ex2, generalized_kinetics(_saturating, 3), [0.4, 1.1, 2.0], _saturating_reference(ex2)),
    ]
    for net, kinetics, x0, x_ref in runs:
        traj = simulate(net, kinetics, x0, 20.0, x_ref=x_ref)
        cons = np.array(conservation_basis(net).vectors, dtype=float)
        assert len(traj.lyapunov) == len(traj.conservation_residual) == len(traj) > 10
        assert traj.conservation_residual[0] == 0.0
        for i, state in enumerate(traj.states):
            assert abs(traj.lyapunov[i] - lyapunov(state, x_ref, kinetics)[0]) <= 1e-12
            drift = float(np.max(np.abs(cons @ (state - traj.states[0]))))
            assert abs(traj.conservation_residual[i] - drift) <= 1e-15


def test_steps_leaving_the_orthant_are_rejected():
    # Loose tolerances let the step outgrow the decay of A, so stage states
    # and proposals leave the orthant: the step must be retried, and the rate
    # law never evaluated at a negative state.
    def nonnegative_identity(v):
        if v < 0:
            raise AssertionError(f"rate law evaluated at {v}")
        return v

    net = parse_network("A -> B ; k=1")
    for kinetics in (MASS_ACTION, generalized_kinetics(nonnegative_identity, 2)):
        traj = simulate(net, kinetics, [1.0, 1.0], 200.0, rtol=1e-3, atol=1e-3)
        assert np.all(traj.states > 0)
        assert traj.times[-1] == 200.0


def test_simulate_rejects_bad_reference(ex2):
    for x_ref in ([1.0, 0.0, 1.0], [1.0, math.nan, 1.0], [1.0, 1.0, math.inf], [1.0, 1.0]):
        with pytest.raises(ValueError, match="x_ref must be entrywise positive"):
            simulate(ex2, MASS_ACTION, [1.0, 1.0, 1.0], 1.0, x_ref=x_ref)


@pytest.mark.parametrize(
    "text, x0",
    [
        ("2A -> 3A ; k=1e10", 1e100),  # the first step is already under the floor
        ("2A -> 3A ; k=1", 10.0),  # x = 10 / (1 - 10 t) blows up at t = 0.1
    ],
)
def test_finite_time_blow_up_is_an_integration_error(text, x0):
    # The stepper does not validate its stage states; a blow-up must still
    # end in IntegrationError, never in a ValueError from rhs.
    with pytest.raises(IntegrationError):
        simulate(parse_network(text), MASS_ACTION, [x0], 1.0)


def test_simulate_step_budget(ab, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 3)
    with pytest.raises(IntegrationError, match="exceeded 3 steps"):
        simulate(ab, MASS_ACTION, [1.0, 2.0], 10.0)


@pytest.mark.parametrize(
    "text, x0",
    [
        ("A + 2B -> 0 ; k=10\n0 -> B ; k=2\n0 -> A ; k=1", [100.0, 100.0]),
        ("A + B -> 2B ; k=10\nB -> 0 ; k=1\n0 -> A ; k=1", [1.0, 1.0]),
    ],
)
def test_simulate_rejects_a_non_positive_proposal(text, x0):
    # At these loose tolerances some steps keep every stage positive while
    # their fifth-order combination dips below zero; such a proposal must
    # be rejected, so every stored state stays positive.
    traj = simulate(parse_network(text), MASS_ACTION, x0, 10.0, rtol=0.1, atol=0.1)
    assert np.all(traj.states > 0)


def _loop_rhs(net):
    """Mass-action vector field built reaction by reaction, sharing no code with crncert."""

    def f(t, y):
        dy = np.zeros(len(y))
        for r in net.reactions:
            flux = r.rate
            for i, k in r.source.terms:
                flux *= y[i] ** k
            for i, k in r.source.terms:
                dy[i] -= k * flux
            for i, k in r.product.terms:
                dy[i] += k * flux
        return dy

    return f


def test_simulate_matches_radau_oracle(ex1, ex2, ex3):
    from scipy.integrate import solve_ivp

    rng = np.random.default_rng(41)
    cases = [(net, np.linspace(0.5, 1.5, net.num_species), 20.0) for net in (ex1, ex2, ex3)]
    for _ in range(20):
        net = random_cycle_network(rng)
        cases.append((net, rng.uniform(0.5, 1.5, net.num_species), 5.0))
    stiff = parse_network("A <-> B ; kf=1e4, kr=1e4\nB <-> C ; kf=1e-2, kr=1e-2")
    cases.append((stiff, np.array([1.0, 0.5, 2.0]), 0.1))
    for net, x0, t_end in cases:
        final = simulate(net, MASS_ACTION, x0, t_end).states[-1]
        oracle = solve_ivp(
            _loop_rhs(net), (0.0, t_end), x0, method="Radau", rtol=1e-10, atol=1e-12
        )
        assert oracle.success
        expected = oracle.y[:, -1]
        assert np.max(np.abs(final - expected) / np.abs(expected)) < 1e-6
