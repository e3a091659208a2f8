import dataclasses
import math
import re

import numpy as np
import pytest

from crncert import (
    MASS_ACTION,
    ConvergenceError,
    HypothesesError,
    IntegrationError,
    OverallStatus,
    Trajectory,
    certify,
    complex_balanced_point,
    find_equilibrium,
    generalized_kinetics,
    jacobian,
    lyapunov,
    parse_network,
    persistence_margin,
    rhs,
    simulate,
    structure_report,
)
from crncert import dynamics
from crncert.dynamics import complex_balance_residual

from conftest import SPREAD, X_SPREAD, is_semi_locking, random_rates
from randomnet import random_cycle_network


# Stiff enough that the run switches to the Rosenbrock stepper early.
STIFF_PAIR = "A <-> B ; kf=1e4, kr=1e4\nB <-> C ; kf=1e-2, kr=1e-2"


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
    for bad in ([-0.1, 1.0], [math.nan, 1.0], [1.0, math.inf], [1.0], [1.0, 1.0, 1.0]):
        for f in (rhs, jacobian):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                f(ab, MASS_ACTION, bad)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            complex_balance_residual(ab, bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda net, kinetics: rhs(net, kinetics, [2.0, 1.0, 5.0]),
        lambda net, kinetics: jacobian(net, kinetics, [2.0, 1.0, 5.0]),
        lambda net, kinetics: lyapunov([2.0, 1.0, 5.0], [1.0, 1.0, 1.0], kinetics),
        lambda net, kinetics: simulate(net, kinetics, [2.0, 1.0, 5.0], 1.0),
    ],
    ids=["rhs", "jacobian", "lyapunov", "simulate"],
)
def test_theta_count_must_match_the_state(ex2, call):
    with pytest.raises(ValueError, match="2 theta maps for a state of 3 species"):
        call(ex2, generalized_kinetics(abs, 2))


def test_lyapunov_examples():
    v, g = lyapunov([1.5, 0.2], [1.5, 0.2])
    assert v == 0.0
    assert np.allclose(g, 0.0)
    v, g = lyapunov([math.e, 1.0], [1.0, 1.0])
    assert abs(v - 1.0) < 1e-14
    assert np.allclose(g, [1.0, 0.0])
    for x, x_bar in (
        ([0.0, 1.0], [1.0, 1.0]),
        ([math.nan, 1.0], [1.0, 1.0]),
        ([math.inf, 1.0], [1.0, 1.0]),
        ([1.0, 1.0], [1.0, -1.0]),
        ([1.0, 1.0, 1.0], [1.0, 1.0]),
        ([1.0, 1.0], [1.0, 1.0, 1.0]),
    ):
        with pytest.raises(ValueError, match="must be entrywise positive and finite"):
            lyapunov(x, x_bar)


def test_lyapunov_keeps_its_digits_where_the_equilibrium_is_large():
    # x_bar reaches 1.75e18.  Summed as x (ln x - ln x_bar - 1) + x_bar, each
    # term rounds by about eps * x: at ``near`` that read 6144 where V is
    # 1.4e-3.  Near x_bar each term's error is a few eps * |x - x_bar|.  At
    # X_SPREAD, S3 is 5e-19 of its x_bar, so (x - x_bar) / x_bar rounds to -1.
    import mpmath

    x_bar = find_equilibrium(parse_network(SPREAD), X_SPREAD).x_bar
    near = x_bar * (1.0 + np.array([3e-11, -2e-11, 5e-11, -4e-11]))
    for x in (np.array(X_SPREAD), near, 1.3 * x_bar):
        with mpmath.workdps(50):
            exact = float(mpmath.fsum(
                a * mpmath.log(a / b) - a + b for a, b in zip(map(mpmath.mpf, x), map(mpmath.mpf, x_bar))
            ))
        bound = 1e-14 * exact + 4 * np.finfo(float).eps * np.sum(np.abs(x - x_bar))
        assert abs(lyapunov(x, x_bar)[0] - exact) <= bound


def test_generalized_lyapunov_quadrature_holds_its_cost_at_scale():
    # theta = abs is mass action, so the quadrature must reproduce the closed
    # form.  An absolute tolerance below eps * |V| is never met, and the
    # quadrature then recursed to its full depth: the counting theta makes
    # such a run fail at once instead of hanging.
    calls = 0

    def theta(s):
        nonlocal calls
        calls += 1
        if calls > 100_000:
            raise RuntimeError("quadrature made more than 100000 theta calls")
        return abs(s)

    kinetics = generalized_kinetics(theta, 1)
    for xb in (1e8, 1e18):
        for x in (2.0 * xb, 0.5 * xb):
            calls = 0
            value = lyapunov([x], [xb], kinetics)[0]
            assert value == pytest.approx(lyapunov([x], [xb])[0], rel=1e-12)
            assert calls < 1000


def test_generalized_lyapunov_quadrature_stops_at_rounding_near_a_large_reference():
    # Near x_bar the integrand ln theta(s) - ln theta(x_bar) rounds by about
    # eps * |ln theta(x_bar)| per unit length, above the relative bound: the
    # quadrature must stop at that rounding instead of recursing until the
    # noise happens to cancel.
    calls = 0

    def theta(s):
        nonlocal calls
        calls += 1
        if calls > 100_000:
            raise RuntimeError("quadrature made more than 100000 theta calls")
        return abs(s)

    kinetics = generalized_kinetics(theta, 1)
    for xb in (1e30, 1e60, 1e99):
        x = (1.0 + 1e-6) * xb
        calls = 0
        value = lyapunov([x], [xb], kinetics)[0]
        assert value == pytest.approx(lyapunov([x], [xb])[0], rel=1e-7)
        assert calls < 1000


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
    basis = np.array(structure_report(ex2).s_basis.vectors, dtype=float).T
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
            cons = np.array(structure_report(net).conservation_basis.vectors, dtype=float)
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


@pytest.mark.parametrize(
    "text, anchor",
    [
        ("A <-> B ; kf=1, kr=1", [1e308, 1e308]),  # A + B overflows inside the sum
        ("2A <-> B ; kf=1, kr=1", [1.0, 1e308]),  # A + 2B rounds to inf
    ],
)
def test_find_equilibrium_refuses_class_total_out_of_float_range(text, anchor):
    # The suite turns warnings into errors, so an overflow warning fails here too.
    with pytest.raises(ConvergenceError, match="conservation total of the class leaves"):
        find_equilibrium(parse_network(text), anchor)


def test_find_equilibrium_refuses_a_singular_newton_system():
    # x_C reaches about 1e33 while x_A = x_B stay near 3e16, so x_A + x_C
    # rounds to x_C and C diag(x) C^T is singular in floats.
    net = parse_network("A + B <-> C ; kf=1, kr=1")
    with pytest.raises(ConvergenceError, match="singular Newton system"):
        find_equilibrium(net, [1e33, 1e33, 1.0])


def test_find_equilibrium_inflow_network_without_conservation():
    # 0 <-> A <-> B: the span is all of R^2, one class covers everything
    net = parse_network("0 <-> A ; kf=1, kr=1\nA <-> B ; kf=3, kr=1")
    assert len(structure_report(net).conservation_basis) == 0
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
    # The chain rule: the mass-action Jacobian at theta(x) times the exact
    # theta'(v) = 1 / (1 + v)**2 + 0.1 on each column.  At a zero entry the
    # slope is a forward quotient.
    gk = generalized_kinetics(_saturating, 3)
    states = [rng.uniform(0.3, 2.0, size=3) for _ in range(5)]
    states += [np.array(x) for x in ([0.0, 0.0, 1.5], [0.0, 0.8, 2.0], [1e-7, 0.5, 0.0])]
    for x in states:
        analytic = jacobian(ex2, MASS_ACTION, _saturating(x)) * (1.0 / (1.0 + x) ** 2 + 0.1)
        error = np.max(np.abs(jacobian(ex2, gk, x) - analytic))
        assert error <= 1e-5 * np.max(np.abs(analytic))


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
        basis = np.array(structure_report(ex2).s_basis.vectors, dtype=float)
        q, _ = np.linalg.qr(basis.T)
        # the log-difference has no component inside the reaction span
        assert np.max(np.abs(q.T @ diff)) < 1e-8


def test_persistence_margin_frozen_trajectory(ab):
    x_bar = np.array([2.0, 1.0])
    traj = Trajectory(
        times=np.linspace(0, 1, 11),
        states=np.tile(x_bar, (11, 1)),
        lyapunov=np.full(11, np.nan),
        conservation_residual=np.zeros(11),
    )
    assert persistence_margin(traj) == 1.0


def test_persistence_margin_of_an_empty_trajectory_is_an_error():
    traj = Trajectory(
        times=np.empty(0),
        states=np.empty((0, 2)),
        lyapunov=np.empty(0),
        conservation_residual=np.empty(0),
    )
    with pytest.raises(ValueError, match="trajectory is empty"):
        persistence_margin(traj)


def test_persistence_margin_spans_the_later_half_in_time():
    # Most states crowd into the transient; only the last lies in [5, 10].
    traj = Trajectory(
        times=np.array([0.0, 0.1, 0.2, 0.3, 0.4, 10.0]),
        states=np.array([[1.0], [0.2], [0.3], [0.4], [0.5], [0.9]]),
        lyapunov=np.full(6, np.nan),
        conservation_residual=np.zeros(6),
    )
    assert persistence_margin(traj) == 0.9


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


def test_generalized_kinetics_needs_one_theta_per_species():
    with pytest.raises(ValueError, match="need one theta per species"):
        generalized_kinetics([abs], 2)


def test_generalized_lyapunov_at_the_reference_is_exactly_zero():
    calls = []

    def theta(x):
        calls.append(x)
        return abs(x)

    kinetics = generalized_kinetics(theta, 1)
    calls.clear()
    value, grad = lyapunov([2.0], [2.0], kinetics)
    assert value == 0.0 and grad.tolist() == [0.0]
    # theta(x) and theta(x_bar) for the gradient; the empty interval costs no call.
    assert calls == [2.0, 2.0]


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


def test_an_explicit_step_under_theta_kinetics_makes_no_numpy_call(ex2, monkeypatch):
    kinetics = generalized_kinetics(_saturating, 3)
    field = dynamics._kinetics(ex2, kinetics)[0]
    x = [0.4, 1.1, 2.0]
    fx = field(x)
    assert type(fx) is list and fx == rhs(ex2, kinetics, x).tolist()

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} called")

    monkeypatch.setattr(dynamics, "np", NoNumpy())
    assert field(x) == fx
    assert dynamics._dop853_step(field, x, 1e-3, fx) is not None


def test_theta_values_reach_the_field_as_python_floats(ex2):
    # A map may return an int or a numpy scalar; the field still computes on
    # Python floats, whose overflow to inf and nan raises no RuntimeWarning.
    maps = [lambda v: 2.0 * v, lambda v: int(2 * v), lambda v: np.float64(2.0) * v]
    for x in ([1.0, 2.0, 3.0], [1e200, 1e200, 1e200]):
        outputs = [dynamics._kinetics(ex2, (th,) * 3)[0](x) for th in maps]
        assert all(type(v) is float for out in outputs for v in out)
        assert len({repr(out) for out in outputs}) == 1


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
        cons = np.array(structure_report(net).conservation_basis.vectors, dtype=float)
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


def _step_outcomes(monkeypatch, stepper="_rosenbrock_step"):
    """Record each attempt of a stepper: "stage" or "proposal" if it left the orthant, else "ok"."""
    outcomes = []
    step = getattr(dynamics, stepper)

    def recording(*args):
        result = step(*args)
        x = args[-3]  # both steppers take (..., x, h, f(x))
        if result is None:
            outcomes.append("stage")
        else:
            proposal = np.asarray(x) + np.asarray(result[0])
            outcomes.append("proposal" if proposal.min() <= 0 else "ok")
        return result

    monkeypatch.setattr(dynamics, stepper, recording)
    return outcomes


def test_rosenbrock_steps_leaving_the_orthant_are_rejected(monkeypatch):
    # The fast binding makes the run switch early; at loose tolerances the
    # Rosenbrock stages then leave the orthant, and the rate law (and the
    # difference quotients of the Jacobian) must never see a negative state.
    def nonnegative_identity(v):
        if v < 0:
            raise AssertionError(f"rate law evaluated at {v}")
        return v

    net = parse_network("A + B -> C ; k=1e3\nC -> A + B ; k=1\n0 -> A ; k=1\nB -> 0 ; k=1")
    outcomes = _step_outcomes(monkeypatch)
    for kinetics in (MASS_ACTION, generalized_kinetics(nonnegative_identity, 3)):
        outcomes.clear()
        traj = simulate(net, kinetics, [1.0, 2.0, 0.1], 10.0, rtol=0.1, atol=0.1)
        assert traj.stats.switch_time is not None
        assert "stage" in outcomes
        assert np.all(traj.states > 0)
        assert traj.times[-1] == 10.0


def test_simulate_rejects_bad_reference(ex2):
    for x_ref in ([1.0, 0.0, 1.0], [1.0, math.nan, 1.0], [1.0, 1.0, math.inf], [1.0, 1.0]):
        with pytest.raises(ValueError, match="x_ref must be entrywise positive"):
            simulate(ex2, MASS_ACTION, [1.0, 1.0, 1.0], 1.0, x_ref=x_ref)


@pytest.mark.parametrize(
    "text, x0",
    [
        ("2A -> 3A ; k=1e10", 1e100),  # x = 1e100 / (1 - 1e110 t) blows up at t = 1e-110
        ("2A -> 3A ; k=1", 10.0),  # x = 10 / (1 - 10 t) blows up at t = 0.1
    ],
)
def test_finite_time_blow_up_is_an_integration_error(text, x0):
    # The stepper does not validate its stage states; a blow-up must still
    # end in IntegrationError, never in a ValueError from rhs.
    with pytest.raises(IntegrationError):
        simulate(parse_network(text), MASS_ACTION, [x0], 1.0)


def test_blow_up_after_the_switch_is_an_integration_error(monkeypatch):
    # The fast pair hands the run to the Rosenbrock stepper long before C
    # blows up at t = 10.
    outcomes = _step_outcomes(monkeypatch)
    net = parse_network("A <-> B ; kf=1e4, kr=1e4\n2C -> 3C ; k=1")
    with pytest.raises(IntegrationError):
        simulate(net, MASS_ACTION, [2.0, 0.5, 0.1], 20.0)
    assert len(outcomes) > 10


def _field_returning(call, value):
    # A fresh copy of ``ab`` whose compiled field returns value on the given
    # call and is otherwise unchanged, and the list that collects every call.
    net = parse_network("A -> B ; k=1\nB -> A ; k=2")
    calls = []
    field = net.numeric.field

    def replaced(u):
        calls.append(u)
        return value if len(calls) == call else field(u)

    net.__dict__["numeric"] = net.numeric._replace(field=replaced)  # the cached form
    return net, calls


def test_flux_overflow_at_an_accepted_state_is_an_integration_error():
    # Call 13 is f at the first accepted state: one call at x0, then eleven
    # stages of a first step that is accepted.
    net, calls = _field_returning(13, [-math.inf, math.inf])
    with pytest.raises(IntegrationError, match="flux overflow") as exc:
        simulate(net, MASS_ACTION, [1.0, 1.0], 1.0)
    assert len(calls) == 13
    assert float(str(exc.value).split("t=")[1].split(":")[0]) > 0


def test_stage_state_with_a_nan_and_a_negative_entry_reaches_the_error_estimate():
    # Call 2 is stage 1 of the first step, so stage 2's state is about
    # (-1e298, nan).  np.min of it is nan, so the sign test passes it and the
    # error estimate, non-finite, ends the run; a min that skipped the NaN
    # would reject the step and retry it at half the size.
    net, calls = _field_returning(2, [-1e300, math.nan])
    with pytest.raises(IntegrationError, match="non-finite state"):
        simulate(net, MASS_ACTION, [1.0, 1.0], 1.0)
    assert len(calls) == 12


def test_proposal_with_a_nan_and_a_negative_entry_reaches_the_error_estimate(monkeypatch, ab):
    # The first step's increment is replaced by (-1e300, nan), so its proposal
    # is about (-1e300, nan).  As under np.min, the NaN lets it pass the sign
    # test and the non-finite error estimate ends the run; a min that skipped
    # the NaN would count a positivity rejection and retry at half the step.
    attempts = []
    step = dynamics._dop853_step

    def poisoned(*args):
        result = step(*args)
        attempts.append(result)
        if len(attempts) == 1:
            result[0][0], result[0][1] = -1e300, math.nan
        return result

    monkeypatch.setattr(dynamics, "_dop853_step", poisoned)
    with pytest.raises(IntegrationError, match="non-finite state"):
        simulate(ab, MASS_ACTION, [1.0, 1.0], 1.0)
    assert len(attempts) == 1


def test_error_scale_that_underflows_to_zero_is_an_integration_error():
    # With atol = 0 the error of the decaying A is scaled by rtol * 5e-324,
    # which rounds to 0: the scaled error is non-finite, a typed error that
    # names the tolerances, and no ZeroDivisionError.
    net = parse_network("A -> B ; k=1")
    message = r"non-finite error estimate at t=0.0 \(rtol=0.001, atol=0.0\)"
    with pytest.raises(IntegrationError, match=message):
        simulate(net, MASS_ACTION, [5e-324, 1.0], 1.0, rtol=1e-3, atol=0.0)


def test_singular_rosenbrock_matrix_is_an_integration_error(monkeypatch):
    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(IntegrationError, match="singular Rosenbrock matrix"):
        simulate(parse_network(STIFF_PAIR), MASS_ACTION, [1.0, 0.5, 2.0], 1.0)


def test_simulate_step_budget(ab, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 3)
    with pytest.raises(IntegrationError, match="exceeded 3 steps"):
        simulate(ab, MASS_ACTION, [1.0, 2.0], 10.0)


def test_step_budget_counts_the_attempts_of_both_steppers(monkeypatch):
    net = parse_network(STIFF_PAIR)
    stats = simulate(net, MASS_ACTION, [1.0, 0.5, 2.0], 100.0).stats
    attempts = (
        stats.explicit_steps + stats.rosenbrock_steps + stats.rejected_error
        + stats.rejected_positivity
    )
    budget = attempts - 5
    assert stats.rosenbrock_steps > 5
    outcomes = _step_outcomes(monkeypatch)
    monkeypatch.setattr(dynamics, "MAX_STEPS", budget)
    with pytest.raises(IntegrationError, match=f"exceeded {budget} steps"):
        simulate(net, MASS_ACTION, [1.0, 0.5, 2.0], 100.0)
    assert outcomes


@pytest.mark.parametrize(
    "text, x0",
    [
        ("0 -> A + 2B ; k=2\nA + B -> A ; k=10", [0.2, 0.3]),
        ("A + B -> 2B ; k=10\nB -> 0 ; k=1\n0 -> A ; k=1", [0.6, 5.5]),
    ],
)
def test_simulate_rejects_a_non_positive_proposal(monkeypatch, text, x0):
    # At these loose tolerances a DOP853 step keeps every stage nonnegative
    # while its eighth-order combination dips below zero, with an error
    # estimate small enough to accept it; only the sign test rejects such a
    # proposal, so every stored state stays positive.  (Cases from a seeded
    # search over small networks; a few percent off x0, a stage dips first.)
    outcomes = _step_outcomes(monkeypatch, "_dop853_step")
    traj = simulate(parse_network(text), MASS_ACTION, x0, 10.0, rtol=0.1, atol=0.1)
    assert "proposal" in outcomes
    assert np.all(traj.states > 0)


def test_rosenbrock_rejects_a_non_positive_proposal(monkeypatch):
    # The first Rosenbrock attempt's increment is replaced so that its
    # proposal puts A at exactly 0, with every stage and the error estimate
    # untouched: only the sign test can reject it, and the same step is then
    # retried at half its size.
    net = parse_network(STIFF_PAIR)
    x0 = [1.0, 0.5, 2.0]
    baseline = simulate(net, MASS_ACTION, x0, 1.0).stats
    sizes = []
    step = dynamics._rosenbrock_step

    def zeroing(*args):
        result = step(*args)
        x, h = args[-3:-1]
        sizes.append(h)
        if len(sizes) == 1:
            result[0][0] = -x[0]
        return result

    monkeypatch.setattr(dynamics, "_rosenbrock_step", zeroing)
    traj = simulate(net, MASS_ACTION, x0, 1.0)
    assert baseline.switch_time is not None
    assert traj.stats.rejected_positivity == baseline.rejected_positivity + 1
    assert sizes[1] == sizes[0] / 2
    assert np.all(traj.states > 0)


def test_positivity_rejections_also_switch_to_the_stable_stepper():
    # At loose tolerances the explicit steps on the fast pair are rejected
    # for leaving the orthant, not for their error; the stiffness test must
    # run after those rejections too, or this run takes about 54,000 steps.
    net = parse_network("A <-> B ; kf=1e4, kr=1e4\nC + 2D -> 3D ; k=1")
    traj = simulate(net, MASS_ACTION, [2.0, 0.5, 1.0, 0.01], 10.0, rtol=0.3, atol=0.3)
    stats = traj.stats
    assert stats.switch_time is not None
    assert stats.explicit_steps + stats.rosenbrock_steps == len(traj) - 1 <= 50
    assert np.all(traj.states > 0)
    assert traj.times[-1] == 10.0


def _loop_rhs(net, theta=lambda v: v):
    """Vector field of theta-monomials, built reaction by reaction, sharing no code with crncert."""

    def f(t, y):
        u = [theta(v) for v in y]
        dy = np.zeros(len(y))
        for source, product, flux in net.reactions:
            for i, k in source:
                flux *= u[i] ** k
            for i, k in source:
                dy[i] -= k * flux
            for i, k in product:
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
    stiff = parse_network(STIFF_PAIR)
    cases.append((stiff, np.array([1.0, 0.5, 2.0]), 0.1))
    for net, x0, t_end in cases:
        traj = simulate(net, MASS_ACTION, x0, t_end)
        if net is stiff:
            assert traj.stats.switch_time is not None
        final = traj.states[-1]
        oracle = solve_ivp(
            _loop_rhs(net), (0.0, t_end), x0, method="Radau", rtol=1e-10, atol=1e-12
        )
        assert oracle.success
        expected = oracle.y[:, -1]
        assert np.max(np.abs(final - expected) / np.abs(expected)) < 1e-6


def test_stiff_pair_reaches_t100_in_few_steps():
    # The explicit stepper alone needs about 5,400 steps per unit of time here.
    # Under the saturating theta the Rosenbrock steps use the chain-rule Jacobian.
    from scipy.integrate import solve_ivp

    net = parse_network(STIFF_PAIR)
    x0 = np.array([1.0, 0.5, 2.0])
    saturating = generalized_kinetics(_saturating, 3)
    for kinetics, theta in ((MASS_ACTION, lambda v: v), (saturating, _saturating)):
        traj = simulate(net, kinetics, x0, 100.0)
        assert traj.stats.switch_time is not None
        assert traj.stats.rosenbrock_steps + traj.stats.explicit_steps == len(traj) - 1 <= 150
        oracle = solve_ivp(
            _loop_rhs(net, theta), (0.0, 100.0), x0, method="Radau", rtol=1e-10, atol=1e-12
        )
        assert oracle.success
        expected = oracle.y[:, -1]
        assert np.max(np.abs(traj.states[-1] - expected) / np.abs(expected)) < 1e-6


def test_simulate_ends_at_a_tiny_t_end():
    # The relaxation time is 5e-21, so the run settles well before 1e-15.
    net = parse_network("A <-> B ; kf=1e20, kr=1e20")
    traj = simulate(net, MASS_ACTION, [2.0, 0.5], 1e-15)
    assert traj.times[-1] == 1e-15
    assert np.max(np.abs(traj.states[-1] - [1.25, 1.25])) < 1e-6


def test_long_horizon_stores_few_states(ab):
    traj = simulate(ab, MASS_ACTION, [1.0, 2.0], 1e9)
    assert traj.times[-1] == 1e9
    assert len(traj) <= 300
    assert np.max(np.abs(traj.states[-1] - [2.0, 1.0])) < 1e-8


@pytest.mark.parametrize("t_end", [1e17, 1e300])
@pytest.mark.parametrize("name", ["ex1", "ex2", "pair"])
def test_long_horizons_reach_t_end(request, name, t_end):
    # Past t ~ 1e16, h * |J| passes 1 / eps and I / (h gamma) - J would round
    # to a matrix singular along the conservation laws; the stages are solved
    # on S, where J is regular here, so the matrix stays regular.
    if name == "pair":
        net = parse_network("A <-> B ; kf=1, kr=2")
    else:
        net = request.getfixturevalue(name)
    x0 = np.linspace(0.5, 1.5, net.num_species)
    traj = simulate(net, MASS_ACTION, x0, t_end)
    assert traj.times[-1] == t_end
    assert len(traj) <= 500
    assert float(np.max(traj.conservation_residual)) <= 1e-12
    x_bar = find_equilibrium(net, x0).x_bar
    assert np.max(np.abs(traj.states[-1] - x_bar) / x_bar) < 1e-6


def test_states_towards_1e18_reach_their_equilibrium():
    # S3 grows from 0.9 to 1.75e18 while S0 falls to 0.05, and h * |J| passes
    # 1 / eps long before t_end.  A Rosenbrock matrix on all of R^4 turned
    # singular here at t = 0.0174.
    net = parse_network(SPREAD)
    x_bar = find_equilibrium(net, X_SPREAD).x_bar
    traj = simulate(net, MASS_ACTION, X_SPREAD, 1e8, x_ref=x_bar)
    assert traj.times[-1] == 1e8
    assert np.max(np.abs(traj.states[-1] - x_bar) / x_bar) <= 1e-10
    assert traj.lyapunov[-1] <= 1e-6


@pytest.mark.parametrize("swap", [False, True], ids=["species-A-B-C", "species-B-C-A"])
def test_slow_pair_beside_a_fast_pair_keeps_its_class_to_rounding(swap):
    # To t = 1e14, h * |J| passes 1e14: each stage solved on S leaves the
    # conservation law A + B + C to rounding, in either species order.
    lines = ["A <-> B ; kf=1e-12, kr=1e-12", "B <-> C ; kf=1e3, kr=1e3"]
    net = parse_network("\n".join(lines[::-1] if swap else lines))
    x0 = [{"A": 1.0, "B": 2.0, "C": 3.0}[name] for name in net.species]
    x_bar = find_equilibrium(net, x0).x_bar
    traj = simulate(net, MASS_ACTION, x0, 1e14)
    assert traj.times[-1] == 1e14
    assert float(np.max(traj.conservation_residual)) <= 1e-12
    assert np.max(np.abs(traj.states[-1] - x_bar) / x_bar) <= 1e-10


@pytest.mark.parametrize(
    "text, x0, t_end",
    [
        ("A <-> B ; kf=1e-12, kr=1e-12\nB <-> C ; kf=1e3, kr=1e3", [1.0, 2.0, 3.0], 1e14),
        ("A <-> B ; kf=1e-8, kr=2e-8\nB + C <-> D ; kf=1e4, kr=1e4", [1.0] * 4, 1e12),
    ],
    ids=["slow-pair-beside-fast-pair", "slow-pair-beside-binding"],
)
def test_long_rosenbrock_runs_stay_in_their_class(text, x0, t_end):
    # A fast reaction beside a slow one: long before t_end the steps grow
    # until h * |J| is many orders of magnitude above 1.  Rounding along a
    # conservation law scaled by h gamma, as W = I / (h gamma) - J alone
    # scales it, would move the run to another class and its equilibrium.
    net = parse_network(text)
    x_bar = find_equilibrium(net, x0).x_bar
    traj = simulate(net, MASS_ACTION, x0, t_end, x_ref=x_bar)
    assert traj.times[-1] == t_end
    assert float(np.max(traj.conservation_residual)) <= 1e-8
    assert np.max(np.abs(traj.states[-1] - x_bar) / x_bar) <= 1e-8
    assert traj.lyapunov[-1] <= 1e-12


def test_lyapunov_is_nan_at_every_state_without_a_reference(ab):
    traj = simulate(ab, MASS_ACTION, [1.0, 2.0], 1.0)
    assert isinstance(traj.lyapunov, np.ndarray)
    assert traj.lyapunov.shape == (len(traj),)
    assert np.all(np.isnan(traj.lyapunov))


def test_a_kinetics_is_none_or_a_tuple_of_maps():
    assert MASS_ACTION is None
    assert generalized_kinetics(abs, 3) == (abs, abs, abs)
    maps = (abs, _saturating)
    assert generalized_kinetics(maps, 2) == maps


def test_stats_count_the_run(ab, ex1):
    names = [
        "explicit_steps", "rosenbrock_steps", "rejected_error", "rejected_positivity",
        "rhs_evaluations", "jacobian_evaluations", "switch_time",
    ]
    assert [f.name for f in dataclasses.fields(dynamics.IntegrationStats)] == names
    short = simulate(ab, MASS_ACTION, [1.0, 2.0], 1.0).stats
    assert short.switch_time is None
    assert short.rosenbrock_steps == short.jacobian_evaluations == 0
    rejecting = simulate(ex1, MASS_ACTION, np.linspace(0.5, 1.5, 5), 5.0).stats
    assert rejecting.switch_time is None and rejecting.rejected_positivity == 0
    assert rejecting.rejected_error > 0
    # Twelve evaluations per accepted DOP853 step, the first stage of each
    # step being the last evaluation of the one before; a step rejected for
    # its error costs eleven, as it never evaluates f at its proposal.
    for run in (short, rejecting):
        assert run.rhs_evaluations == 1 + 12 * run.explicit_steps + 11 * run.rejected_error
    stats = simulate(parse_network(STIFF_PAIR), MASS_ACTION, [1.0, 0.5, 2.0], 1.0).stats
    assert 0 < stats.switch_time < 1.0
    assert stats.explicit_steps > 0 and stats.rosenbrock_steps > 0
    assert stats.jacobian_evaluations >= stats.rosenbrock_steps


def test_dop853_tableau():
    # Frozen copies of Hairer's coefficients; scipy holds the same ones.
    from scipy.integrate._ivp import dop853_coefficients as oracle

    a = np.zeros((12, 12))
    a[:, :11] = dynamics._DOP_A
    assert np.array_equal(a, oracle.A[:12, :12])
    weights, e5, e3 = dynamics._DOP_B
    assert np.array_equal(weights, oracle.B)
    assert np.array_equal(e5, oracle.E5[:12]) and oracle.E5[12] == 0.0
    assert np.array_equal(e3, oracle.E3[:12]) and oracle.E3[12] == 0.0
    # Quadrature conditions of order 8 at the nodes c = A 1, and error rows
    # that vanish on constant stages.
    c = a.sum(axis=1)
    for k in range(8):
        assert abs(weights @ c**k - 1 / (k + 1)) < 1e-14
    assert abs(e5.sum()) < 1e-15 and abs(e3.sum()) < 1e-15


@pytest.mark.parametrize("m", [1, 4, 40])
def test_generated_dop853_step_matches_the_tableau(m):
    # The generated step against the tableau as matrix products, on random
    # positive stages that the stand-in for f hands out in order.
    rng = np.random.default_rng(m)
    stages = rng.uniform(0.5, 1.5, (12, m))
    x, h = rng.uniform(1.0, 2.0, m), 1e-3
    seen = []

    def f(state):
        seen.append(state)
        return stages[len(seen)].tolist()

    result = dynamics._dop853_step(f, x.tolist(), h, stages[0].tolist())
    assert len(seen) == 11
    a, b = dynamics._DOP_A, dynamics._DOP_B
    for s, state in enumerate(seen, start=1):
        expected = x + h * (a[s, :s] @ stages[:s])
        assert np.allclose(state, expected, rtol=1e-14, atol=0.0)
    # Relative to the sum of the terms' magnitudes, as the error rows cancel.
    assert np.all(np.abs(np.array(result) - h * (b @ stages)) <= 1e-14 * h * (np.abs(b) @ stages))


def test_generated_dop853_step_has_one_term_per_coefficient():
    lines = dynamics._DOP853_SOURCE.splitlines()
    rows = [line for line in lines if line.startswith("    x")]
    rows += re.findall(r"\[h \* \((.*?)\) for", lines[-1])
    assert len(rows) == 11 + 3
    for line, row in zip(rows, [*dynamics._DOP_A[1:], *dynamics._DOP_B]):
        terms = [(float(a), int(j)) for a, j in re.findall(r"([-+.e\d]+) \* c(\d+)", line)]
        assert terms == [(a, j) for j, a in enumerate(row.tolist()) if a]


def _rosenbrock_tableau():
    """RODAS4 untransformed: alpha, Gamma, and the weights of both solutions."""
    a = np.zeros((6, 6))
    a[:, :5] = dynamics._ROS_A
    c = np.zeros((6, 6))
    c[:, :5] = dynamics._ROS_C
    gamma = np.linalg.inv(np.eye(6) / dynamics._ROS_GAMMA - c)
    main, difference = dynamics._ROS_B
    return a @ gamma, gamma, main @ gamma, (main - difference) @ gamma


def test_rosenbrock_order_conditions():
    # Hairer & Wanner, Solving ODEs II, Table IV.7.1 (autonomous problems):
    # eight conditions for order 4, the first four of them for order 3.
    alpha, gamma, b, b_hat = _rosenbrock_tableau()
    g = dynamics._ROS_GAMMA
    assert np.allclose(np.diag(gamma), g, rtol=0.0, atol=1e-12)
    beta = alpha + np.tril(gamma, -1)
    a_sum = alpha.sum(axis=1)
    b_sum = beta.sum(axis=1)
    conditions = [
        (lambda w: w.sum(), 1.0),
        (lambda w: w @ b_sum, 0.5 - g),
        (lambda w: w @ a_sum**2, 1 / 3),
        (lambda w: w @ beta @ b_sum, 1 / 6 - g + g**2),
        (lambda w: w @ a_sum**3, 1 / 4),
        (lambda w: w @ (a_sum * (alpha @ b_sum)), 1 / 8 - g / 3),
        (lambda w: w @ beta @ a_sum**2, 1 / 12 - g / 3),
        (lambda w: w @ beta @ beta @ b_sum, 1 / 24 - g / 2 + 1.5 * g**2 - g**3),
    ]
    for lhs, value in conditions:
        assert abs(lhs(b) - value) < 1e-12
    for lhs, value in conditions[:4]:
        assert abs(lhs(b_hat) - value) < 1e-12
    # The embedded solution is of order 3 exactly, so the error estimate is not zero.
    assert max(abs(lhs(b_hat) - value) for lhs, value in conditions[4:]) > 1e-3


def test_rosenbrock_stability_function_vanishes_at_infinity():
    # R(z) = 1 + z w (I - z B)^-1 1 with B = alpha + Gamma, so R(inf) = 1 - w B^-1 1.
    alpha, gamma, b, b_hat = _rosenbrock_tableau()
    for w in (b, b_hat):
        assert abs(1.0 - w @ np.linalg.solve(alpha + gamma, np.ones(6))) < 1e-12


def test_rosenbrock_converges_at_its_order():
    # Fixed steps on a nonlinear network: halving h divides the global error
    # by 2**4 for the main solution and 2**3 for the embedded one.
    from scipy.integrate import solve_ivp

    net = parse_network("2A <-> B ; kf=1, kr=1\nA + B <-> C ; kf=2, kr=1")
    x0 = np.array([1.0, 0.3, 0.2])
    t_end = 2.0
    expected = solve_ivp(
        _loop_rhs(net), (0.0, t_end), x0, method="DOP853", rtol=1e-13, atol=1e-15
    ).y[:, -1]

    def f(x):
        return rhs(net, MASS_ACTION, x)

    # S's coordinates, as simulate builds them: the canonical rows of S, each
    # over its lead entry, as the columns of v.
    s_basis = structure_report(net).s_basis
    lead = np.array(s_basis.leads)
    basis = np.array(s_basis.vectors, dtype=float)
    v = basis.T / basis[range(lead.size), lead]

    def global_error(steps, embedded):
        x = x0
        for _ in range(steps):
            jac_s = jacobian(net, MASS_ACTION, x)[lead] @ v
            h = t_end / steps
            increment, error = dynamics._rosenbrock_step(f, v, lead, jac_s, x, h, f(x))
            x = x + increment - (error if embedded else 0.0)
        return np.max(np.abs(x - expected))

    for embedded, order in ((False, 4), (True, 3)):
        errors = np.array([global_error(n, embedded) for n in (20, 40, 80)])
        assert np.all(np.log2(errors[:-1] / errors[1:]) > order - 0.15)
