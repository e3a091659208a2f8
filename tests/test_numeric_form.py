"""The shared array form of a network against per-reaction loop references.

The loop functions below are the straightforward per-reaction versions of the
mass-action kernels.  The array versions keep the same arithmetic in the same
order, so results must agree exactly, boundary states included.  Powers are
taken as numpy array powers on both sides: the scalar power differs from the
array one in the last bit on about one input in twenty.  The
complex-balanced point is held instead to exact tree constants built by loops
over the reactions, to a relative tolerance.
"""

import collections
import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crncert import (
    MASS_ACTION,
    complex_balanced_point,
    find_equilibrium,
    generalized_kinetics,
    jacobian,
    parse_network,
    rhs,
    simulate,
    structure_report,
)
from crncert import dynamics
from crncert.dynamics import complex_balance_residual

from conftest import exact_tree_constants, reaction_vector
from randomnet import random_cycle_network, random_network


def loop_arrays(net):
    m = net.num_species
    src = np.zeros((len(net.reactions), m))
    netv = np.zeros((len(net.reactions), m))
    rates = np.zeros(len(net.reactions))
    for r_idx, r in enumerate(net.reactions):
        source, _, rate = r
        for i, k in source:
            src[r_idx, i] = k
        netv[r_idx] = reaction_vector(r, m)
        rates[r_idx] = rate
    return src, netv, rates


def loop_reaction_rates(net, x):
    src, _, k = loop_arrays(net)
    return k * np.prod(np.asarray(x, dtype=float) ** src, axis=1)


def loop_rhs(net, x):
    return loop_reaction_rates(net, x) @ loop_arrays(net)[1]


def loop_jacobian(net, x):
    arr = np.asarray(x, dtype=float)
    m = net.num_species
    src, netv, k = loop_arrays(net)
    jac = np.zeros((m, m))
    for r_idx in range(src.shape[0]):
        exps = src[r_idx]
        derivatives = exps * arr ** np.maximum(exps - 1.0, 0.0)
        for j in np.nonzero(exps)[0]:
            factors = arr**exps
            factors[j] = derivatives[j]
            grad_j = k[r_idx] * np.prod(factors)
            jac[:, j] += grad_j * netv[r_idx]
    return jac


def loop_complex_matrix(net):
    y = np.zeros((len(net.complexes), net.num_species))
    for row, c in enumerate(net.complexes):
        for i, k in c:
            y[row, i] = k
    return y


def loop_complex_balance_residual(net, x):
    rates = loop_reaction_rates(net, x)
    idx = net.complex_index
    inflow = np.zeros(len(net.complexes))
    outflow = np.zeros(len(net.complexes))
    for r_idx, (source, product, _) in enumerate(net.reactions):
        outflow[idx[source]] += rates[r_idx]
        inflow[idx[product]] += rates[r_idx]
    scale = max(float(np.max(inflow)), float(np.max(outflow)), 1e-300)
    return float(np.max(np.abs(inflow - outflow))) / scale


HIGH_ORDER = parse_network(
    "3A + B <-> 2C ; kf=1.7, kr=0.3\n0 <-> A ; kf=2, kr=0.5\nC -> 2B + D ; k=0.9\nD -> 0 ; k=1.1"
)
# Orders up to 7 and a source of three species, so that a product of three
# powers other than 1 shows the order in which the kernels multiply.
HIGHER_ORDER = parse_network(
    "5E + 4A + 2B <-> 7F ; kf=0.8, kr=1.3\nF -> A + B + E ; k=0.6\n0 <-> E ; kf=1, kr=0.4"
)


def _networks_and_states(seed, count):
    rng = np.random.default_rng(seed)
    nets = [(HIGH_ORDER, 2000), (HIGHER_ORDER, 2000)] + [
        (random_network(rng, max_species=6, max_reactions=10, allow_empty_complex=True), 4)
        for _ in range(count)
    ]
    for net, states in nets:
        for _ in range(states):
            x = rng.uniform(0.0, 3.0, size=net.num_species)
            x[rng.random(net.num_species) < 0.35] = 0.0
            yield net, x


def _assert_rhs_matches_loop(net, x):
    # rhs, the compiled field, multiplies and sums in another order than the
    # loop, so the two agree to rounding of the largest terms, not bit for bit.
    bound = 1e-12 * (loop_reaction_rates(net, x) @ np.abs(loop_arrays(net)[1]))
    assert np.all(np.abs(rhs(net, MASS_ACTION, x) - loop_rhs(net, x)) <= bound)


def test_kernels_equal_loop_reference_on_random_networks_and_boundary_states():
    for net, x in _networks_and_states(seed=17, count=150):
        _assert_rhs_matches_loop(net, x)
        assert np.array_equal(jacobian(net, MASS_ACTION, x), loop_jacobian(net, x))
        assert complex_balance_residual(net, x) == loop_complex_balance_residual(net, x)


def _chain(m):
    return parse_network("\n".join(f"S{i} <-> S{i + 1} ; kf=1.5, kr=0.7" for i in range(m - 1)))


def _hub(k):
    return parse_network("\n".join(f"E <-> S{i} ; kf=1, kr=2" for i in range(k)))


def _enzyme(k):
    return parse_network("\n".join(
        f"E + S{i} <-> C{i} ; kf=2, kr=0.5\nC{i} <-> E + P{i} ; kf=1.25, kr=0.75" for i in range(k)
    ))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_compiled_field_matches_rhs_on_random_networks_and_boundary_states(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_species=6, max_reactions=10, allow_empty_complex=True)
    for _ in range(4):
        x = rng.uniform(0.0, 3.0, size=net.num_species)
        x[rng.random(net.num_species) < 0.35] = 0.0
        _assert_rhs_matches_loop(net, x)


def test_compiled_field_matches_rhs_on_high_orders_and_the_origin():
    rng = np.random.default_rng(5)
    for x in [np.zeros(4), np.array([0.0, 1.3, 0.0, 2.0])] + list(rng.uniform(0, 3, (8, 4))):
        _assert_rhs_matches_loop(HIGH_ORDER, x)


def test_compiled_field_holds_only_indices_and_rates():
    net = parse_network("os + eval -> 2 print ; k=1e-300\nprint -> 0 ; k=7")
    code = net.numeric.field.__code__
    assert code.co_names == ()
    assert all(re.fullmatch(r"u\d*|s\d+_\d+|r\d+|d\d+", v) for v in code.co_varnames)
    assert all(c is None or type(c) is float for c in code.co_consts)
    assert {1e-300, 7.0} <= set(code.co_consts)


def test_a_huge_exponent_compiles_to_log_many_products_and_overflows_to_inf():
    # B**2147483647 takes the 30 squares of B and 31 products, not 2**31 factors.
    p = 2147483647
    net = parse_network(f"A <-> {p} B ; kf=1, kr=1")
    field = net.numeric.field
    assert len(field.__code__.co_varnames) <= 2 * p.bit_length() + 10
    assert field([1.0, 2.0]) == [math.inf, -math.inf]
    assert field([1.0, 0.5]) == [-1.0, float(p)]
    assert field([1.0, 1.0]) == [0.0, 0.0]


@pytest.mark.parametrize(
    "net",
    [_enzyme(150), _chain(400), _hub(1500)],
    ids=["enzyme-k150", "chain-m400", "hub-3000"],
)
def test_compiled_field_of_a_large_network(net):
    # E sits in 600 reactions of the enzyme network and in 3000 of the hub:
    # one expression that long would nest past the compiler's recursion limit.
    x = np.random.default_rng(3).uniform(0.1, 3.0, net.num_species)
    _assert_rhs_matches_loop(net, x)


def test_jacobian_memory_is_linear_in_reactions_times_species():
    # The former broadcast built two (r, m, m) tensors: about 104 MB here.
    net = _chain(150)
    r, m = len(net.reactions), net.num_species
    x = np.linspace(0.5, 2.0, m)
    net.numeric
    tracemalloc.start()
    try:
        jac = jacobian(net, MASS_ACTION, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(jac, loop_jacobian(net, x))
    assert peak <= 8 * 8 * (r * m + m * m)


def test_flux_memory_is_linear_in_the_source_table():
    # A dense r x m power of the exponents took 36 MB here.
    net = _hub(1500)
    r, w = net.numeric.source_orders.shape
    x = np.random.default_rng(4).uniform(0.5, 2.0, net.num_species)
    kernels = {
        "complex_balance_residual": lambda: complex_balance_residual(net, x),
        "rhs": lambda: rhs(net, MASS_ACTION, x),
    }
    for name, kernel in kernels.items():
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * r * (w + 1), name


@pytest.mark.parametrize("saturating", [False, True], ids=["mass-action", "saturating"])
def test_one_kernel_serves_the_stepper_and_jacobian(monkeypatch, saturating):
    net = parse_network("A <-> B ; kf=2000, kr=3000\nB <-> C ; kf=0.02, kr=0.01")
    kinetics = generalized_kinetics(lambda s: s / (1.0 + s), 3) if saturating else MASS_ACTION
    calls, seen = [], []
    jac_u, rosenbrock_step = net.numeric.jacobian, dynamics._rosenbrock_step

    def recorded(f, v, lead, jac_s, x, h, fx):
        seen.append((x.copy(), v.copy(), lead.copy(), jac_s.copy()))
        return rosenbrock_step(f, v, lead, jac_s, x, h, fx)

    # The form is cached on this fresh network: its kernel now counts its calls.
    net.__dict__["numeric"] = net.numeric._replace(jacobian=lambda u: calls.append(u) or jac_u(u))
    monkeypatch.setattr(dynamics, "_rosenbrock_step", recorded)
    stats = simulate(net, kinetics, [1.0, 0.5, 0.2], 1.0).stats
    assert stats.rosenbrock_steps > 0
    assert len(calls) == stats.jacobian_evaluations
    # The stepper's matrix is I / (h gamma) - J[lead] @ v, with the columns of
    # v the canonical basis of S, (1, 0, -1) and (0, 1, -1), each over its lead entry.
    for x, v, lead, jac_s in seen:
        assert np.array_equal(lead, [0, 1])
        assert np.array_equal(v, [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        assert np.array_equal(jac_s, jacobian(net, kinetics, x)[lead] @ v)


def test_jacobian_exact_at_the_origin():
    # 0**0 == 1 and exponent-one columns take the rate itself, with no warnings
    zero = np.zeros(HIGH_ORDER.num_species)
    with np.errstate(all="raise"):
        jac = jacobian(HIGH_ORDER, MASS_ACTION, zero)
    assert np.array_equal(jac, loop_jacobian(HIGH_ORDER, zero))
    assert np.all(np.isfinite(jac))


def test_complex_balanced_point_matches_exact_tree_constants():
    # x*^y_i / kappa_i is one constant on each linkage class exactly when x*
    # is complex balanced; kappa here is exact, so the gap is x*'s own error.
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(120):
        net = random_cycle_network(rng)
        if structure_report(net).deficiency != 0:
            continue
        kappa = exact_tree_constants(net)
        x_star = complex_balanced_point(net)
        monomials = np.prod(x_star ** loop_complex_matrix(net), axis=1)
        for block in structure_report(net).linkage_classes:
            ratios = [monomials[i] / float(kappa[i]) for i in block]
            assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)
        assert complex_balance_residual(net, x_star) == loop_complex_balance_residual(net, x_star)
        checked += 1
    assert checked >= 80


def test_numeric_form_is_built_once_and_read_only(ex1):
    form = ex1.numeric
    assert ex1.numeric is form
    for array in (form.source, form.product, form.rates, form.source_species, form.source_orders):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_each_network_is_compiled_once(monkeypatch):
    # Stiff, so the runs evaluate the Jacobian too; every routine reads the
    # kernels of the one form.
    net = parse_network("A <-> B ; kf=2000, kr=3000\nB <-> C ; kf=0.02, kr=0.01")
    counts = collections.Counter()
    for name in ("_compile_field", "_compile_jacobian"):

        def counted(*args, name=name, compile_kernel=getattr(dynamics, name)):
            counts[name] += 1
            return compile_kernel(*args)

        monkeypatch.setattr(dynamics, name, counted)
    x_ref = find_equilibrium(net, [1.0, 0.5, 0.2]).x_bar
    for _ in range(2):
        stats = simulate(net, MASS_ACTION, [1.0, 0.5, 0.2], 1.0, x_ref=x_ref).stats
        assert stats.jacobian_evaluations > 0
    rhs(net, MASS_ACTION, x_ref)
    jacobian(net, MASS_ACTION, x_ref)
    assert counts == {"_compile_field": 1, "_compile_jacobian": 1}


def test_numeric_form_memory_is_linear_in_the_network():
    # The dense n x m and r x m arrays and their temporaries peaked at about 90 MB here.
    net = _hub(1500)
    tracemalloc.start()
    try:
        net.numeric
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_network_is_freed_after_simulation():
    net = parse_network("A <-> B ; kf=1, kr=2\nB <-> C ; kf=3, kr=1")
    x_ref = find_equilibrium(net, [1.0, 1.0, 1.0]).x_bar
    simulate(net, MASS_ACTION, [0.5, 1.0, 1.5], 1.0, x_ref=x_ref)
    alive = weakref.ref(net)
    del net
    gc.collect()
    assert alive() is None
