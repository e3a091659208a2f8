"""The shared array form of a network against per-reaction loop references.

The loop functions below are the straightforward per-reaction versions of the
mass-action kernels.  The array versions keep the same arithmetic in the same
order, so results must agree exactly, boundary states included.
"""

import gc
import weakref

import numpy as np
import pytest

from crncert import (
    MASS_ACTION,
    complex_balance_residual,
    complex_balanced_point,
    find_equilibrium,
    jacobian,
    parse_network,
    reaction_rates,
    reaction_vector,
    rhs,
    simulate,
    structure_report,
)
from crncert.randomnet import random_cycle_network, random_network


def loop_arrays(net):
    m = net.num_species
    src = np.zeros((len(net.reactions), m))
    netv = np.zeros((len(net.reactions), m))
    rates = np.zeros(len(net.reactions))
    for r_idx, r in enumerate(net.reactions):
        for i, k in r.source.terms:
            src[r_idx, i] = k
        netv[r_idx] = reaction_vector(r, m)
        rates[r_idx] = r.rate
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
        for j in np.nonzero(exps)[0]:
            factors = arr**exps
            xj = arr[j]
            factors[j] = exps[j] * xj ** (exps[j] - 1.0) if exps[j] != 1.0 else exps[j]
            grad_j = k[r_idx] * np.prod(factors)
            jac[:, j] += grad_j * netv[r_idx]
    return jac


def loop_laplacian(net):
    n = len(net.complexes)
    idx = net.complex_index
    lap = np.zeros((n, n))
    for r in net.reactions:
        j = idx[r.source]
        i = idx[r.product]
        lap[i, j] += r.rate
        lap[j, j] -= r.rate
    return lap


def loop_complex_matrix(net):
    y = np.zeros((len(net.complexes), net.num_species))
    for row, c in enumerate(net.complexes):
        for i, k in c.terms:
            y[row, i] = k
    return y


def loop_complex_balanced_point(net):
    """Stage one of the equilibrium solver, built on the loop Laplacian."""
    report = structure_report(net)
    n = len(net.complexes)
    lap = loop_laplacian(net)
    kappa = np.zeros(n)
    for block in report.linkage_classes:
        _, _, vt = np.linalg.svd(lap[np.ix_(block, block)])
        v = vt[-1]
        if v.sum() < 0:
            v = -v
        if np.min(v) <= 0:
            raise ArithmeticError("Laplacian kernel vector is not strictly positive")
        kappa[list(block)] = v / np.max(v)
    indicator = np.zeros((n, len(report.linkage_classes)))
    for b_idx, block in enumerate(report.linkage_classes):
        indicator[list(block), b_idx] = 1.0
    system = np.hstack([loop_complex_matrix(net), -indicator])
    solution, *_ = np.linalg.lstsq(system, np.log(kappa), rcond=None)
    return np.exp(solution[: net.num_species])


def loop_complex_balance_residual(net, x):
    rates = loop_reaction_rates(net, x)
    idx = net.complex_index
    inflow = np.zeros(len(net.complexes))
    outflow = np.zeros(len(net.complexes))
    for r_idx, r in enumerate(net.reactions):
        outflow[idx[r.source]] += rates[r_idx]
        inflow[idx[r.product]] += rates[r_idx]
    scale = max(float(np.max(inflow)), float(np.max(outflow)), 1e-300)
    return float(np.max(np.abs(inflow - outflow))) / scale


HIGH_ORDER = parse_network(
    "3A + B <-> 2C ; kf=1.7, kr=0.3\n0 <-> A ; kf=2, kr=0.5\nC -> 2B + D ; k=0.9\nD -> 0 ; k=1.1"
)


def _networks_and_states(seed, count):
    rng = np.random.default_rng(seed)
    nets = [HIGH_ORDER] + [
        random_network(rng, max_species=6, max_reactions=10, allow_empty_complex=True)
        for _ in range(count)
    ]
    for net in nets:
        for _ in range(4):
            x = rng.uniform(0.0, 3.0, size=net.num_species)
            x[rng.random(net.num_species) < 0.35] = 0.0
            yield net, x


def test_kernels_equal_loop_reference_on_random_networks_and_boundary_states():
    for net, x in _networks_and_states(seed=17, count=150):
        assert np.array_equal(reaction_rates(net, MASS_ACTION, x), loop_reaction_rates(net, x))
        assert np.array_equal(rhs(net, MASS_ACTION, x), loop_rhs(net, x))
        assert np.array_equal(jacobian(net, MASS_ACTION, x), loop_jacobian(net, x))
        assert complex_balance_residual(net, x) == loop_complex_balance_residual(net, x)


def test_jacobian_exact_at_the_origin():
    # 0**0 == 1 and exponent-one columns take the rate itself, with no warnings
    zero = np.zeros(HIGH_ORDER.num_species)
    with np.errstate(all="raise"):
        jac = jacobian(HIGH_ORDER, MASS_ACTION, zero)
    assert np.array_equal(jac, loop_jacobian(HIGH_ORDER, zero))
    assert np.all(np.isfinite(jac))


def test_complex_balanced_point_equals_loop_reference():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(120):
        net = random_cycle_network(rng)
        if structure_report(net).deficiency != 0:
            continue
        try:
            expected = loop_complex_balanced_point(net)
        except ArithmeticError:
            continue
        x_star = complex_balanced_point(net)
        assert np.array_equal(x_star, expected)
        assert complex_balance_residual(net, x_star) == loop_complex_balance_residual(net, x_star)
        checked += 1
    assert checked >= 80


def test_numeric_form_is_built_once_and_read_only(ex1):
    form = ex1.numeric
    assert ex1.numeric is form
    assert form.complex_matrix.shape == (len(ex1.complexes), ex1.num_species)
    assert np.array_equal(form.stoichiometry, loop_arrays(ex1)[1])
    for array in form:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_network_is_freed_after_simulation():
    net = parse_network("A <-> B ; kf=1, kr=2\nB <-> C ; kf=3, kr=1")
    x_ref = find_equilibrium(net, [1.0, 1.0, 1.0]).x_bar
    simulate(net, MASS_ACTION, [0.5, 1.0, 1.5], 1.0, x_ref=x_ref)
    alive = weakref.ref(net)
    del net
    gc.collect()
    assert alive() is None
