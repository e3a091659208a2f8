"""The class equilibrium against a 50-digit oracle, rates spread far apart.

The oracle takes exact tree constants (``conftest.exact_tree_constants``) and
solves the class equations in mpmath.  Its unknowns are u = log x: on each
linkage class ``(y_j - y_root) . u = log kappa_j - log kappa_root``, which for
deficiency zero pins u modulo the conservation laws, and ``C e^u = C c``.
Newton on that square system starts from the solution under test; the root
is unique (Birch's theorem), so a wrong candidate shows as a difference,
never as agreement.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crncert import (
    MASS_ACTION,
    Reaction,
    ReactionNetwork,
    conservation_basis,
    find_equilibrium,
    parse_network,
    simulate,
    structure_report,
)
from crncert.randomnet import random_cycle_network, random_rates

from conftest import exact_tree_constants


def oracle_equilibrium(net, c, start):
    """The class equilibrium through c to 50 digits, by Newton from ``start``."""
    m = net.num_species
    kappa = exact_tree_constants(net)
    y = [[0] * m for _ in net.complexes]
    for row, cx in zip(y, net.complexes):
        for i, k in cx.terms:
            row[i] = k
    cons = conservation_basis(net).vectors
    with mpmath.workdps(50):
        log_kappa = [mpmath.log(k.numerator) - mpmath.log(k.denominator) for k in kappa]
        lin_rows, lin_rhs = [], []
        for block in structure_report(net).linkage_classes:
            root = block[0]
            for j in block[1:]:
                lin_rows.append([a - b for a, b in zip(y[j], y[root])])
                lin_rhs.append(log_kappa[j] - log_kappa[root])
        target = [mpmath.fsum(w * mpmath.mpf(v) for w, v in zip(row, c)) for row in cons]
        u = [mpmath.log(mpmath.mpf(v)) for v in start]
        for _ in range(40):
            x = [mpmath.exp(v) for v in u]
            residual = [mpmath.fsum(a * v for a, v in zip(row, u)) - b
                        for row, b in zip(lin_rows, lin_rhs)]
            residual += [mpmath.fsum(w * v for w, v in zip(row, x)) - t
                         for row, t in zip(cons, target)]
            jac = lin_rows + [[w * v for w, v in zip(row, x)] for row in cons]
            step = mpmath.lu_solve(mpmath.matrix(jac), -mpmath.matrix(residual))
            u = [v + d for v, d in zip(u, step)]
            if max(abs(d) for d in step) < mpmath.mpf(10) ** -40:
                return np.array([float(mpmath.exp(v)) for v in u])
    raise AssertionError("oracle Newton did not converge")


def assert_matches_oracle(net, c, rtol):
    x_bar = find_equilibrium(net, c).x_bar
    expected = oracle_equilibrium(net, c, x_bar)
    assert np.all(np.abs(x_bar - expected) <= rtol * expected), (x_bar, expected)
    return x_bar


FAMILIES = {
    "pair": lambda e: f"A <-> B ; kf=1e{e}, kr=1e-{e}",
    "ring": lambda e: f"A -> B ; k=1e{e}\nB -> C ; k=1e-{e}\nC -> D ; k=1\nD -> A ; k=1",
    "cycle": lambda e: f"2A -> B ; k=1e{e}\nB -> A + C ; k=1e-{e}\nA + C -> 2A ; k=1",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("e", [2, 4, 8, 15, 30])
def test_wide_rate_families_match_oracle_and_simulate(family, e):
    net = parse_network(FAMILIES[family](e))
    c = np.ones(net.num_species)
    x_bar = assert_matches_oracle(net, c, 1e-10)
    traj = simulate(net, MASS_ACTION, c, 10.0, x_ref=x_bar)
    assert traj.times[-1] == 10.0
    assert np.all(traj.states > 0)


def test_example_networks_with_random_rates_match_oracle(ex1, ex2, ex3):
    rng = np.random.default_rng(41)
    for net in (ex1, ex2, ex3):
        for _ in range(4):
            varied = random_rates(net, rng)
            assert_matches_oracle(varied, rng.uniform(0.5, 2.0, size=net.num_species), 1e-11)


@st.composite
def wide_rate_cycles(draw):
    """A deficiency-zero cycle network, rates log-uniform over 1e-8..1e8, and an anchor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = random_cycle_network(rng)
    assume(structure_report(net).deficiency == 0)
    size = len(net.reactions)
    exponents = draw(st.lists(st.floats(-8.0, 8.0), min_size=size, max_size=size))
    reactions = tuple(
        Reaction(r.source, r.product, 10.0**e) for r, e in zip(net.reactions, exponents)
    )
    return ReactionNetwork(net.species, reactions), rng.uniform(0.5, 2.0, size=net.num_species)


@given(wide_rate_cycles())
@settings(max_examples=100, deadline=None)
def test_log_uniform_rates_on_cycles_match_oracle(case):
    net, c = case
    assert_matches_oracle(net, c, 1e-10)


@pytest.mark.parametrize("k2, k3, k4", [(10**1.25, 10**3.5, 1.0), (1.0, 1e5, 1e-3)])
def test_small_species_beside_cancelling_large_ones_match_oracle(k2, k3, k4):
    # The conservation basis holds S0 + S2 + S3 - S4, and S2, S4 settle
    # 400 to 2e6 times larger than S0: the float sum of that law, or a stop
    # at its 1e-12 bound without the final Newton step, misses S0 by 3e-10.
    net = parse_network(
        f"S0 -> S1 + S2 ; k=1\nS1 + S2 -> S1 + S3 ; k={k2!r}\n"
        f"S1 + S3 -> S1 + 2S3 + S4 ; k={k3!r}\nS1 + 2S3 + S4 -> S0 ; k={k4!r}"
    )
    c = np.array([1.17061068, 0.56468202, 1.36891634, 1.90339209, 1.53171819])
    assert_matches_oracle(net, c, 1e-10)
