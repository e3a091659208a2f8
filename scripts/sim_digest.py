#!/usr/bin/env python3
"""Per-network and total sha256 over the numerics of a fixed, seeded set of networks.

Takes networks/ex*.crn and ``count`` seeded draws of ``random_cycle_network``
(the test generator in ``tests/randomnet.py``) and, for each, a state x0
drawn in [0.5, 1.5] and a copy of it with about 30% of its entries set to
0.  One sha256 per network covers ``find_equilibrium`` at x0 (or the error
that refuses it), ``simulate`` from x0 to t=5 under mass action, with the
equilibrium as reference, and under the saturating theta(s) = s / (1 + s) +
0.1 s, without one (times, states, V where a reference was given, drift
and stats), and ``rhs``, ``jacobian`` and ``complex_balance_residual`` at
both states.  Prints one line per network (its index and sha256), then a
last line with the number of networks and one sha256 over all of them.

Floats may round differently on other platforms, so no digest is kept in
the repository: run the same command in two checkouts, and ``diff`` of the
two outputs names the networks whose numerics moved.

Usage: sim_digest.py [count] [seed]
"""

import dataclasses
import hashlib
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from crncert import (  # noqa: E402
    MASS_ACTION,
    ConvergenceError,
    HypothesesError,
    IntegrationError,
    find_equilibrium,
    generalized_kinetics,
    jacobian,
    parse_network_file,
    rhs,
    simulate,
)
from crncert.dynamics import complex_balance_residual  # noqa: E402
from randomnet import random_cycle_network  # noqa: E402

NETWORKS = ROOT / "networks"
T_END = 5.0


def saturating(s):
    return s / (1.0 + s) + 0.1 * s


def network_digest(net, rng) -> str:
    m = net.num_species
    x0 = rng.uniform(0.5, 1.5, m)
    boundary = np.where(rng.random(m) < 0.3, 0.0, x0)
    digest = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            is_text = isinstance(part, str)
            digest.update(part.encode() if is_text else np.asarray(part, dtype=float).tobytes())

    def refusal(exc):
        feed(f"{type(exc).__name__}: {exc}")

    x_ref = None
    try:
        eq = find_equilibrium(net, x0)
        x_ref = eq.x_bar
        feed(x_ref, [eq.residual_rhs, eq.complex_balance_residual, eq.iterations])
    except (HypothesesError, ConvergenceError) as exc:
        refusal(exc)
    kinetics = [(MASS_ACTION, x_ref), (generalized_kinetics(saturating, m), None)]
    for law, ref in kinetics:
        try:
            traj = simulate(net, law, x0, T_END, x_ref=ref)
        except IntegrationError as exc:
            refusal(exc)
            continue
        feed(traj.times, traj.states, traj.conservation_residual, repr(dataclasses.astuple(traj.stats)))
        if ref is not None:
            feed(traj.lyapunov)
    for x in (x0, boundary):
        for law, _ in kinetics:
            feed(rhs(net, law, x), jacobian(net, law, x))
        feed([complex_balance_residual(net, x)])
    return digest.hexdigest()


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = np.random.default_rng(seed)
    nets = [parse_network_file(path) for path in sorted(NETWORKS.glob("*.crn"))]
    nets += [random_cycle_network(rng, max_species=8, max_complexes=7) for _ in range(count)]
    total = hashlib.sha256()
    for index, net in enumerate(nets):
        line = network_digest(net, rng)
        total.update(line.encode())
        print(f"{index} {line}")
    print(f"{len(nets)} networks sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
