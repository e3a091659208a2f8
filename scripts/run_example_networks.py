#!/usr/bin/env python3
"""End-to-end walkthrough of the bundled example networks.

For each network in networks/: print the structure report, the siphon
catalog with face verdicts, the class equilibrium for a random anchor,
and a short simulation summary (Lyapunov decay, conservation drift,
persistence margin).
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from crncert import (  # noqa: E402
    MASS_ACTION,
    certify,
    find_equilibrium,
    parse_network_file,
    persistence_margin,
    simulate,
)

NETWORKS = pathlib.Path(__file__).resolve().parent.parent / "networks"


def main() -> int:
    rng = np.random.default_rng(0)
    for path in sorted(NETWORKS.glob("*.crn")):
        net = parse_network_file(path)
        names = net.species
        cert = certify(net)
        rep = cert.structure
        print(f"== {path.name}: species {', '.join(names)}")
        print(
            f"   n={rep.n} l={rep.l} s={rep.s} deficiency={rep.deficiency} "
            f"weakly_reversible={rep.weakly_reversible}"
        )
        for verdict in cert.verdicts:
            label = "{" + ",".join(names[i] for i in sorted(verdict.species)) + "}"
            print(f"   face {label}: {verdict.status.value}")
        print(f"   overall: {cert.overall.value}")

        anchor = rng.uniform(0.5, 1.5, size=net.num_species)
        eq = find_equilibrium(net, anchor)
        print(
            f"   equilibrium for anchor {np.round(anchor, 3)}: "
            f"{np.round(eq.x_bar, 6)} (|f|={eq.residual_rhs:.2e})"
        )
        traj = simulate(net, MASS_ACTION, anchor, 100.0, x_ref=eq.x_bar)
        dv = float(np.max(np.diff(traj.lyapunov)))
        print(
            f"   simulate t=100: {len(traj)} steps, final V={traj.lyapunov[-1]:.3e}, "
            f"max dV={dv:.2e}, max conservation drift="
            f"{float(np.max(traj.conservation_residual)):.2e}, "
            f"persistence margin={persistence_margin(traj):.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
