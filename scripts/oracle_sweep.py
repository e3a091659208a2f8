#!/usr/bin/env python3
"""Randomized cross-check of the exact certifier against independent oracles.

Generates seeded random networks and verifies, for every semi-locking set:
  * minimal siphon enumeration against the full 2^m subset scan,
  * the exact face-kernel decision against a floating SVD rank oracle,
  * the exact emptiness decision against random sampling of the span.

Usage: oracle_sweep.py [count] [seed]
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from crncert import (  # noqa: E402
    all_semi_locking_sets,
    check_discrete,
    check_empty_all_classes,
    minimal_semi_locking_sets,
    stoichiometric_basis,
)
from crncert.randomnet import random_network  # noqa: E402


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = np.random.default_rng(seed)
    checked_sets = 0
    empty_faces = 0
    discrete_faces = 0
    for trial in range(count):
        net = random_network(rng, max_species=6, max_reactions=8)
        semi = all_semi_locking_sets(net)
        brute_minimal = {s for s in semi if not any(o < s for o in semi)}
        enumerated = set(minimal_semi_locking_sets(net).minimal_sets)
        if enumerated != brute_minimal:
            print(f"trial {trial}: enumeration mismatch", file=sys.stderr)
            return 1

        basis = stoichiometric_basis(net)
        span = np.array(basis.vectors, dtype=float)
        samples = rng.uniform(-3, 3, size=(10_000, span.shape[0])) @ span
        for w in semi:
            checked_sets += 1
            idx = sorted(w)
            rows = np.array([[v[i] for v in basis.vectors] for i in idx], dtype=float)
            svals = np.linalg.svd(rows, compute_uv=False)
            svd_trivial = int(np.sum(svals > 1e-9)) == len(basis.vectors)
            discrete, _ = check_discrete(basis, w)
            if discrete != svd_trivial:
                print(f"trial {trial}: kernel oracle mismatch on {idx}", file=sys.stderr)
                return 1
            discrete_faces += discrete

            empty, _ = check_empty_all_classes(basis, w)
            sampled_hit = bool(np.any(np.all(samples[:, idx] < 0, axis=1)))
            if empty and sampled_hit:
                print(f"trial {trial}: emptiness oracle mismatch on {idx}", file=sys.stderr)
                return 1
            empty_faces += empty
    print(
        f"{count} networks, {checked_sets} semi-locking sets checked "
        f"({discrete_faces} with trivial face kernel, {empty_faces} unreachable; "
        "independent checks, may overlap): all oracles agree"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
