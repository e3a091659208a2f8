#!/usr/bin/env python3
"""Per-certificate and total sha256 over a fixed, seeded set of networks.

Certifies networks/ex*.crn and ``count`` seeded random networks (even draws
from ``random_network``, odd draws from ``random_cycle_network``) and renders
each certificate as the ``crn-cert certify`` JSON.  Prints one line per
certificate (its index, overall verdict and sha256), then a last line with
the number of certificates and one sha256 over all of them.  Running the
same command in two checkouts shows whether a change keeps every
certificate byte-identical, witnesses included; ``diff`` of the two outputs
names the certificates that moved.

Usage: cert_digest.py [count] [seed]
"""

import hashlib
import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from crncert import certify, parse_network_file  # noqa: E402
from crncert.cli import SCHEMA  # noqa: E402
from crncert.randomnet import random_cycle_network, random_network  # noqa: E402

NETWORKS = pathlib.Path(__file__).resolve().parent.parent / "networks"


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = np.random.default_rng(seed)
    nets = [parse_network_file(path) for path in sorted(NETWORKS.glob("*.crn"))]
    for draw in range(count):
        if draw % 2:
            nets.append(random_cycle_network(rng, max_species=8, max_complexes=7))
        else:
            nets.append(
                random_network(rng, max_species=8, max_reactions=10, allow_empty_complex=True)
            )
    digest = hashlib.sha256()
    for index, net in enumerate(nets):
        cert = certify(net)
        text = (json.dumps({"schema": SCHEMA, **cert.to_json_dict()}, indent=2) + "\n").encode()
        digest.update(text)
        print(f"{index} {cert.overall.value} {hashlib.sha256(text).hexdigest()}")
    print(f"{len(nets)} certificates sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
