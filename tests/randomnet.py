"""Seeded random network generation for the tests and ``scripts/cert_digest.py``.

The generators draw reactions between random complexes, write them as
``.crn`` lines over species ``S0, S1, ...`` and return the parsed network,
so every generated network passes through :func:`crncert.parse_network`.
They live beside the tests, not in the package: no command calls them.
Test modules import them as ``from randomnet import ...``; the script puts
this directory on its path.
"""

from __future__ import annotations

import numpy as np

from crncert import ReactionNetwork, parse_network


def _relabel(raw_reactions: list[tuple[dict[int, int], dict[int, int], float]]) -> ReactionNetwork:
    # Name species S0, S1, ... in first-appearance order.  Each complex is
    # written in the order its species were named in, so the parser, which
    # indexes species by first appearance, gives S<j> the index j.
    names: dict[int, str] = {}
    for src, prod, _ in raw_reactions:
        for c in (src, prod):
            for i in sorted(c):
                names.setdefault(i, f"S{len(names)}")

    def text(c: dict[int, int]) -> str:
        terms = [f"{k}{names[i]}" if k > 1 else names[i] for i, k in sorted(c.items())]
        return " + ".join(terms) or "0"

    lines = [f"{text(src)} -> {text(prod)} ; k={rate!r}" for src, prod, rate in raw_reactions]
    return parse_network("\n".join(lines))


def _random_complex(rng: np.random.Generator, m: int, allow_empty: bool) -> dict[int, int]:
    if allow_empty and rng.random() < 0.05:
        return {}
    size = int(rng.integers(1, min(m, 3) + 1))
    members = rng.choice(m, size=size, replace=False)
    return {int(i): int(rng.integers(1, 3)) for i in members}


def _complex_pool(
    rng: np.random.Generator, m: int, draws: int, allow_empty: bool
) -> list[dict[int, int]]:
    """The distinct complexes among ``draws`` random ones, in draw order."""
    pool: list[dict[int, int]] = []
    seen: set[tuple] = set()
    for _ in range(draws):
        c = _random_complex(rng, m, allow_empty)
        key = tuple(sorted(c.items()))
        if key not in seen:
            seen.add(key)
            pool.append(c)
    return pool


def random_network(
    rng: np.random.Generator,
    max_species: int = 6,
    max_reactions: int = 8,
    allow_empty_complex: bool = False,
) -> ReactionNetwork:
    """One random valid network with small complexes and rates in [0.5, 2].

    The reactions join complexes of a pool of 2-6 distinct ones, so a
    network has at most 30 reactions, however large ``max_reactions`` is.
    """
    for _ in range(1000):
        m = int(rng.integers(2, max_species + 1))
        pool = _complex_pool(rng, m, int(rng.integers(2, 7)), allow_empty_complex)
        if len(pool) < 2:
            continue
        n_rxn = int(rng.integers(1, max_reactions + 1))
        pairs: set[tuple[int, int]] = set()
        raw: list[tuple[dict[int, int], dict[int, int], float]] = []
        for _ in range(n_rxn):
            i, j = rng.choice(len(pool), size=2, replace=False)
            if (i, j) in pairs:
                continue
            pairs.add((int(i), int(j)))
            raw.append((pool[int(i)], pool[int(j)], float(rng.uniform(0.5, 2.0))))
        if not raw:
            continue
        try:
            return _relabel(raw)
        except ValueError:
            continue
    raise RuntimeError("failed to generate a valid random network")


def random_cycle_network(
    rng: np.random.Generator, max_species: int = 5, max_complexes: int = 5
) -> ReactionNetwork:
    """Weakly reversible single-linkage-class network: complexes on one directed cycle."""
    for _ in range(1000):
        m = int(rng.integers(2, max_species + 1))
        pool = _complex_pool(rng, m, int(rng.integers(2, max_complexes + 1)), allow_empty=False)
        if len(pool) < 2:
            continue
        raw = [
            (pool[i], pool[(i + 1) % len(pool)], float(rng.uniform(0.5, 2.0)))
            for i in range(len(pool))
        ]
        try:
            return _relabel(raw)
        except ValueError:
            continue
    raise RuntimeError("failed to generate a valid cycle network")
