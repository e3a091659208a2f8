"""Seeded network generators for the benchmark workloads.

The generators live here, not in ``crncert.randomnet``, so that a change to
the program cannot change the workloads.  Every network is built from
directed cycles of complexes (a reversible reaction is a 2-cycle).  Rates
come from a chosen positive point ``x_star`` and one flux per cycle,
``k = flux / x_star**source``, which makes ``x_star`` complex balanced: the
equilibrium and the time scales of each network are known before the
program sees it.  The program receives only the ``.crn`` text.

Only numpy is used here; nothing imports crncert.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Complex = tuple[tuple[int, int], ...]  # sorted (species index, multiplicity)


@dataclass
class Net:
    """One generated network and the parameters of the job that uses it."""

    label: str
    species: list[str]
    reactions: list[tuple[Complex, Complex, float]]
    text: str = ""
    # Closed-form minimal siphons (sets of species names) where known.
    minimal_siphons: Optional[list[frozenset[str]]] = None
    x0: Optional[list[float]] = None
    t_end: float = 0.0
    meta: dict = field(default_factory=dict)

    def stoichiometry(self) -> np.ndarray:
        """Reaction vectors, one row per directed reaction (product - source)."""
        return _stoichiometry(self.reactions, len(self.species))


def _cx(coeffs: dict[int, int]) -> Complex:
    return tuple(sorted((i, k) for i, k in coeffs.items() if k))


def _fmt(c: Complex, names: list[str]) -> str:
    if not c:
        return "0"
    return " + ".join(f"{k}{names[i]}" if k > 1 else names[i] for i, k in c)


def _stoichiometry(raw, m: int) -> np.ndarray:
    r = np.zeros((len(raw), m), dtype=np.int64)
    for row, (src, prod, _) in enumerate(raw):
        for i, k in src:
            r[row, i] -= k
        for i, k in prod:
            r[row, i] += k
    return r


def _monomial(c: Complex, x: np.ndarray) -> float:
    out = 1.0
    for i, k in c:
        out *= float(x[i]) ** k
    return out


def cycle(cxs: list[Complex], flux: float, x_star: np.ndarray) -> list[tuple[Complex, Complex, float]]:
    """Directed reactions around one cycle of complexes, all carrying ``flux`` at ``x_star``."""
    return [(a, b, flux / _monomial(a, x_star)) for a, b in zip(cxs, cxs[1:] + cxs[:1])]


def build(
    label: str,
    names: list[str],
    raw: list[tuple[Complex, Complex, float]],
    rng: np.random.Generator,
) -> Net:
    """Network from directed reactions, with its ``.crn`` text.

    Reaction lines are shuffled and species are renumbered in order of first
    appearance, so the program's species order matches ``Net.species``.
    """
    raw = [raw[i] for i in rng.permutation(len(raw))]
    first: list[int] = []
    for src, prod, _ in raw:
        for c in (src, prod):
            for i, _k in c:
                if i not in first:
                    first.append(i)
    remap = {old: new for new, old in enumerate(first)}
    species = [names[old] for old in first]
    reactions = [
        (_cx({remap[i]: k for i, k in src}), _cx({remap[i]: k for i, k in prod}), rate)
        for src, prod, rate in raw
    ]
    net = Net(label=label, species=species, reactions=reactions, text=_text(species, reactions))
    net.meta["order"] = first
    return net


def _text(species: list[str], reactions: list[tuple[Complex, Complex, float]]) -> str:
    return "".join(
        f"{_fmt(src, species)} -> {_fmt(prod, species)} ; k={rate!r}\n"
        for src, prod, rate in reactions
    )


def variant(net: Net, rng: np.random.Generator) -> Net:
    """The same network under a new species tag, every rate scaled by one factor near 1.

    The text differs from every other variant's, so no result cache keyed on
    the network can hit, while the work the program does stays the same.
    A common rate factor keeps the complex-balanced point ``x_star``.
    """
    old = net.species[0].rsplit("_", 1)[1]
    tag = old
    while tag == old:
        tag = _tag(rng)

    def rename(name: str) -> str:
        return name.rsplit("_", 1)[0] + "_" + tag

    factor = 1.0 + float(rng.uniform(-1e-6, 1e-6))
    species = [rename(name) for name in net.species]
    reactions = [(a, b, rate * factor) for a, b, rate in net.reactions]
    minimal = None
    if net.minimal_siphons is not None:
        minimal = [frozenset(rename(name) for name in s) for s in net.minimal_siphons]
    return Net(
        label=net.label,
        species=species,
        reactions=reactions,
        text=_text(species, reactions),
        minimal_siphons=minimal,
        x0=net.x0,
        t_end=net.t_end,
        meta=net.meta,
    )


def _pair(a: int, b: int) -> list[Complex]:
    return [((a, 1),), ((b, 1),)]


def _point(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.uniform(0.5, 2.0, size=m)


def _flux(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.5, 2.0))


def _tag(rng: np.random.Generator) -> str:
    # Species names carry a per-network tag, so no two jobs share text even
    # where rates do not matter to the operation.
    return f"{int(rng.integers(0, 16**4)):04x}"


def pairs(rng: np.random.Generator, p: int) -> Net:
    """``A_i <-> B_i`` for i < p: p disjoint minimal siphons, 2^p - 1 closure faces."""
    t = _tag(rng)
    names = [f"A{i}_{t}" for i in range(p)] + [f"B{i}_{t}" for i in range(p)]
    x = _point(rng, 2 * p)
    raw = [r for i in range(p) for r in cycle(_pair(i, p + i), _flux(rng), x)]
    net = build(f"pairs-p{p}", names, raw, rng)
    net.minimal_siphons = [frozenset({names[i], names[p + i]}) for i in range(p)]
    return net


def chain(rng: np.random.Generator, m: int) -> Net:
    """``S_0 <-> S_1 <-> ... <-> S_{m-1}``: one minimal siphon, the whole set,
    so the subset scan visits all 2^m subsets."""
    t = _tag(rng)
    names = [f"S{i}_{t}" for i in range(m)]
    x = _point(rng, m)
    raw = [r for i in range(m - 1) for r in cycle(_pair(i, i + 1), _flux(rng), x)]
    net = build(f"chain-m{m}", names, raw, rng)
    net.minimal_siphons = [frozenset(names)]
    return net


def enzyme(rng: np.random.Generator, k: int) -> Net:
    """``E + S_i <-> C_i <-> E + P_i`` for i < k, m = 3k + 1 species.

    Minimal siphons: ``{E, C_0..C_{k-1}}`` and each ``{S_i, C_i, P_i}``.
    """
    t = _tag(rng)
    names = [f"E_{t}"]
    for i in range(k):
        names += [f"S{i}_{t}", f"C{i}_{t}", f"P{i}_{t}"]
    x = _point(rng, len(names))
    raw = []
    for i in range(k):
        s, c, p = 3 * i + 1, 3 * i + 2, 3 * i + 3
        raw += cycle([_cx({0: 1, s: 1}), _cx({c: 1})], _flux(rng), x)
        raw += cycle([_cx({c: 1}), _cx({0: 1, p: 1})], _flux(rng), x)
    net = build(f"enzyme-k{k}", names, raw, rng)
    net.minimal_siphons = [frozenset([names[0]] + [names[3 * i + 2] for i in range(k)])] + [
        frozenset(names[3 * i + 1 : 3 * i + 4]) for i in range(k)
    ]
    return net


def _sizes(
    sizes: np.random.Generator, max_species: int, max_complexes: int, min_species=lambda n: 0
) -> tuple[int, int]:
    """(complexes n, species m) of one random network, drawn from ``sizes``.

    m is geometric: mostly small networks (mean about 3.5) with a thin tail
    up to the cap.  The cap is two species per complex: wider complexes
    bring many minimal siphons and an exponential union closure, which is
    certify-large's regime, not this one's.  Sizes the network cannot have
    (``m < min_species(n)``) are redrawn.
    """
    while True:
        n = int(sizes.integers(2, max_complexes + 1))
        m = min(max_species, 2 * n, 1 + int(sizes.geometric(0.4)))
        if m >= min_species(n):
            return n, m


def _covering_pool(rng: np.random.Generator, m: int, n: int) -> list[Complex]:
    """n complexes that together use all m species, with multiplicities 1-2.

    Species are dealt round-robin, then about a third of the complexes take
    one more random species, so complexes can share species.
    """
    members = [set() for _ in range(n)]
    for pos, i in enumerate(rng.permutation(m)):
        members[pos % n].add(int(i))
    for c in members:
        if not c or rng.random() < 0.3:
            c.add(int(rng.integers(m)))
    return [_cx({i: int(rng.integers(1, 3)) for i in sorted(c)}) for c in members]


def _complex_matrix(cxs: list[Complex], m: int) -> np.ndarray:
    y = np.zeros((len(cxs), m))
    for row, c in enumerate(cxs):
        for i, k in c:
            y[row, i] = k
    return y


def random_cycle(
    rng: np.random.Generator, max_species: int, max_complexes: int, sizes: np.random.Generator
) -> Net:
    """Weakly reversible deficiency-zero network: complexes on one directed cycle.

    Its size comes from ``sizes`` and everything else from ``rng``.
    """
    t = _tag(rng)
    # Independent differences of n complexes need n - 1 species.
    n, m = _sizes(sizes, max_species, max_complexes, lambda n: n - 1)
    while True:
        cxs = _covering_pool(rng, m, n)
        # Deficiency n - l - s is zero iff the complex differences are independent.
        y = _complex_matrix(cxs, m)
        if len(set(cxs)) < n or np.linalg.matrix_rank(y[1:] - y[0]) != n - 1:
            continue
        x = _point(rng, m)
        net = build("cycle", [f"X{i}_{t}" for i in range(m)], cycle(cxs, _flux(rng), x), rng)
        net.meta["x_star"] = [float(x[i]) for i in net.meta["order"]]
        return net


def weakly_reversible(edges: list[tuple[int, int]], n: int) -> bool:
    """Whether every edge of the directed graph on n nodes lies on a cycle."""
    reach = np.eye(n, dtype=bool)
    for a, b in edges:
        reach[a, b] = True
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    return all(reach[b, a] for a, b in edges)


def random_generic(rng: np.random.Generator, max_species: int, sizes: np.random.Generator) -> Net:
    """Random network that is not weakly reversible (the hypothesis-failure exit).

    The complexes lie on a path with random edge directions, plus a few
    random extra edges; a draw that happens to be weakly reversible is
    redrawn.  Its size comes from ``sizes`` and everything else from ``rng``.
    """
    t = _tag(rng)
    n, m = _sizes(sizes, max_species, 6)
    while True:
        pool = _covering_pool(rng, m, n)
        if len(set(pool)) < n:
            continue
        edges = {(a, a + 1) if rng.random() < 0.5 else (a + 1, a) for a in range(n - 1)}
        for _ in range(int(rng.integers(0, 3))):
            a, b = (int(v) for v in rng.choice(n, 2, replace=False))
            edges.add((a, b))
        edges = sorted(edges)
        if weakly_reversible(edges, n):
            continue
        raw = [(pool[a], pool[b], _flux(rng)) for a, b in edges]
        return build("generic", [f"Y{i}_{t}" for i in range(m)], raw, rng)


# The three example networks of the repository, as (species count,
# reversible complex pairs).  Kept here so that the workload does not read
# files a change to the program could edit.
EXAMPLES = {
    "ex1": (5, [({0: 2, 2: 1}, {0: 1, 3: 1}), ({0: 2, 2: 1}, {1: 1, 2: 1}),
                ({0: 1, 3: 1}, {4: 1}), ({1: 1, 2: 1}, {4: 1})]),
    "ex2": (3, [({0: 2}, {0: 1, 1: 1}), ({0: 1, 1: 1}, {1: 1, 2: 1})]),
    "ex3": (3, [({0: 2}, {0: 1, 1: 1}), ({1: 2}, {0: 1, 2: 1})]),
}


def _fastest_mode(raw, x: np.ndarray) -> float:
    """Largest eigenvalue modulus of the mass-action Jacobian at x."""
    jac = np.zeros((x.size, x.size))
    for (src, _, rate), delta in zip(raw, _stoichiometry(raw, x.size)):
        y = np.zeros(x.size)
        for i, k in src:
            y[i] = k
        jac += rate * _monomial(src, x) * np.outer(delta, y / x)
    return float(np.max(np.abs(np.linalg.eigvals(jac))))


def simulation(
    label: str,
    names: list[str],
    raw: list[tuple[Complex, Complex, float]],
    x_star: np.ndarray,
    rng: np.random.Generator,
    t_end: float,
    fastest_mode: Optional[float] = None,
    push: Optional[list[float]] = None,
) -> Net:
    """Network plus a simulation job whose class equilibrium is ``x_star``.

    The anchor is ``x_star`` moved inside its stoichiometric class, so the
    program must find ``x_star`` again: along ``push``, a combination of the
    reactions, or a random one.  With ``fastest_mode`` set, all rates
    are scaled by one factor so the Jacobian at ``x_star`` has that largest
    eigenvalue modulus: step counts then depend little on the random draw.
    """
    if fastest_mode is not None:
        scale = fastest_mode / _fastest_mode(raw, x_star)
        raw = [(a, b, rate * scale) for a, b, rate in raw]
    if push is None:
        push = rng.standard_normal(len(raw))
    s = np.asarray(push) @ _stoichiometry(raw, x_star.size)
    x0 = x_star + 0.5 * s / np.max(np.abs(s) / x_star)
    net = build(label, names, raw, rng)
    order = net.meta["order"]
    net.x0 = [float(x0[i]) for i in order]
    net.meta["x_star"] = [float(x_star[i]) for i in order]
    net.t_end = t_end
    return net


def example(rng: np.random.Generator, name: str, t_end: float, fastest_mode: float) -> Net:
    """One of ex1-ex3 with seeded rates around a known complex-balanced point."""
    t = _tag(rng)
    m, pairs_ = EXAMPLES[name]
    x = _point(rng, m)
    raw = [r for a, b in pairs_ for r in cycle([_cx(a), _cx(b)], _flux(rng), x)]
    names = [f"{chr(65 + i)}_{t}" for i in range(m)]
    return simulation(name, names, raw, x, rng, t_end, fastest_mode)


def simulated_cycle(
    rng: np.random.Generator, t_end: float, fastest_mode: float, sizes: np.random.Generator
) -> Net:
    """A random deficiency-zero cycle (at most 6 species, 5 complexes) to simulate."""
    net = random_cycle(rng, 6, 5, sizes)
    x = np.array(net.meta["x_star"])
    return simulation("cycle", net.species, net.reactions, x, rng, t_end, fastest_mode)


def stiff(rng: np.random.Generator, fast_rate: float, t_end: float) -> Net:
    """``A <-> B`` at ``fast_rate`` coupled to slow ``B <-> C <-> D`` (about 1e-2).

    An explicit stepper's step is capped near ``3 / (2 * fast_rate)``, so
    the step count is set by stability, not by the requested accuracy.  The
    anchor is the same for every seed, so the transient, and with it the step
    count, varies little from seed to seed.
    """
    t = _tag(rng)
    names = [f"A_{t}", f"B_{t}", f"C_{t}", f"D_{t}"]
    x = np.ones(4)
    raw = cycle(_pair(0, 1), fast_rate, x)
    raw += cycle(_pair(1, 2), 1e-2 * _flux(rng), x)
    raw += cycle(_pair(2, 3), 1e-2 * _flux(rng), x)
    push = [1.0, 0.0, -1.0, 0.0, 1.0, 0.0]  # forward A->B, back B->C, forward C->D
    return simulation(f"stiff-k{fast_rate:.0f}", names, raw, x, rng, t_end, push=push)


# --- workloads ---------------------------------------------------------------
#
# Each workload is a job list drawn from (seed, workload).  Every pass runs
# a fresh variant of each job (``variant``), drawn from (seed, workload,
# pass): no network text repeats within a run, yet job i costs the same in
# every pass, so the fastest of its passes measures the program and not a
# moment of contention on the host.  ``tiny`` shrinks every family for the
# smoke test.

# The sizes of the random networks come from this fixed stream, not from
# the seed: every seed then has the same mix of sizes, and the cost of a pass,
# which the few largest networks dominate, varies little from seed to seed.
SIZES_SEED = 0
NONSTIFF_MODE = 8.0  # rate scale of simulate-nonstiff: about 300 steps to t=100
STIFF_JOBS = 8
STIFF_T_END = 0.1


def certify_large(rng: np.random.Generator, tiny: bool) -> list[Net]:
    """Exponential work: the 2^m siphon scan and the union-closure face verdicts."""
    if tiny:
        return [pairs(rng, 2), pairs(rng, 3), chain(rng, 4), chain(rng, 5), enzyme(rng, 1), enzyme(rng, 2)]
    return (
        [pairs(rng, p) for p in range(4, 9)]
        + [chain(rng, m) for m in range(10, 19)]
        + [enzyme(rng, k) for k in range(2, 6)]
    )


def certify_small(rng: np.random.Generator, tiny: bool) -> list[Net]:
    """Many small networks, half of them failing the hypotheses: fixed
    per-network cost dominates, so a higher constant factor shows here."""
    sizes = np.random.default_rng(SIZES_SEED)
    return [
        random_cycle(rng, 12, 4, sizes) if i % 2 == 0 else random_generic(rng, 12, sizes)
        for i in range(20 if tiny else 400)
    ]


def simulate_nonstiff(rng: np.random.Generator, tiny: bool) -> list[Net]:
    """Step count set by accuracy: the per-step cost of stepper, rhs and lyapunov."""
    t_end, count = (2.0, 1) if tiny else (100.0, 5)
    nets = [example(rng, name, t_end, NONSTIFF_MODE) for name in EXAMPLES]
    sizes = np.random.default_rng(SIZES_SEED)
    return nets + [simulated_cycle(rng, t_end, NONSTIFF_MODE, sizes) for _ in range(count)]


def simulate_stiff(rng: np.random.Generator, tiny: bool) -> list[Net]:
    """Step count set by stability: where an implicit stepper would win."""
    if tiny:
        return [stiff(rng, 1e3, 0.01), stiff(rng, 2e3, 0.01)]
    # Log-spaced fast rates over [1e3, 1e4], jittered by 2%.
    rates = np.logspace(3, 4, STIFF_JOBS) * rng.uniform(0.98, 1.02, STIFF_JOBS)
    return [stiff(rng, float(k), STIFF_T_END) for k in rates]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "certify" or "simulate"
    make_pass: Callable[[np.random.Generator, bool], list[Net]]
    job_limit_s: float  # a job running longer fails
    # A run also stops after this many passes, so that checking every output
    # stays within the run's time limit however fast the program gets.
    max_passes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-large", "certify", certify_large, 30.0, 30),
        Workload("certify-small", "certify", certify_small, 5.0, 60),
        Workload("simulate-nonstiff", "simulate", simulate_nonstiff, 20.0, 40),
        Workload("simulate-stiff", "simulate", simulate_stiff, 30.0, 40),
    )
}


def make_pass(workload: str, seed: int, pass_index: int, tiny: bool = False) -> list[Net]:
    """The job list of one pass; the same arguments give the same networks."""
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, index, pass_index])
    return [variant(net, rng) for net in _base(workload, seed, tiny)]


@functools.lru_cache(maxsize=4)
def _base(workload: str, seed: int, tiny: bool) -> list[Net]:
    """The networks every pass of a run varies (never modified in place)."""
    index = list(WORKLOADS).index(workload)
    return WORKLOADS[workload].make_pass(np.random.default_rng([seed, index]), tiny)
