"""Numerical dynamics: kinetics, Lyapunov monitoring, integration, equilibria.

The structural modules are exact; this one is deliberately floating point.
Every rate is a monomial in ``u = theta(x)``, read from the source table of
``net.numeric``; ``theta`` is the identity for mass action and a per-species
monotone map for generalized kinetics.  So each numeric routine has one
path, and one exact Jacobian kernel, scaled by ``d theta / dx``, serves all.

:func:`simulate` integrates with the explicit Dormand-Prince 8(5,3) pair
DOP853 until a rejected step shows that stability, not accuracy, holds the
step size, and then with the L-stable Rosenbrock pair RODAS4 for the rest of
the run, so the step grows with the slow time scales once the fast ones have
settled.  Each RODAS4 stage is solved in the coordinates of the
stoichiometric subspace S, where it lies, so the run stays in its
compatibility class to rounding.  This module owns a network's numeric
form: :func:`numeric_form` compiles its vector field once, to straight-line
code on Python floats, ``net.numeric`` keeps it, and :func:`rhs` and every
run evaluate that one field, at ``theta(x)`` mapped entry by entry; the
DOP853 step, generated once from its tableau, runs on those floats too:
under either kinetics an explicit step and its acceptance test make no
numpy call.

:func:`find_equilibrium` gets a complex-balanced point from tree constants
that GTH elimination computes to a small relative error, and then the class
equilibrium by Newton on a convex function whose iterates are positive by
construction, so equilibrium constants far from 1 do not break it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import truediv
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .structure import structure_report

if TYPE_CHECKING:
    from .network import Reaction, ReactionNetwork


class HypothesesError(ValueError):
    """Network fails the structural hypotheses an operation requires."""


class IntegrationError(ArithmeticError):
    """Adaptive stepper could not continue (step underflow, bad state)."""


class ConvergenceError(ArithmeticError):
    """Equilibrium iteration did not converge; message carries diagnostics."""


# A kinetics: ``None`` for mass action, or one map theta_j per species, each
# rate then a monomial in u = theta(x).
KineticsSpec = Optional[tuple[Callable[[float], float], ...]]

MASS_ACTION: KineticsSpec = None


def generalized_kinetics(
    theta: Callable[[float], float] | Sequence[Callable[[float], float]],
    num_species: int,
) -> KineticsSpec:
    """The tuple of one theta map per species, after a spot check of admissibility.

    Each map must vanish at zero and be strictly increasing; this is checked
    on a sample grid at construction (a full verification is up to the
    caller, who asserts the remaining admissibility properties).
    """
    if callable(theta):
        thetas = tuple([theta] * num_species)
    else:
        thetas = tuple(theta)
        if len(thetas) != num_species:
            raise ValueError("need one theta per species")
    grid = [0.0, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0]
    for i, th in enumerate(thetas):
        if abs(th(0.0)) > 1e-12:
            raise ValueError(f"theta[{i}](0) must be 0, got {th(0.0)}")
        values = [th(g) for g in grid]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"theta[{i}] is not strictly increasing on the sample grid")
    return thetas


def _transformed(x: Sequence[float], thetas: tuple[Callable[[float], float], ...]) -> list[float]:
    """u = theta(x) as Python floats; ``ValueError`` unless there is one map per entry of x."""
    if len(thetas) != len(x):
        raise ValueError(f"kinetics has {len(thetas)} theta maps for a state of {len(x)} species")
    return [float(th(float(v))) for th, v in zip(thetas, x)]


def _slopes(x: np.ndarray, thetas: tuple[Callable[[float], float], ...]) -> np.ndarray:
    """``d theta_j / d x_j`` at x, by which the chain rule scales column j.

    Central quotients with ``h = 1e-6 max(1, |x_j|)``, forward ones where
    ``x_j - h < 0``, so theta never sees a negative argument.
    """
    slopes = np.empty(x.size)
    for j, (th, v) in enumerate(zip(thetas, x.tolist())):
        h = 1e-6 * max(1.0, abs(v))
        if v - h >= 0:
            slopes[j] = (th(v + h) - th(v - h)) / (2 * h)
        else:
            slopes[j] = (th(v + h) - th(v)) / h
    return slopes


def _checked(x: Sequence[float], m: int, name: str, positive: bool) -> np.ndarray:
    """x as a float vector of m finite entries, each positive or nonnegative."""
    arr = np.asarray(x, dtype=float)
    low = arr > 0 if positive else arr >= 0
    if arr.shape != (m,) or not np.all(low & (arr < math.inf)):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be entrywise {sign} and finite, one entry each for {m} species")
    return arr


def _check_run(
    t_end: float, rtol: float, atol: float, names: Sequence[str] = ("t_end", "rtol", "atol")
) -> None:
    """Refuse run settings :func:`simulate` cannot honour, naming each by ``names``.

    ``t_end`` must be positive and finite; each tolerance nonnegative and
    finite, and not both 0.
    """
    t_name, rtol_name, atol_name = names
    if not 0 < t_end < math.inf:
        raise ValueError(f"{t_name} must be positive and finite")
    for name, tol in ((rtol_name, rtol), (atol_name, atol)):
        if not 0 <= tol < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite")
    if rtol == atol == 0:
        raise ValueError(f"{atol_name} must be positive when {rtol_name} is 0")


# Terms per generated statement.  A flux's product and a species' sum are
# cut into statements of at most this many terms, so no expression nests
# deeper than this, however many reactions share a species.
_TERMS_PER_STATEMENT = 16


def _statements(target: str, terms: list[str], op: str) -> list[str]:
    # target = t0 op t1 ..., continued as target op= ... past each chunk.
    exprs = [
        op.join(terms[i : i + _TERMS_PER_STATEMENT]).replace(" + -", " - ")
        for i in range(0, len(terms), _TERMS_PER_STATEMENT)
    ]
    return [f"    {target} = {exprs[0]}"] + [f"    {target} {op.strip()}= {e}" for e in exprs[1:]]


def _compile_field(reactions: Sequence[Reaction], changes: list, m: int) -> Callable[[list], list]:
    """The mass-action vector field of ``reactions`` as straight-line float code.

    ``changes`` lists the nonzero net stoichiometric changes
    ``(r, i, N[r, i])`` in reaction order, species ascending.  The generated
    ``field(u)`` maps a list of m floats to the list ``fluxes(u) @ N``.
    Flux r is its rate times ``u_j**e`` for each species j of its source, by
    binary powering: the squares ``s{j}_{k} = u_j**(2**k)`` are formed once
    per species and each flux multiplies those whose bit is set in e, so an
    exponent p costs O(log p) products.  A float product overflows to inf
    without raising, where float ``**`` raises ``OverflowError``.  Each
    derivative sums its nonzero stoichiometric terms.
    The source holds only integer indices and the reprs of the rates, which
    ``ReactionNetwork`` checks to be positive and finite; no name or input
    text reaches it.
    """
    bits = [1] * m
    for source, _, _ in reactions:
        for j, e in source:
            bits[j] = max(bits[j], e.bit_length())

    def power(j: int, k: int) -> str:
        return f"s{j}_{k}" if k else f"u{j}"

    lines = ["def field(u):", "    " + "".join(f"u{j}, " for j in range(m)) + "= u"]
    for j in range(m):
        lines += [f"    s{j}_{k} = {power(j, k - 1)} * {power(j, k - 1)}" for k in range(1, bits[j])]
    for r, (source, _, rate) in enumerate(reactions):
        factors = [power(j, k) for j, e in source for k in range(e.bit_length()) if e >> k & 1]
        lines += _statements(f"r{r}", [repr(float(rate))] + factors, " * ")
    columns: list[list[tuple[int, float]]] = [[] for _ in range(m)]
    for r, j, c in changes:
        columns[j].append((r, c))
    for j, column in enumerate(columns):
        terms = [f"{'-' * (c < 0)}{'' if abs(c) == 1 else f'{abs(c)!r} * '}r{r}" for r, c in column]
        lines += _statements(f"d{j}", terms or ["0.0"], " + ")
    lines.append("    return [" + ", ".join(f"d{j}" for j in range(m)) + "]")
    namespace: dict = {"__builtins__": {}}
    exec(compile("\n".join(lines), "<vector field>", "exec"), namespace)
    return namespace["field"]


def _compile_jacobian(
    species: np.ndarray, orders: np.ndarray, rates: np.ndarray, changes: list, m: int
) -> Callable[[np.ndarray], np.ndarray]:
    """``u -> d(fluxes(u) @ N) / du``, exact on the boundary, from the source table.

    The derivative of flux r by the species of its slot a is the rate times
    the monomial with factor a replaced by ``e * u**(e - 1)`` (the exponent
    clipped at 0, so u = 0 stays exact).  Entry (i, j) adds ``N[r, i]``
    times it over the reactions in order, as ``np.bincount`` adds its
    weights, so it equals the per-reaction loop bit for bit.  The tables
    below depend only on the network: built once here.
    """
    width = orders.shape[1]
    # Row (k, a), for the k-th nonzero stoichiometric entry (r, i) in reaction
    # order and slot a of r, holds the w + 2 factors of one term of entry
    # (i, species[r, a]), in the loop's order, as coefficient * u[base]**exponent:
    # each slot's power, e * u**(e - 1) at slot a, the rate, then N[r, i].
    reactions, touched, values = (np.array(column) for column in zip(*changes))
    diagonal = np.eye(width, width + 2, dtype=bool)
    padded = np.zeros((len(reactions), 1, width + 2))
    padded[..., :width] = orders[reactions, None, :]
    exponents = np.maximum(padded - diagonal, 0.0)
    coefficients = np.where(diagonal, padded, 1.0)
    coefficients[..., width] = rates[reactions, None]
    coefficients[..., width + 1] = values[:, None]
    bases = np.zeros(exponents.shape, dtype=np.intp)
    bases[..., :width] = species[reactions, None, :]
    targets = (m * touched[:, None] + species[reactions]).ravel()

    def jac(u: np.ndarray) -> np.ndarray:
        terms = np.multiply.reduce(coefficients * u[bases] ** exponents, axis=2)
        return np.bincount(targets, terms.ravel(), minlength=m * m).reshape(m, m)

    return jac


class NumericForm(NamedTuple):
    """A network compiled for numeric work, shared read-only by every routine.

    Reaction r runs from complex ``source[r]`` to ``product[r]`` (positions in
    ``ReactionNetwork.complexes``) at ``rates[r]``.  Its source monomial is
    ``prod_a u[source_species[r, a]] ** source_orders[r, a]`` over w slots in
    species order, w being the size of the widest source; a shorter row is
    padded with order 0 (``u**0 == 1``) on its last species.  ``field`` maps
    a list of m floats u to the list of species derivatives, compiled from
    each reaction's integer source terms and rate, and ``jacobian`` maps an
    array u to their derivative matrix in u, built on the source table
    above.  Both are compiled once, when the form is built, so no routine
    compiles or holds an r x m array; :func:`_kinetics` applies a kinetics
    to them in one place.
    """

    source: np.ndarray
    product: np.ndarray
    rates: np.ndarray
    source_species: np.ndarray
    source_orders: np.ndarray
    field: Callable[[list[float]], list[float]]
    jacobian: Callable[[np.ndarray], np.ndarray]


def numeric_form(net: ReactionNetwork) -> NumericForm:
    """The compiled numeric form of ``net``, which ``net.numeric`` builds once and keeps."""
    sources, products, rates = zip(*net.reactions)
    source = np.array([net.complex_index[c] for c in sources])
    product = np.array([net.complex_index[c] for c in products])
    rates = np.array(rates)
    width = max(1, *map(len, sources))
    table = np.array([t + ((t[-1][0] if t else 0, 0),) * (width - len(t)) for t in sources])
    species, orders = table[..., 0].copy(), table[..., 1].astype(float)
    for a in (source, product, rates, species, orders):
        a.setflags(write=False)
    # The nonzero net stoichiometric changes (reaction, species, change),
    # in reaction order and species order within a reaction.
    changes = []
    for row, (src, prod, _) in enumerate(net.reactions):
        delta = dict(prod)
        delta.update((i, delta.get(i, 0) - k) for i, k in src)
        changes += [(row, i, float(d)) for i, d in sorted(delta.items()) if d]
    m = net.num_species
    vector_field = _compile_field(net.reactions, changes, m)
    jacobian = _compile_jacobian(species, orders, rates, changes, m)
    return NumericForm(source, product, rates, species, orders, vector_field, jacobian)


def _kinetics(
    net: ReactionNetwork, kinetics: KineticsSpec
) -> tuple[Callable[[list[float]], list[float]], Callable[[np.ndarray], np.ndarray]]:
    """The vector field of ``net`` on a list x and its Jacobian at an array x.

    Mass action gives the two kernels of ``net.numeric`` themselves.  A
    theta kinetics hands the field the list ``u = theta(x)`` as it is, and
    the Jacobian kernel that list as one array, whose column j it scales by
    ``d theta_j / d x_j`` (the chain rule); each raises ``ValueError``
    unless there is one map per species.
    """
    form = net.numeric
    if kinetics is None:
        return form.field, form.jacobian

    def field(x: list[float]) -> list[float]:
        return form.field(_transformed(x, kinetics))

    def jac(x: np.ndarray) -> np.ndarray:
        return form.jacobian(np.array(_transformed(x, kinetics))) * _slopes(x, kinetics)

    return field, jac


def rhs(net: ReactionNetwork, kinetics: KineticsSpec, x: Sequence[float]) -> np.ndarray:
    """Species time derivative: sum of flux times net stoichiometry.

    This is the compiled field of ``net.numeric`` at ``theta(x)``, the one
    :func:`simulate` integrates.  Boundary states are allowed; a flux with
    any required input at zero is zero, and species absent from a source
    contribute a factor 1.
    """
    arr = _checked(x, net.num_species, "state", positive=False)
    return np.array(_kinetics(net, kinetics)[0](arr.tolist()))


def jacobian(net: ReactionNetwork, kinetics: KineticsSpec, x: Sequence[float]) -> np.ndarray:
    """Derivative matrix of :func:`rhs` at x.

    Exact monomial differentiation in ``u = theta(x)``, valid on the
    boundary, times ``d theta_j / d x_j`` on column j (the chain rule).  No
    temporary holds r * m * m floats, however many species there are.
    """
    return _kinetics(net, kinetics)[1](_checked(x, net.num_species, "state", positive=False))


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, noise: float) -> float:
    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = f(lmid)
        frm = f(rmid)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1
        )

    if a == b:
        return 0.0
    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, b, fa, fm, fb)
    # _QUAD_TOL bounds the error relative to the integral once it exceeds 1,
    # and noise, the rounding of f per unit length, floors it: a bound below
    # either rounding is met only where the noise happens to cancel, and the
    # recursion would otherwise run towards its full depth.
    tol = max(_QUAD_TOL * max(1.0, abs(whole)), noise * abs(b - a))
    return recurse(a, b, fa, fm, fb, whole, tol, 40)


def _relative_entropy(x: np.ndarray, x_bar: np.ndarray) -> np.ndarray:
    # Mass-action V over the last axis: one state, or a stack of states, as
    # the sum of x ln(x / x_bar) - gap with gap = x - x_bar.  Within x_bar / 2
    # the gap is exact, x_bar + near is x, and the log is log1p(gap / x_bar),
    # so a term near x_bar keeps its digits where x (ln x - ln x_bar - 1) + x_bar
    # cancels to eps * x; farther out, log x - log(x_bar + near) adds the rest.
    gap = x - x_bar
    near = np.clip(gap, -0.5 * x_bar, 0.5 * x_bar)
    return np.sum(x * (np.log1p(near / x_bar) + (np.log(x) - np.log(x_bar + near))) - gap, axis=-1)


# Error bound of the adaptive quadrature behind generalized-kinetics V,
# absolute up to a term of magnitude 1 and relative above it.
_QUAD_TOL = 1e-10


def lyapunov(
    x: Sequence[float],
    x_bar: Sequence[float],
    kinetics: KineticsSpec = MASS_ACTION,
) -> tuple[float, np.ndarray]:
    """Relative-entropy Lyapunov value and gradient at x for reference x_bar.

    Mass action gives the value ``sum x_i (ln x_i - ln xbar_i - 1) + xbar_i``
    and the gradient ``ln x_i - ln xbar_i`` at once.  Generalized kinetics
    give the gradient ``ln u_i - ln ubar_i`` with ``u = theta(x)``, and
    integrate ``ln theta_i(s) - ln theta_i(xbar_i)`` from ``xbar_i`` to
    ``x_i`` by adaptive Simpson quadrature for the value.
    """
    xb = _checked(x_bar, np.size(x_bar), "x_bar", positive=True)
    xa = _checked(x, xb.size, "x", positive=True)
    if kinetics is None:
        return float(_relative_entropy(xa, xb)), np.log(xa) - np.log(xb)
    log_ub = np.log(_transformed(xb, kinetics))
    grad = np.log(_transformed(xa, kinetics)) - log_ub
    value = 0.0
    for th, rb, lo, hi in zip(kinetics, log_ub.tolist(), xb.tolist(), xa.tolist()):
        # Near xbar the integrand cancels to the rounding of its two logs,
        # about 2 eps |rb|.
        value += _adaptive_simpson(lambda s, th=th, rb=rb: math.log(th(s)) - rb, lo, hi, 4e-16 * abs(rb))
    return value, grad


@dataclass(frozen=True)
class IntegrationStats:
    """What one :func:`simulate` run spent, by stepper and by cause.

    ``switch_time`` is the time at which the run handed over from the
    explicit DOP853 stepper to the implicit Rosenbrock one, ``None`` when
    it never did.  Rejections count the attempts of both steppers;
    ``rhs_evaluations`` counts every evaluation of the vector field, as
    the Jacobian evaluates none.
    """

    explicit_steps: int
    rosenbrock_steps: int
    rejected_error: int
    rejected_positivity: int
    rhs_evaluations: int
    jacobian_evaluations: int
    switch_time: Optional[float]


@dataclass(frozen=True)
class Trajectory:
    """Accepted integrator states with Lyapunov and conservation diagnostics.

    ``lyapunov`` holds V at each state, NaN throughout when the run had no
    reference state; ``conservation_residual`` the worst drift of a
    conservation law from the initial state, 0 when there is none.
    """

    times: np.ndarray
    states: np.ndarray
    lyapunov: np.ndarray
    conservation_residual: np.ndarray
    stats: Optional[IntegrationStats] = None

    def __len__(self) -> int:
        return len(self.times)


def _frozen(table: list) -> np.ndarray:
    # Rows shorter than the longest are padded with zeros.
    array = np.zeros((len(table), max(len(row) for row in table)))
    for i, row in enumerate(table):
        array[i, : len(row)] = row
    array.setflags(write=False)
    return array


# Dormand-Prince 8(5,3), DOP853 (Prince & Dormand 1981; Hairer, Norsett &
# Wanner, Solving ODEs I, sec. II.10): the twelve stages of one step.  Stage
# s is evaluated at x + h * (_DOP_A[s, :s] @ K[:s]), row j of K holding
# stage j.  Row 0 of _DOP_B holds the eighth-order weights, row 1 the
# fifth-order error estimator and row 2 the difference between the
# eighth-order weights and the third-order ones (0.2440944881889764,
# 0.7338466882816118 and 0.022058823529411766 on stages 0, 8 and 11), so
# h * (_DOP_B @ K) stacks the step's increment over its two error estimates.
# The pair is FSAL: f at the accepted state is the next step's stage 0, and
# neither estimate needs it, so a step rejected for its error costs eleven
# evaluations and an accepted one twelve.
_DOP_A = _frozen(
    [
        [],
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0.0, 0.08876275643042054],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
         -3.0467644718982196],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
         12.360567175794303, 0.6433927460157636],
    ]
)
_DOP_B = _frozen(
    [
        [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
         0.04471061572777259],
        [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
         1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
         -0.022355307863886294],
        [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
         0.02265179219836082],
    ]
)
# DOP853's stability interval on the negative real axis is about
# [-6.39, 0].  When a step is rejected, for its error or for leaving the
# orthant, with h * rho(J) above this bound, the step size is held by
# stability, not accuracy, and the run hands over to the Rosenbrock stepper.
# The bound keeps a margin below 6.39, where the explicit step is barely
# stable; on the simulate benchmark (seeds 7 and 11), every bound from 3 to
# 6 gives the same steps.
_STIFF_BOUND = 5.0

# RODAS4 (Hairer & Wanner, Solving ODEs II, sec. VI.4), an L-stable, stiffly
# accurate Rosenbrock 4(3) pair, in the transformed variables U_s = h * sum_j
# gamma_sj k_j that need no matrix-vector product with J.  With
# W = I / (h * _ROS_GAMMA) - J, stage s solves
# W U_s = f(x + _ROS_A[s, :s] @ U[:s]) + (_ROS_C[s, :s] / h) @ U[:s]
# (``_rosenbrock_step`` solves it in the coordinates of S, where U_s lies).
# Row 0 of _ROS_B holds the fourth-order weights and row 1 their difference
# from the third-order weights, so _ROS_B @ U stacks increment over error.
_ROS_GAMMA = 0.25
_ROS_A = _frozen(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [1.544, 0.0, 0.0, 0.0, 0.0],
        [0.9466785280815826, 0.2557011698983284, 0.0, 0.0, 0.0],
        [3.314825187068521, 2.896124015972201, 0.9986419139977817, 0.0, 0.0],
        [1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895, 0.0],
        [1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895, 1.0],
    ]
)
_ROS_C = _frozen(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [-5.6688, 0.0, 0.0, 0.0, 0.0],
        [-2.430093356833875, -0.2063599157091915, 0.0, 0.0, 0.0],
        [-0.1073529058151375, -9.594562251023355, -20.47028614809616, 0.0, 0.0],
        [7.496443313967647, -10.24680431464352, -33.99990352819905, 11.7089089320616, 0.0],
        [8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
         -6.058818238834054],
    ]
)
_ROS_B = _frozen(
    [
        [1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895, 1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ]
)

# Step attempts one simulate call may make before it raises IntegrationError.
MAX_STEPS = 2_000_000


def _leaves_orthant(state: list[float]) -> bool:
    """``np.min(state) < 0``: some entry is negative and none is NaN.

    A NaN stage state passes on purpose: it reaches the error estimate,
    which is then non-finite.
    """
    return min(state) < 0 and not any(map(math.isnan, state))


def _combination(row: list[float]) -> tuple[str, str, str]:
    # The sum over the nonzero entries a_j of a tableau row of a_j * c_j, with
    # the names c_j of the stage entries it reads and the names k_j of the stages.
    used = [j for j, a in enumerate(row) if a]
    terms = " + ".join(f"{row[j]!r} * c{j}" for j in used)
    return terms, ", ".join(f"c{j}" for j in used), ", ".join(f"k{j}" for j in used)


def _generated_dop853_step() -> tuple[str, Callable]:
    """``_dop853_step`` and its source: _DOP_A and _DOP_B unrolled into list comprehensions."""
    lines = [
        "def _dop853_step(f, x, h, k0):",
        '    """One DOP853 attempt from x, k0 holding f(x).',
        "",
        "    Returns the step's increment and its fifth- and third-order error",
        "    estimates, three lists, or None when a stage state leaves the orthant.",
        '    """',
    ]
    for s, row in enumerate(_DOP_A.tolist()[1:], start=1):
        terms, entries, stages = _combination(row)
        lines += [
            f"    x{s} = [xi + h * ({terms}) for xi, {entries} in zip(x, {stages})]",
            f"    if _leaves_orthant(x{s}):",
            "        return None",
            f"    k{s} = f(x{s})",
        ]
    rows = [
        "[h * ({}) for {} in zip({})]".format(*_combination(row)) for row in _DOP_B.tolist()
    ]
    lines.append(f"    return {', '.join(rows)}")
    source = "\n".join(lines)
    namespace: dict = {"_leaves_orthant": _leaves_orthant}
    exec(compile(source, "<DOP853 step>", "exec"), namespace)
    return source, namespace["_dop853_step"]


# Stage s of one attempt is x + h * (_DOP_A[s, :s] @ K[:s]) and the three
# returned lists are h * (_DOP_B @ K), each entry a float sum over the
# nonzero coefficients; the attempt makes no numpy call.
_DOP853_SOURCE, _dop853_step = _generated_dop853_step()


def _rosenbrock_step(
    f: Callable[[list[float]], list[float]],
    v: np.ndarray,
    lead: np.ndarray,
    jac_s: np.ndarray,
    x: np.ndarray,
    h: float,
    fx: list[float],
) -> Optional[list[list[float]]]:
    """One RODAS4 attempt from x on S, given ``jac_s = J[lead] @ v`` and fx = f(x).

    The columns of v are the canonical basis of S, each scaled so that
    ``v[lead]`` is the identity: a vector of S is v times its entries in
    ``lead``.  Every stage right-hand side lies in S, so stage s is
    ``v z_s``, where ``(I / (h gamma) - jac_s) z_s`` equals the right-hand
    side's entries in ``lead``.  ``w_inv`` holds v times the inverse of
    that s x s matrix in the lead columns and zeros elsewhere, so applied
    to a right-hand side it gives the stage.  The attempt fills its own
    6 x m stage array.  Returns the step's increment and its error
    estimate, two lists, or None when a stage state leaves the orthant;
    raises ``LinAlgError`` when the s x s matrix is singular.
    """
    w_inv = np.zeros((x.size, x.size))
    w_inv[:, lead] = v @ np.linalg.inv(np.eye(lead.size) / (h * _ROS_GAMMA) - jac_s)
    c_h = _ROS_C / h
    stages = np.empty((6, x.size))
    stages[0] = w_inv @ fx
    for s in range(1, 6):
        xs = (x + _ROS_A[s, :s] @ stages[:s]).tolist()
        if _leaves_orthant(xs):
            return None
        stages[s] = w_inv @ (f(xs) + c_h[s, :s] @ stages[:s])
    return (_ROS_B @ stages).tolist()


def simulate(
    net: ReactionNetwork,
    kinetics: KineticsSpec,
    x0: Sequence[float],
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    x_ref: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Integrate the network ODE: explicit DOP853, then RODAS4 once stiff.

    The run starts with the explicit Dormand-Prince 8(5,3) stepper, twelve
    evaluations per accepted step, the first reused from the step before,
    and Hairer's error norm built from its fifth- and third-order estimates.
    After each step it rejects, for its error or for leaving the orthant,
    the Jacobian J at the current state bounds the spectral radius rho; when
    ``h * rho`` exceeds ``_STIFF_BOUND`` the step is held by stability, not
    accuracy, and the run switches, once, to the L-stable Rosenbrock pair
    RODAS4 and retries the step with it.  Accepted DOP853 steps cost no
    Jacobian.  Every RODAS4 stage right-hand side lies in the
    stoichiometric subspace S, and so does every stage, so each stage is
    solved in S's own coordinates.  At the switch the run takes the
    canonical basis of S (``structure_report(net).s_basis``), each row over
    its lead entry, as the columns of v: a vector of S is v times its
    entries in the lead columns.  Once per step it forms ``J[lead] @ v``
    from the Jacobian J at x, and each attempt inverts the s x s matrix
    ``I / (h gamma) - J[lead] @ v`` (``_rosenbrock_step``).  A stage's
    component along a conservation law is then rounding in the product
    with v, never scaled by h, so the run stays on its class c + S however
    large ``h * |J|`` grows, and the matrix does not turn singular along
    the laws.  The canonical rows are
    sparse integers: they keep J's large entries apart from its small ones,
    where an orthonormal basis of S would mix them and lose the slow rates
    to rounding.  The field and J are those of :func:`rhs` and
    :func:`jacobian`, the kernels ``net.numeric`` compiled, through theta
    for generalized kinetics.  The state, the stages and the error norm
    are lists of Python floats: each DOP853 stage is one list
    comprehension with a term per nonzero tableau coefficient
    (``_dop853_step``, generated at import); only the RODAS4 attempt makes
    arrays, among them its own stage array.  Inputs are validated once,
    here.  Steps whose stages or proposed state leave the
    positive orthant are retried at half the step; a non-finite error
    estimate (reported as a non-finite state when the proposal holds an
    infinity or a NaN, else with the run's rtol and atol) or a singular
    Rosenbrock matrix aborts the run, as does a vector field that
    overflows at x0 or at an accepted state, a step too small to advance t
    or more than ``MAX_STEPS`` attempts of the two steppers together.  The
    last step is clipped to end exactly at ``t_end``.  Every accepted state
    is recorded; once the loop ends, the Lyapunov value (NaN at every state
    when ``x_ref`` is not given) and the worst conservation-law drift
    relative to the initial state are computed over the stored states.
    ``Trajectory.stats`` counts the run's steps, rejections and
    evaluations; each attempt is one accepted step or one rejection, so
    the budget reads those four counters.
    """
    x = _checked(x0, net.num_species, "initial state x0", positive=True).tolist()
    _check_run(t_end, rtol, atol)
    size = len(x)
    ref = None if x_ref is None else _checked(x_ref, size, "reference state x_ref", positive=True)
    cons = np.array(structure_report(net).conservation_basis.vectors, dtype=float).reshape(-1, size)

    field, jac = _kinetics(net, kinetics)
    evaluations = 0

    def f(state: list[float]) -> list[float]:
        nonlocal evaluations
        evaluations += 1
        return field(state)

    def finite_f(state: list[float], t: float) -> list[float]:
        fs = f(state)
        if not all(map(math.isfinite, fs)):
            raise IntegrationError(f"flux overflow at t={t}: the vector field is not finite")
        return fs

    times = [0.0]
    states = [x]
    t = 0.0
    rejected_error = rejected_positivity = jacobians = 0
    accepted = [0, 0]  # by stepper: DOP853, Rosenbrock
    stiff = False
    switch_time = None
    jac_s = None  # J[lead] @ v at x, while the Rosenbrock stepper needs it
    # A flux may overflow at a stage state.  The stage then holds an infinity
    # or a NaN, which the sign test rejects or the error test reports, so
    # only f at x0 and at accepted states is checked to be finite.
    with np.errstate(over="ignore"):
        fx = finite_f(x, t)
        h = min(t_end, 0.01 * (1.0 + max(x)) / (1.0 + max(map(abs, fx))))
        while t < t_end:
            if sum(accepted) + rejected_error + rejected_positivity >= MAX_STEPS:
                raise IntegrationError(f"exceeded {MAX_STEPS} steps at t={t}")
            if t + h == t:
                raise IntegrationError(f"step size underflow at t={t}")
            remaining = t_end - t
            h = min(h, remaining)

            if not stiff:
                step = _dop853_step(f, x, h, fx)
            else:
                x_array = np.array(x)
                if jac_s is None:
                    jac_s = jac(x_array)[lead] @ v
                    jacobians += 1
                try:
                    step = _rosenbrock_step(f, v, lead, jac_s, x_array, h, fx)
                except np.linalg.LinAlgError:
                    raise IntegrationError(f"singular Rosenbrock matrix at t={t}") from None
            # A NaN in a stage or in x5 passes the sign tests on purpose, as
            # under np.min: it reaches the error estimate, which is then
            # non-finite.  Python's min skips a NaN that is not first.
            if step is not None:
                increment, *estimates = step
                x5 = [a + b for a, b in zip(x, increment)]
            if step is None or (min(x5) <= 0 and not any(map(math.isnan, x5))):
                rejected_positivity += 1
                factor = 0.5
            else:
                # x is never NaN, so b wins on a NaN, as under np.maximum.
                scale = [atol + rtol * (a if a > b else b) for a, b in zip(x, x5)]
                try:
                    squares = [sum([v * v for v in map(truediv, e, scale)]) for e in estimates]
                except ZeroDivisionError:  # atol is 0 and rtol * x underflowed
                    squares = [math.nan, math.nan]
                if stiff:
                    err = math.sqrt(squares[0] / size)
                else:
                    # Hairer's combined norm e5^2 / sqrt(e5^2 + e3^2 / 100): for
                    # small h it is about 10 e5 * (e5 / e3), of order h^6 * h^2.
                    n5, n3 = squares
                    err = n5 / math.sqrt((n5 + 0.01 * n3) * size) if n5 else 0.0
                if not math.isfinite(err):
                    if all(map(math.isfinite, x5)):
                        raise IntegrationError(
                            f"non-finite error estimate at t={t} (rtol={rtol}, atol={atol})"
                        )
                    raise IntegrationError(f"non-finite state at t={t}")
                # Minus one over the power of h the error estimate scales with.
                exponent = -0.25 if stiff else -0.125
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**exponent))
                if err <= 1.0:
                    # A step clipped to the endpoint lands on it exactly.
                    t = t_end if h == remaining else t + h
                    x = x5
                    times.append(t)
                    states.append(x)
                    accepted[stiff] += 1
                    fx = finite_f(x, t)
                    jac_s = None
                    h *= factor
                    continue
                rejected_error += 1
            if not stiff:
                # A rejected explicit step, for its error or its sign: the largest
                # absolute row sum of J bounds its spectral radius.
                jac_x = jac(np.array(x))
                jacobians += 1
                if h * float(np.max(np.sum(np.abs(jac_x), axis=1))) > _STIFF_BOUND:
                    stiff = True
                    switch_time = t
                    # S's canonical rows, each over its lead entry, as columns.
                    # S is not {0}: a network has a reaction, which changes its species.
                    s_basis = structure_report(net).s_basis
                    lead = np.array(s_basis.leads)
                    basis = np.array(s_basis.vectors, dtype=float)
                    v = basis.T / basis[range(lead.size), lead]
                    jac_s = jac_x[lead] @ v
                    continue  # retry the same step with the stable stepper
            h *= factor

    path = np.array(states)
    if ref is None:
        values = np.full(len(path), math.nan)
    elif kinetics is None:
        values = _relative_entropy(path, ref)
    else:
        values = np.array([lyapunov(state, ref, kinetics)[0] for state in path])
    return Trajectory(
        times=np.array(times),
        states=path,
        lyapunov=values,
        conservation_residual=np.max(np.abs((path - path[0]) @ cons.T), axis=1, initial=0.0),
        stats=IntegrationStats(
            explicit_steps=accepted[0],
            rosenbrock_steps=accepted[1],
            rejected_error=rejected_error,
            rejected_positivity=rejected_positivity,
            rhs_evaluations=evaluations,
            jacobian_evaluations=jacobians,
            switch_time=switch_time,
        ),
    )


def write_trajectory_csv(traj: Trajectory, names: Sequence[str], fh) -> None:
    """CSV with header ``t,<species...>,V,conservation_residual``."""
    fh.write("t," + ",".join(names) + ",V,conservation_residual\n")
    columns = traj.times, traj.states, traj.lyapunov, traj.conservation_residual
    for t, state, v, d in zip(*(a.tolist() for a in columns)):
        fh.write(",".join(map(repr, [t, *state, v, d])) + "\n")


def _tree_constants(q: np.ndarray) -> np.ndarray:
    """Stationary vector, ``pi[0] = 1``, of the irreducible rate matrix q.

    ``q[i, j]`` is the rate i -> j.  GTH elimination (Grassmann, Taksar &
    Heyman 1985) uses only sums, products and quotients of nonnegative
    numbers, so each entry keeps a small relative error however far the
    rates spread.  The diagonal of ``q`` is never read.
    """
    q = q.copy()
    for k in range(len(q) - 1, 0, -1):
        q[:k, k] /= q[k, :k].sum()
        q[:k, :k] += np.outer(q[:k, k], q[k, :k])
    pi = np.ones(len(q))
    for k in range(1, len(q)):
        pi[k] = pi[:k] @ q[:k, k]
    return pi


def complex_balanced_point(net: ReactionNetwork) -> np.ndarray:
    """One positive state at which every complex's inflow equals its outflow.

    On each linkage class the complex monomials of such a state are
    proportional to the tree constants of the class's rate matrix
    ``q[source, product]`` (Matrix-Tree theorem); matching them is a linear
    solve in log space.  Requires weak reversibility and deficiency zero.
    Raises ``ConvergenceError`` when the rates spread so far that the
    constants or the point leave the float range.
    """
    report = structure_report(net)
    if report.hypothesis_failures:
        raise HypothesesError("; ".join(report.hypothesis_failures))
    form = net.numeric
    n, m = len(net.complexes), net.num_species
    q = np.zeros((n, n))
    q[form.source, form.product] = form.rates
    kappa = np.zeros(n)
    # Row i of [Y | -indicator]: complex i's species multiplicities, then -1
    # in the column of its linkage class.
    system = np.zeros((n, m + len(report.linkage_classes)))
    for row, c in enumerate(net.complexes):
        for i, k in c:
            system[row, i] = k
    # Out of the float range the elimination gives inf, 0 or nan and exp
    # gives inf or 0; the check below turns each into a typed error.
    with np.errstate(all="ignore"):
        for b_idx, block in enumerate(report.linkage_classes):
            kappa[list(block)] = _tree_constants(q[np.ix_(block, block)])
            system[list(block), m + b_idx] = -1.0
        x_star = kappa
        if kappa.min() > 0 and kappa.max() < math.inf:
            solution, *_ = np.linalg.lstsq(system, np.log(kappa), rcond=None)
            x_star = np.exp(solution[:m])
    if not (x_star.min() > 0 and x_star.max() < math.inf):
        raise ConvergenceError(
            "the complex-balanced point leaves the float range "
            f"(rates span {form.rates.min():.3g} to {form.rates.max():.3g})"
        )
    return x_star


def complex_balance_residual(net: ReactionNetwork, x: Sequence[float]) -> float:
    """Relative worst-case gap between inflow and outflow over all complexes, under mass action."""
    u = _checked(x, net.num_species, "state", positive=False)
    form = net.numeric
    # np.multiply.reduce is np.prod without its Python-level dispatch.
    rates = form.rates * np.multiply.reduce(u[form.source_species] ** form.source_orders, axis=1)
    inflow = np.bincount(form.product, weights=rates, minlength=len(net.complexes))
    outflow = np.bincount(form.source, weights=rates, minlength=len(net.complexes))
    scale = max(float(np.max(inflow)), float(np.max(outflow)), 1e-300)
    return float(np.max(np.abs(inflow - outflow))) / scale


@dataclass(frozen=True)
class EquilibriumResult:
    x_bar: np.ndarray
    class_anchor: np.ndarray
    residual_rhs: float
    complex_balance_residual: float
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "x_bar": [float(v) for v in self.x_bar],
            "class_anchor": [float(v) for v in self.class_anchor],
            "residual_rhs": self.residual_rhs,
            "complex_balance_residual": self.complex_balance_residual,
            "iterations": self.iterations,
        }


# Newton raises ConvergenceError after _NEWTON_ITERATIONS steps.
_NEWTON_ITERATIONS = 200


def _binary_terms(laws: Sequence[Sequence[int]]) -> list[list[tuple[int, float]]]:
    """Each integer law as (species, +-2^k) pairs, one per set bit of its weight.

    ``x_j * 2^k`` is exact in floats, so ``math.fsum`` over these products
    gives ``C x`` rounded once.
    """
    return [
        [(j, math.copysign(2.0**k, w)) for j, w in enumerate(row)
         for k in range(abs(w).bit_length()) if abs(w) >> k & 1]
        for row in laws
    ]


def find_equilibrium(
    net: ReactionNetwork,
    c: Sequence[float],
) -> EquilibriumResult:
    """Unique positive equilibrium in the compatibility class anchored at c.

    Stage 1 gives a complex-balanced state ``x*``.  With C the conservation
    basis, every ``x(mu) = x* * exp(C^T mu)`` is complex balanced and
    positive by construction, and by Birch's theorem the class point
    minimizes the strictly convex ``F(mu) = sum x(mu) - mu . C c``, whose
    gradient ``C x(mu) - C c`` is the conservation residual.  Stage 2 runs
    Newton on F from ``mu = 0`` and scales each step d by
    ``t = min(1, 1 / |C^T d|_inf)``: for ``|s| <= 1``,
    ``e^s - 1 <= s + (e - 2) s^2``, so F falls by at least ``0.28 t``
    times the squared Newton decrement and no line search is needed.  Each
    iteration sums the gap, solves the Newton system once and steps; it
    has converged once ``|C x - C c| <= 1e-12 |C| (c + x)`` componentwise,
    a bound that covers the rounding of ``C x`` however large x grows, and
    that iteration takes the full step (t = 1) and stops.  Without
    conservation laws it converges at once, and its step is the zero move
    of an empty solve.  The bound is loose for a species that is small
    beside the others in its conservation laws, and the last step tightens
    it, though not always to rounding: on ``A + B <-> C`` at c = (10^e,
    10^e, 1), where x_A is about 10^(e/2) beside x_C near 10^e, x_A has a
    relative error of at most 8.1e-15 for e <= 26, 2.1e-11 at e = 28,
    1.6e-9 at e = 30 and 1.4e-3 at e = 32, and at e = 33 the Newton
    system is singular in floats.  The gap is summed exactly: a float sum
    rounds each law on its own, by up to eps times its largest term, and
    where laws cancel large species against each other that noise lands on
    the small ones.  A gap that is not a finite float (a conservation total
    of the class past the float range) raises ``ConvergenceError``, as does
    a singular Newton system.
    """
    anchor = _checked(c, net.num_species, "class anchor c", positive=True)
    x = complex_balanced_point(net)
    laws = structure_report(net).conservation_basis.vectors
    cons = np.array(laws, dtype=float).reshape(-1, net.num_species)
    terms = _binary_terms(laws)
    c_list = anchor.tolist()
    log_x = np.log(x)
    for iterations in range(_NEWTON_ITERATIONS + 1):
        x_list = x.tolist()
        try:
            gap = np.array([
                math.fsum([v for j, m in law for v in (x_list[j] * m, -c_list[j] * m)])
                for law in terms
            ])
        except (OverflowError, ValueError):  # the sum overflows, or meets inf - inf
            gap = np.array([math.inf])
        if not np.all(np.isfinite(gap)):
            raise ConvergenceError("a conservation total of the class leaves the float range")
        converged = np.all(np.abs(gap) <= 1e-12 * (np.abs(cons) @ (anchor + x)))
        if not converged and iterations == _NEWTON_ITERATIONS:
            raise ConvergenceError(
                f"Newton did not converge in {_NEWTON_ITERATIONS} iterations "
                f"(conservation residual {np.max(np.abs(gap)):.3e})"
            )
        # The Newton step in log x is C^T d with (C diag(x) C^T) d = -gap.  The
        # matrix is singular in floats once a species exceeds the others in a
        # conservation law by about 1 / eps, as their sum then rounds to the larger.
        try:
            move = cons.T @ np.linalg.solve((cons * x) @ cons.T, -gap)
        except np.linalg.LinAlgError:
            raise ConvergenceError(f"singular Newton system (x in [{x.min():.3g}, {x.max():.3g}])") from None
        log_x += (1.0 if converged else min(1.0, 1.0 / float(np.max(np.abs(move))))) * move
        x = np.exp(log_x)
        if converged:
            break

    residual = float(np.max(np.abs(rhs(net, MASS_ACTION, x))))
    return EquilibriumResult(
        x_bar=x,
        class_anchor=anchor,
        residual_rhs=residual,
        complex_balance_residual=complex_balance_residual(net, x),
        iterations=iterations,
    )


def persistence_margin(traj: Trajectory) -> float:
    """Smallest concentration over the trailing half of the recorded times.

    The window is the later half of the time span, not of the stored
    states: once the run switches to the Rosenbrock stepper, the states
    are crowded into the early transient.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    start = int(np.searchsorted(traj.times, 0.5 * traj.times[-1]))
    return float(np.min(traj.states[start:]))
