"""Numerical dynamics: kinetics, Lyapunov monitoring, integration, equilibria.

The structural modules are exact; this one is deliberately floating point.
Every rate is a monomial in ``u = theta(x)`` (absent species contribute a
factor 1, i.e. ``0**0 == 1``), ``theta`` being the identity for mass action
and a per-species monotone map for generalized kinetics.  So each numeric
routine has one path, and the Jacobians scale by ``d theta / dx``.

:func:`simulate` integrates with the explicit Dormand-Prince 8(5,3) pair
DOP853 until a rejected step shows that stability, not accuracy, holds the
step size, and then with the L-stable Rosenbrock pair RODAS4 for the rest of
the run, so the step grows with the slow time scales once the fast ones have
settled.

:func:`find_equilibrium` gets a complex-balanced point from tree constants
that GTH elimination computes to a small relative error, and then the class
equilibrium by Newton on a convex function whose iterates are positive by
construction, so equilibrium constants far from 1 do not break it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .network import NumericForm, ReactionNetwork
from .structure import conservation_basis, structure_report


class HypothesesError(ValueError):
    """Network fails the structural hypotheses an operation requires."""


class IntegrationError(RuntimeError):
    """Adaptive stepper could not continue (step underflow, bad state)."""


class ConvergenceError(RuntimeError):
    """Equilibrium iteration did not converge; message carries diagnostics."""


@dataclass(frozen=True)
class KineticsSpec:
    """Kinetics selector: plain monomials (no ``theta``) or theta-transformed monomials."""

    theta: Optional[tuple[Callable[[float], float], ...]] = None

    @property
    def is_mass_action(self) -> bool:
        return self.theta is None


MASS_ACTION = KineticsSpec()


def generalized_kinetics(
    theta: Callable[[float], float] | Sequence[Callable[[float], float]],
    num_species: int,
) -> KineticsSpec:
    """Build a generalized kinetics spec and spot-check admissibility.

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
    return KineticsSpec(thetas)


def _transformed(x: np.ndarray, kinetics: KineticsSpec) -> np.ndarray:
    """u = theta(x); ``ValueError`` unless theta holds one map per entry of x."""
    if kinetics.theta is None:
        return x
    if len(kinetics.theta) != x.size:
        raise ValueError(
            f"kinetics has {len(kinetics.theta)} theta maps for a state of {x.size} species"
        )
    return np.array([th(float(v)) for th, v in zip(kinetics.theta, x)])


def _slopes(x: np.ndarray, kinetics: KineticsSpec) -> np.ndarray | float:
    """``d theta_j / d x_j`` at x, by which the chain rule scales column j.

    Mass action gives 1.0, which changes no bit; generalized kinetics take
    central quotients with ``h = 1e-6 max(1, |x_j|)``, forward ones where
    ``x_j - h < 0``, so theta never sees a negative argument.
    """
    if kinetics.theta is None:
        return 1.0
    slopes = np.empty(x.size)
    for j, (th, v) in enumerate(zip(kinetics.theta, x.tolist())):
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
        raise ValueError(f"{name} must be entrywise {sign} and finite, one entry per species ({m})")
    return arr


def _fluxes(form: NumericForm, u: np.ndarray) -> np.ndarray:
    # np.multiply.reduce is np.prod without its Python-level dispatch.
    return form.rates * np.multiply.reduce(u**form.exponents, axis=1)


def reaction_rates(net: ReactionNetwork, kinetics: KineticsSpec, x: Sequence[float]) -> np.ndarray:
    """Per-reaction fluxes at state x (monomials in the transformed state)."""
    arr = _checked(x, net.num_species, "state", positive=False)
    return _fluxes(net.numeric, _transformed(arr, kinetics))


def rhs(net: ReactionNetwork, kinetics: KineticsSpec, x: Sequence[float]) -> np.ndarray:
    """Species time derivative: sum of flux times net stoichiometry.

    Boundary states are allowed; a flux with any required input at zero is
    zero, and species absent from a source contribute a factor 1.
    """
    return reaction_rates(net, kinetics, x) @ net.numeric.stoichiometry


def jacobian(net: ReactionNetwork, kinetics: KineticsSpec, x: Sequence[float]) -> np.ndarray:
    """Derivative matrix of :func:`rhs` at x.

    Exact monomial differentiation in ``u = theta(x)``, valid on the
    boundary, times ``d theta_j / d x_j`` on column j (the chain rule).
    """
    arr = _checked(x, net.num_species, "state", positive=False)
    u = _transformed(arr, kinetics)
    m = arr.size
    form = net.numeric
    e = form.exponents
    # factors[r, j] is the monomial of reaction r with u_j**e replaced by
    # e * u_j**(e - 1); clipping e - 1 at 0 keeps u_j = 0 exact (0**0 == 1).
    factors = np.repeat((u**e)[:, None, :], m, axis=1)
    factors[:, range(m), range(m)] = e * u ** np.maximum(e - 1.0, 0.0)
    grad = np.where(e != 0.0, form.rates[:, None] * np.prod(factors, axis=2), 0.0)
    jac = np.sum(grad[:, None, :] * form.stoichiometry[:, :, None], axis=0, initial=0.0)
    return jac * _slopes(arr, kinetics)


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
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
    return recurse(a, b, fa, fm, fb, whole, tol, 40)


def _relative_entropy(x: np.ndarray, x_bar: np.ndarray) -> np.ndarray:
    # Mass-action V over the last axis: one state, or a stack of states.
    return np.sum(x * (np.log(x) - np.log(x_bar) - 1.0) + x_bar, axis=-1)


# Error bound of the adaptive quadrature behind generalized-kinetics V.
_QUAD_TOL = 1e-10


def lyapunov(
    x: Sequence[float],
    x_bar: Sequence[float],
    kinetics: KineticsSpec = MASS_ACTION,
) -> tuple[float, np.ndarray]:
    """Relative-entropy Lyapunov value and gradient at x for reference x_bar.

    The gradient is ``ln u_i - ln ubar_i`` with ``u = theta(x)``.  The value
    is ``sum x_i (ln x_i - ln xbar_i - 1) + xbar_i`` for mass action;
    generalized kinetics integrate ``ln theta_i(s) - ln theta_i(xbar_i)``
    from ``xbar_i`` to ``x_i`` by adaptive Simpson quadrature.
    """
    xb = _checked(x_bar, np.size(x_bar), "x_bar", positive=True)
    xa = _checked(x, xb.size, "x", positive=True)
    log_ub = np.log(_transformed(xb, kinetics))
    grad = np.log(_transformed(xa, kinetics)) - log_ub
    if kinetics.is_mass_action:
        return float(_relative_entropy(xa, xb)), grad
    assert kinetics.theta is not None
    value = 0.0
    for th, rb, lo, hi in zip(kinetics.theta, log_ub.tolist(), xb.tolist(), xa.tolist()):
        value += _adaptive_simpson(lambda s, th=th, rb=rb: math.log(th(s)) - rb, lo, hi, _QUAD_TOL)
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
    """Accepted integrator states with Lyapunov and conservation diagnostics."""

    times: np.ndarray
    states: np.ndarray
    lyapunov: Optional[np.ndarray]
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
# W U_s = f(x + _ROS_A[s, :s] @ U[:s]) + (_ROS_C[s, :s] / h) @ U[:s].
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


def _dop853_step(
    f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float, stages: np.ndarray
) -> Optional[np.ndarray]:
    """One DOP853 attempt from x, ``stages[0]`` holding f(x).

    Returns the step's increment stacked over its fifth- and third-order
    error estimates, or None when a stage state leaves the orthant.
    """
    for s in range(1, 12):
        xs = x + h * (_DOP_A[s, :s] @ stages[:s])
        if xs.min() < 0:
            return None
        stages[s] = f(xs)
    return h * (_DOP_B @ stages)


def _rosenbrock_step(
    f: Callable[[np.ndarray], np.ndarray],
    fx: np.ndarray,
    jac_x: np.ndarray,
    x: np.ndarray,
    h: float,
    stages: np.ndarray,
) -> Optional[np.ndarray]:
    """One RODAS4 attempt from x, given f(x) and the Jacobian at x.

    Returns the step's increment stacked over its error estimate, or None
    when a stage state leaves the orthant; raises ``LinAlgError`` when W is
    singular.
    """
    w_inv = np.linalg.inv(np.eye(x.size) / (h * _ROS_GAMMA) - jac_x)
    stages[0] = w_inv @ fx
    for s in range(1, 6):
        xs = x + _ROS_A[s, :s] @ stages[:s]
        if xs.min() < 0:
            return None
        stages[s] = w_inv @ (f(xs) + (_ROS_C[s, :s] / h) @ stages[:s])
    return _ROS_B @ stages


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
    RODAS4, which inverts ``W = I / (h gamma) - J`` once per step, and
    retries the step with it.  Accepted DOP853 steps cost no Jacobian.  J is
    the exact derivative in ``u = theta(x)`` times the slopes of theta, as
    in :func:`jacobian`.  Each stepper fills the rows of one preallocated
    stage array and applies its tableau as matrix products.  Inputs are
    validated once, here; inside the loop the kinetics are evaluated
    straight from ``net.numeric``.  Other steps whose stages or
    proposed state leave the positive orthant are retried at half the step;
    a non-finite error estimate or a singular W aborts the run, as does a
    step too small to advance t or more than ``MAX_STEPS`` attempts of the
    two steppers together.  The last step is clipped to end exactly at
    ``t_end``.  Every accepted state is recorded; once the loop ends, the
    Lyapunov value (when ``x_ref`` is given) and the worst conservation-law
    drift relative to the initial state are computed over the stored states.
    ``Trajectory.stats`` counts the run's steps, rejections and evaluations.
    """
    x = _checked(x0, net.num_species, "initial state x0", positive=True)
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0 <= tol < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite")
    if rtol == atol == 0:
        raise ValueError("atol must be positive when rtol is 0")
    ref = None if x_ref is None else _checked(x_ref, x.size, "reference state x_ref", positive=True)

    form = net.numeric
    stoichiometry = form.stoichiometry
    evaluations = 0

    def f(state: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return _fluxes(form, _transformed(state, kinetics)) @ stoichiometry

    def jac(state: np.ndarray) -> np.ndarray:
        # Exact at a positive state: d flux_r / d u_j = flux_r * e_rj / u_j.
        # Column j is divided by u_j last, so a tiny u_j cannot overflow.
        u = _transformed(state, kinetics)
        return (stoichiometry.T * _fluxes(form, u)) @ form.exponents / u * _slopes(state, kinetics)

    size = x.size
    stages = np.empty((12, size))
    rosenbrock_stages = stages[:6]
    fx = stages[0] = f(x)
    times = [0.0]
    states = [x]
    t = 0.0
    h = min(t_end, 0.01 * (1.0 + float(np.max(x))) / (1.0 + float(np.max(np.abs(fx)))))
    steps = rejected_error = rejected_positivity = jacobians = 0
    accepted = [0, 0]  # by stepper: DOP853, Rosenbrock
    stiff = False
    switch_time = None
    jac_x = None  # the Jacobian at x, while the Rosenbrock stepper needs it
    while t < t_end:
        if steps >= MAX_STEPS:
            raise IntegrationError(f"exceeded {MAX_STEPS} steps at t={t}")
        steps += 1
        if t + h == t:
            raise IntegrationError(f"step size underflow at t={t}")
        remaining = t_end - t
        h = min(h, remaining)

        if not stiff:
            step = _dop853_step(f, x, h, stages)
        else:
            if jac_x is None:
                jac_x = jac(x)
                jacobians += 1
            try:
                step = _rosenbrock_step(f, fx, jac_x, x, h, rosenbrock_stages)
            except np.linalg.LinAlgError:
                raise IntegrationError(f"singular Rosenbrock matrix at t={t}") from None
        # A NaN in a stage or in x5 passes the sign tests on purpose: it
        # reaches the error estimate, which is then non-finite.
        if step is not None:
            x5 = x + step[0]
        if step is None or x5.min() <= 0:
            rejected_positivity += 1
            factor = 0.5
        else:
            scaled = step[1:] / (atol + rtol * np.maximum(x, x5))
            if stiff:
                err = math.sqrt(float(scaled[0] @ scaled[0]) / size)
            else:
                # Hairer's combined norm e5^2 / sqrt(e5^2 + e3^2 / 100): for
                # small h it is about 10 e5 * (e5 / e3), of order h^6 * h^2.
                n5 = float(scaled[0] @ scaled[0])
                n3 = float(scaled[1] @ scaled[1])
                err = n5 / math.sqrt((n5 + 0.01 * n3) * size) if n5 else 0.0
            if not math.isfinite(err):
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
                fx = f(x)
                if stiff:
                    jac_x = None
                else:
                    stages[0] = fx
                h *= factor
                continue
            rejected_error += 1
        if not stiff:
            # A rejected explicit step, for its error or its sign: the largest
            # absolute row sum of J bounds its spectral radius.
            jac_x = jac(x)
            jacobians += 1
            if h * float(np.max(np.sum(np.abs(jac_x), axis=1))) > _STIFF_BOUND:
                stiff = True
                switch_time = t
                continue  # retry the same step with the stable stepper
            jac_x = None
        h *= factor

    path = np.array(states)
    if ref is None:
        values = None
    elif kinetics.is_mass_action:
        values = _relative_entropy(path, ref)
    else:
        values = np.array([lyapunov(state, ref, kinetics)[0] for state in path])
    cons = conservation_basis(net)
    if cons.vectors:
        w_mat = np.array(cons.vectors, dtype=float)
        residuals = np.max(np.abs((path - path[0]) @ w_mat.T), axis=1)
    else:
        residuals = np.zeros(len(path))
    return Trajectory(
        times=np.array(times),
        states=path,
        lyapunov=values,
        conservation_residual=residuals,
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
    for i in range(len(traj)):
        v = traj.lyapunov[i] if traj.lyapunov is not None else float("nan")
        row = [repr(float(traj.times[i]))]
        row += [repr(float(s)) for s in traj.states[i]]
        row += [repr(float(v)), repr(float(traj.conservation_residual[i]))]
        fh.write(",".join(row) + "\n")


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
    n = len(net.complexes)
    q = np.zeros((n, n))
    np.add.at(q, (form.source, form.product), form.rates)
    kappa = np.zeros(n)
    indicator = np.zeros((n, len(report.linkage_classes)))
    # Out of the float range the elimination gives inf, 0 or nan and exp
    # gives inf or 0; the check below turns each into a typed error.
    with np.errstate(all="ignore"):
        for b_idx, block in enumerate(report.linkage_classes):
            kappa[list(block)] = _tree_constants(q[np.ix_(block, block)])
            indicator[list(block), b_idx] = 1.0
        x_star = kappa
        if kappa.min() > 0 and kappa.max() < math.inf:
            system = np.hstack([form.complex_matrix, -indicator])
            solution, *_ = np.linalg.lstsq(system, np.log(kappa), rcond=None)
            x_star = np.exp(solution[: net.num_species])
    if not (x_star.min() > 0 and x_star.max() < math.inf):
        raise ConvergenceError(
            "the complex-balanced point leaves the float range "
            f"(rates span {form.rates.min():.3g} to {form.rates.max():.3g})"
        )
    return x_star


def complex_balance_residual(net: ReactionNetwork, x: Sequence[float]) -> float:
    """Relative worst-case gap between inflow and outflow over all complexes."""
    form = net.numeric
    rates = reaction_rates(net, MASS_ACTION, x)
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
    times the squared Newton decrement and no line search is needed.  It
    stops once ``|C x - C c| <= 1e-12 |C| (c + x)`` componentwise, a bound
    that covers the rounding of ``C x`` however large x grows, then takes
    one more full Newton step.  The bound is loose for a species that is
    small beside the others in its conservation laws (its relative error
    may still be 1e-9); Newton's quadratic convergence takes that final
    step down to rounding.  The gap is summed exactly: a float sum
    rounds each law on its own, by up to eps times its largest term, and
    where laws cancel large species against each other that noise lands on
    the small ones.
    """
    anchor = _checked(c, net.num_species, "class anchor c", positive=True)
    x = complex_balanced_point(net)
    laws = conservation_basis(net).vectors
    cons = np.array(laws, dtype=float).reshape(-1, net.num_species)
    terms = _binary_terms(laws)
    c_list = anchor.tolist()
    log_x = np.log(x)
    for iterations in range(_NEWTON_ITERATIONS + 1):
        x_list = x.tolist()
        gap = np.array([
            math.fsum([v for j, m in law for v in (x_list[j] * m, -c_list[j] * m)]) for law in terms
        ])
        if np.all(np.abs(gap) <= 1e-12 * (np.abs(cons) @ (anchor + x))):
            break
        if iterations == _NEWTON_ITERATIONS:
            raise ConvergenceError(
                f"Newton did not converge in {_NEWTON_ITERATIONS} iterations "
                f"(conservation residual {np.max(np.abs(gap)):.3e})"
            )
        move = cons.T @ np.linalg.solve((cons * x) @ cons.T, -gap)
        log_x += min(1.0, 1.0 / float(np.max(np.abs(move)))) * move
        x = np.exp(log_x)
    if len(cons):
        log_x += cons.T @ np.linalg.solve((cons * x) @ cons.T, -gap)
        x = np.exp(log_x)

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
