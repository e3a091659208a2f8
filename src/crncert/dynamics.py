"""Numerical dynamics: kinetics, Lyapunov monitoring, integration, equilibria.

The structural modules are exact; this one is deliberately floating point.
Rates follow the monomial law (absent species contribute a factor 1, i.e.
``0**0 == 1``), or the generalized form where every concentration first
passes through a per-species monotone map ``theta``.

:func:`simulate` integrates with the explicit Fehlberg 4(5) pair until a
rejected step shows that stability, not accuracy, holds the step size, and
then with the L-stable Rosenbrock pair RODAS4 for the rest of the run, so
the step grows with the slow time scales once the fast ones have settled.

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
    if kinetics.is_mass_action:
        return x
    assert kinetics.theta is not None
    return np.array([th(float(v)) for th, v in zip(kinetics.theta, x)])


def _fluxes(form: NumericForm, u: np.ndarray) -> np.ndarray:
    # np.multiply.reduce is np.prod without its Python-level dispatch.
    return form.rates * np.multiply.reduce(u**form.exponents, axis=1)


def reaction_rates(net: ReactionNetwork, kinetics: KineticsSpec, x: Sequence[float]) -> np.ndarray:
    """Per-reaction fluxes at state x (monomials in the transformed state)."""
    return _fluxes(net.numeric, _transformed(np.asarray(x, dtype=float), kinetics))


def rhs(net: ReactionNetwork, kinetics: KineticsSpec, x: Sequence[float]) -> np.ndarray:
    """Species time derivative: sum of flux times net stoichiometry.

    Boundary states are allowed; a flux with any required input at zero is
    zero, and species absent from a source contribute a factor 1.
    """
    arr = np.asarray(x, dtype=float)
    if arr.shape != (net.num_species,):
        raise ValueError("state dimension differs from species count")
    if not (arr.min() >= 0 and arr.max() < math.inf):
        raise ValueError("state must be entrywise nonnegative and finite")
    return reaction_rates(net, kinetics, arr) @ net.numeric.stoichiometry


def jacobian(net: ReactionNetwork, kinetics: KineticsSpec, x: Sequence[float]) -> np.ndarray:
    """Derivative matrix of :func:`rhs` at x.

    Mass action uses exact monomial differentiation (valid on the boundary);
    generalized kinetics falls back to central differences since the theta
    handles carry no derivative information.
    """
    arr = np.asarray(x, dtype=float)
    m = net.num_species
    if arr.shape != (m,):
        raise ValueError("state dimension differs from species count")
    if not (arr.min() >= 0 and arr.max() < math.inf):
        raise ValueError("state must be entrywise nonnegative and finite")
    if not kinetics.is_mass_action:
        return _jacobian_fd(net, kinetics, arr)
    form = net.numeric
    e = form.exponents
    # factors[r, j] is the monomial of reaction r with x_j**e replaced by
    # e * x_j**(e - 1); clipping e - 1 at 0 keeps x_j = 0 exact (0**0 == 1).
    factors = np.repeat((arr**e)[:, None, :], m, axis=1)
    factors[:, range(m), range(m)] = e * arr ** np.maximum(e - 1.0, 0.0)
    grad = np.where(e != 0.0, form.rates[:, None] * np.prod(factors, axis=2), 0.0)
    return np.sum(grad[:, None, :] * form.stoichiometry[:, :, None], axis=0, initial=0.0)


def _jacobian_fd(net: ReactionNetwork, kinetics: KineticsSpec, x: np.ndarray) -> np.ndarray:
    m = x.size
    jac = np.zeros((m, m))
    for j in range(m):
        h = 1e-6 * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        if x[j] - h >= 0:
            xm = x.copy()
            xm[j] -= h
            jac[:, j] = (rhs(net, kinetics, xp) - rhs(net, kinetics, xm)) / (2 * h)
        else:
            jac[:, j] = (rhs(net, kinetics, xp) - rhs(net, kinetics, x)) / h
    return jac


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

    Mass action: ``sum x_i (ln x_i - ln xbar_i - 1) + xbar_i`` with gradient
    ``ln x_i - ln xbar_i``.  Generalized kinetics integrates
    ``ln theta_i(s) - ln theta_i(xbar_i)`` from ``xbar_i`` to ``x_i`` by
    adaptive Simpson quadrature.
    """
    xa = np.asarray(x, dtype=float)
    xb = np.asarray(x_bar, dtype=float)
    if np.any(xa <= 0) or np.any(xb <= 0):
        raise ValueError("lyapunov arguments must be entrywise positive")
    if kinetics.is_mass_action:
        return float(_relative_entropy(xa, xb)), np.log(xa) - np.log(xb)
    assert kinetics.theta is not None
    value = 0.0
    grad = np.zeros_like(xa)
    for i, th in enumerate(kinetics.theta):
        rho_bar = math.log(th(float(xb[i])))
        value += _adaptive_simpson(
            lambda s, th=th, rb=rho_bar: math.log(th(s)) - rb,
            float(xb[i]),
            float(xa[i]),
            _QUAD_TOL,
        )
        grad[i] = math.log(th(float(xa[i]))) - rho_bar
    return value, grad


@dataclass(frozen=True)
class IntegrationStats:
    """What one :func:`simulate` run spent, by stepper and by cause.

    ``switch_time`` is the time at which the run handed over from the
    explicit Fehlberg stepper to the implicit Rosenbrock one, ``None`` when
    it never did.  Rejections count the attempts of both steppers;
    ``rhs_evaluations`` counts the steppers' evaluations of the vector
    field, not those of a difference-quotient Jacobian.
    """

    fehlberg_steps: int
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
    array = np.array(table)
    array.setflags(write=False)
    return array


# Fehlberg 4(5) tableau.  Stage s is evaluated at x + h * (_RKF_A[s, :s] @ K[:s]),
# row j of K holding stage j.  Row 0 of _RKF_B holds the fifth-order weights
# and row 1 their difference from the fourth-order weights
# (25/216, 0, 1408/2565, 2197/4104, -1/5, 0), so h * (_RKF_B @ K) stacks the
# step's increment over its error estimate.
_RKF_A = _frozen(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 4, 0.0, 0.0, 0.0, 0.0],
        [3 / 32, 9 / 32, 0.0, 0.0, 0.0],
        [1932 / 2197, -7200 / 2197, 7296 / 2197, 0.0, 0.0],
        [439 / 216, -8.0, 3680 / 513, -845 / 4104, 0.0],
        [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40],
    ]
)
_RKF_B = _frozen(
    [
        [16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55],
        [1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55],
    ]
)
# Fehlberg's stability interval on the negative real axis is about
# [-3.68, 0].  When a step is rejected, for its error or for leaving the
# orthant, with h * rho(J) above this bound, the step size is held by
# stability, not accuracy, and the run hands over to the Rosenbrock stepper.
_STIFF_BOUND = 3.0

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

# The run ends once less than _H_FLOOR remains to t_end.
_H_FLOOR = 1e-14
# Step attempts one simulate call may make before it raises IntegrationError.
MAX_STEPS = 2_000_000


def _fehlberg_step(
    f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float, stages: np.ndarray
) -> Optional[np.ndarray]:
    """One Fehlberg attempt from x, ``stages[0]`` holding f(x).

    Returns the step's increment stacked over its error estimate, or None
    when a stage state leaves the orthant.
    """
    for s in range(1, 6):
        xs = x + h * (_RKF_A[s, :s] @ stages[:s])
        if xs.min() < 0:
            return None
        stages[s] = f(xs)
    return h * (_RKF_B @ stages)


def _rosenbrock_step(
    f: Callable[[np.ndarray], np.ndarray],
    fx: np.ndarray,
    jac_x: np.ndarray,
    x: np.ndarray,
    h: float,
    stages: np.ndarray,
) -> Optional[np.ndarray]:
    """One RODAS4 attempt from x, given f(x) and the Jacobian at x.

    Returns what :func:`_fehlberg_step` returns; raises ``LinAlgError``
    when W is singular.
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
    """Integrate the network ODE: explicit Fehlberg 4(5), then RODAS4 once stiff.

    The run starts with the explicit Fehlberg stepper.  After each step it
    rejects, for its error or for leaving the orthant, the Jacobian J at
    the current state bounds the spectral radius rho; when ``h * rho``
    exceeds ``_STIFF_BOUND`` the step is held by stability, not accuracy,
    and the run switches, once, to the L-stable Rosenbrock pair RODAS4,
    which inverts ``W = I / (h gamma) - J`` once per step, and retries the
    step with it.  Accepted Fehlberg steps cost no Jacobian.  J is exact
    for mass action and central differences otherwise.  Each stepper fills
    the rows of one preallocated stage array and applies its tableau as
    matrix products.  Inputs are validated once, here; inside the loop the
    kinetics are evaluated straight from ``net.numeric`` (generalized
    kinetics through :func:`reaction_rates`).  Other steps whose stages or
    proposed state leave the positive orthant are retried at half the step; a
    non-finite error estimate or a singular W aborts the run, as does a
    step too small to advance t or more than ``MAX_STEPS`` attempts of the
    two steppers together.  Every accepted state is recorded; once the loop
    ends, the Lyapunov value (when ``x_ref`` is given) and the worst
    conservation-law drift relative to the initial state are computed over
    the stored states.  ``Trajectory.stats`` counts the run's steps,
    rejections and evaluations.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (net.num_species,):
        raise ValueError("initial state dimension differs from species count")
    if not (x.min() > 0 and x.max() < math.inf):
        raise ValueError("initial state x0 must be entrywise positive and finite")
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0 <= tol < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite")
    if rtol == atol == 0:
        raise ValueError("atol must be positive when rtol is 0")
    ref = None if x_ref is None else np.asarray(x_ref, dtype=float)
    if ref is not None and not (ref.shape == x.shape and ref.min() > 0 and ref.max() < math.inf):
        raise ValueError("reference state x_ref must be entrywise positive and finite")

    form = net.numeric
    stoichiometry = form.stoichiometry
    evaluations = 0
    if kinetics.is_mass_action:

        def f(state: np.ndarray) -> np.ndarray:
            nonlocal evaluations
            evaluations += 1
            return _fluxes(form, state) @ stoichiometry

        def jac(state: np.ndarray) -> np.ndarray:
            # Exact at a positive state: d flux_r / d x_j = flux_r * e_rj / x_j.
            # Column j is divided by x_j last, so a tiny x_j cannot overflow.
            return (stoichiometry.T * _fluxes(form, state)) @ form.exponents / state

    else:

        def f(state: np.ndarray) -> np.ndarray:
            nonlocal evaluations
            evaluations += 1
            return reaction_rates(net, kinetics, state) @ stoichiometry

        def jac(state: np.ndarray) -> np.ndarray:
            return _jacobian_fd(net, kinetics, state)

    size = x.size
    stages = np.empty((6, size))
    fx = stages[0] = f(x)
    times = [0.0]
    states = [x]
    t = 0.0
    h = min(t_end, 0.01 * (1.0 + float(np.max(x))) / (1.0 + float(np.max(np.abs(fx)))))
    steps = rejected_error = rejected_positivity = jacobians = 0
    accepted = [0, 0]  # by stepper: Fehlberg, Rosenbrock
    stiff = False
    switch_time = None
    jac_x = None  # the Jacobian at x, while the Rosenbrock stepper needs it
    while t < t_end:
        remaining = t_end - t
        if remaining < _H_FLOOR:
            break  # endpoint reached to within step resolution
        if steps >= MAX_STEPS:
            raise IntegrationError(f"exceeded {MAX_STEPS} steps at t={t}")
        steps += 1
        if t + h == t:
            raise IntegrationError(f"step size underflow at t={t}")
        h = min(h, remaining)

        if not stiff:
            step = _fehlberg_step(f, x, h, stages)
        else:
            if jac_x is None:
                jac_x = jac(x)
                jacobians += 1
            try:
                step = _rosenbrock_step(f, fx, jac_x, x, h, stages)
            except np.linalg.LinAlgError:
                raise IntegrationError(f"singular Rosenbrock matrix at t={t}") from None
        # A NaN in a stage or in x5 passes the sign tests on purpose: it
        # reaches the error estimate, which is then non-finite.
        if step is not None:
            increment, error = step
            x5 = x + increment
        if step is None or x5.min() <= 0:
            rejected_positivity += 1
            factor = 0.5
        else:
            scaled = error / (atol + rtol * np.maximum(x, x5))
            err = math.sqrt(float(scaled @ scaled) / size)
            if not math.isfinite(err):
                raise IntegrationError(f"non-finite state at t={t}")
            # One over the order of the embedded solution plus one.
            exponent = -0.25 if stiff else -0.2
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**exponent))
            if err <= 1.0:
                t += h
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
            fehlberg_steps=accepted[0],
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
    that covers the rounding of ``C x`` however large x grows.
    """
    anchor = np.asarray(c, dtype=float)
    if anchor.shape != (net.num_species,):
        raise ValueError("class anchor dimension differs from species count")
    if not (anchor.min() > 0 and anchor.max() < math.inf):
        raise ValueError("class anchor c must be entrywise positive and finite")
    x = complex_balanced_point(net)
    cons = np.array(conservation_basis(net).vectors, dtype=float).reshape(-1, net.num_species)
    target = cons @ anchor
    log_x = np.log(x)
    for iterations in range(_NEWTON_ITERATIONS + 1):
        gap = cons @ x - target
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
