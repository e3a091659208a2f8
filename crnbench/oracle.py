"""Correctness checks for job outputs, independent of crncert.

Nothing here imports crncert: the checks rebuild what they need from the
generated network (``workloads.Net``) with numpy and scipy.

certify: deficiency and weak reversibility are recomputed (matrix rank,
strongly connected components); the minimal siphons are compared with the
closed form of the synthetic families or with a scan of all 2^m subsets
(m <= 12); every listed face must include each minimal siphon and its
status must be proven:

* ``DISCRETE``: an SVD rank test, rank R[:, W] == rank R, where R holds the
  reaction vectors;
* ``EMPTY_ALL_CLASSES``: the face is not discrete, and the separating
  witness y is checked exactly: y >= 0, y != 0, supported on W, R y = 0.
  By Gordan's alternative no vector of the span is then negative on W;
* ``INCONCLUSIVE``: the face is not discrete, and both witnesses are
  checked: a nonzero span vector vanishing on W, and a span vector
  negative on all of W.

The overall verdict must be GLOBALLY_STABLE exactly when the hypotheses
hold and no face is INCONCLUSIVE.

simulate: the equilibrium must match the complex-balanced point the
generator built in; the final state must agree with scipy's Radau within
``FINAL_RTOL``; the conservation residual, recomputed from the stored
states, must stay below ``CONSERVATION_TOL``; and the relative-entropy
Lyapunov function, recomputed against the known equilibrium, must not rise
by more than ``LYAPUNOV_SLACK``.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import null_space

from workloads import Net, weakly_reversible

RADAU_RTOL, RADAU_ATOL = 1e-8, 1e-10
EQUILIBRIUM_RTOL = 1e-6
FINAL_RTOL = 1e-6
CONSERVATION_TOL = 1e-9
LYAPUNOV_SLACK = 1e-9


class WrongOutput(Exception):
    """A job's output failed its correctness check."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


def _structure(net: Net, rank_r: int) -> tuple[int, bool]:
    """(deficiency, weakly reversible) from the complex graph."""
    complexes: dict = {}
    edges = []
    for src, prod, _ in net.reactions:
        a = complexes.setdefault(src, len(complexes))
        b = complexes.setdefault(prod, len(complexes))
        edges.append((a, b))
    n = len(complexes)
    linked = np.eye(n, dtype=bool)
    for a, b in edges:
        linked[a, b] = linked[b, a] = True
    for k in range(n):
        linked |= linked[:, [k]] & linked[[k], :]
    linkage_classes = len({tuple(row) for row in linked})
    return n - linkage_classes - rank_r, weakly_reversible(edges, n)


def minimal_siphons(net: Net) -> set[frozenset[str]]:
    """Closed form where the generator knows it, else a scan of all subsets."""
    if net.minimal_siphons is not None:
        return set(net.minimal_siphons)
    m = len(net.species)
    if m > 16:
        raise ValueError(f"no siphon oracle for {m} species")
    masks = np.arange(1, 1 << m, dtype=np.int64)
    semi = np.ones(masks.size, dtype=bool)
    for src, prod, _ in net.reactions:
        s = sum(1 << i for i, _ in src)
        p = sum(1 << i for i, _ in prod)
        semi &= ((masks & p) == 0) | ((masks & s) != 0)
    sizes = np.array([bin(w).count("1") for w in range(1, 1 << m)])[semi]
    candidates = masks[semi][np.argsort(sizes, kind="stable")]
    found = []
    while candidates.size:
        w = candidates[0]  # smallest left, so minimal; drop its supersets
        found.append(int(w))
        candidates = candidates[(candidates & w) != w]
    return {frozenset(net.species[i] for i in range(m) if w >> i & 1) for w in found}


def _in_span(r: np.ndarray, v: list[int], rank_r: int) -> bool:
    return int(np.linalg.matrix_rank(np.vstack([r, v]))) == rank_r


def check_certify(net: Net, doc: dict) -> None:
    r = net.stoichiometry()
    rank_r = int(np.linalg.matrix_rank(r))
    deficiency, wr = _structure(net, rank_r)
    _expect(doc["structure"]["deficiency"] == deficiency, "deficiency")
    _expect(doc["structure"]["weakly_reversible"] == wr, "weak reversibility")
    expected = minimal_siphons(net)
    got = {frozenset(e["species"]) for e in doc.get("siphons", [])}
    if not (wr and deficiency == 0):
        # The hypothesis exit need not enumerate siphons, but a list given must be right.
        _expect(not got or got == expected, "minimal siphons")
        _expect(doc["overall"] == "NOT_CERTIFIED" and not doc.get("verdicts"), "hypothesis exit")
        return
    _expect(got == expected, "minimal siphons")
    index = {name: i for i, name in enumerate(net.species)}
    faces = {frozenset(v["W"]): v for v in doc["verdicts"]}
    _expect(expected <= set(faces), "a minimal siphon's face has no verdict")
    r_int = r.astype(object)  # exact integer products for the witnesses
    inconclusive = False
    for w, verdict in faces.items():
        cols = sorted(index[name] for name in w)
        discrete = int(np.linalg.matrix_rank(r[:, cols])) == rank_r
        status = verdict["status"]
        witness = verdict.get("witness", {})
        if status == "DISCRETE":
            _expect(discrete, f"face {sorted(w)} claimed DISCRETE")
        elif status == "EMPTY_ALL_CLASSES":
            y = witness.get("separating")
            _expect(not discrete and y is not None, f"face {sorted(w)} claimed EMPTY")
            _expect(
                any(y)
                and all(v >= 0 for v in y)
                and all(y[i] == 0 for i in range(len(y)) if i not in cols)
                and not any(r_int @ np.array(y, dtype=object)),
                f"face {sorted(w)}: separating witness fails",
            )
        elif status == "INCONCLUSIVE":
            inconclusive = True
            z, s = witness.get("kernel"), witness.get("feasible")
            _expect(not discrete and z is not None and s is not None, f"face {sorted(w)} claimed INCONCLUSIVE")
            _expect(
                any(z) and all(z[i] == 0 for i in cols) and _in_span(r, z, rank_r),
                f"face {sorted(w)}: kernel witness fails",
            )
            _expect(
                all(s[i] < 0 for i in cols) and _in_span(r, s, rank_r),
                f"face {sorted(w)}: feasible witness fails",
            )
        else:
            raise WrongOutput(f"unknown face status {status!r}")
    want = "NOT_CERTIFIED" if inconclusive else "GLOBALLY_STABLE"
    _expect(doc["overall"] == want, f"overall verdict {doc['overall']}, expected {want}")


def mass_action(net: Net):
    """Right-hand side and Jacobian of the mass-action ODE, for the oracle."""
    m = len(net.species)
    src = np.zeros((len(net.reactions), m))
    for row, (s, _, _) in enumerate(net.reactions):
        for i, k in s:
            src[row, i] = k
    delta = net.stoichiometry().astype(float)
    rates = np.array([k for _, _, k in net.reactions])

    def f(_t, x):
        return (rates * np.prod(np.maximum(x, 0.0) ** src, axis=1)) @ delta

    def jac(_t, x):
        x = np.maximum(x, 1e-300)
        flux = rates * np.prod(x**src, axis=1)
        return delta.T @ (flux[:, None] * src / x)

    return f, jac


def check_simulate(net: Net, doc: dict, states: list, x_ref) -> None:
    x0 = np.array(net.x0)
    x_star = np.array(net.meta["x_star"])
    traj = np.array(states)
    _expect(traj.ndim == 2 and traj.shape[1] == x0.size, "stored states")
    _expect(np.array_equal(traj[0], x0), "first state is not the anchor")
    _expect(doc["steps"] == len(traj), "step count differs from stored states")
    _expect(x_ref is not None, "no equilibrium for a deficiency-zero network")
    _expect(
        np.all(np.abs(np.array(x_ref) - x_star) <= EQUILIBRIUM_RTOL * x_star),
        "equilibrium differs from the complex-balanced point",
    )
    f, jac = mass_action(net)
    ref = solve_ivp(f, (0.0, net.t_end), x0, method="Radau", jac=jac, rtol=RADAU_RTOL, atol=RADAU_ATOL)
    _expect(ref.success, "Radau oracle failed")
    final = np.array(doc["final_state"])
    _expect(np.array_equal(final, traj[-1]), "final state differs from the last stored state")
    scale = np.abs(ref.y[:, -1]) + np.max(np.abs(x0)) * 1e-3
    _expect(
        np.all(np.abs(final - ref.y[:, -1]) <= FINAL_RTOL * scale),
        f"final state differs from Radau by {np.max(np.abs(final - ref.y[:, -1]) / scale):.2e}",
    )
    laws = null_space(net.stoichiometry().astype(float))
    drift = float(np.max(np.abs((traj - x0) @ laws))) if laws.size else 0.0
    _expect(drift <= CONSERVATION_TOL * max(1.0, float(np.max(x0))), f"conservation drift {drift:.2e}")
    v = np.sum(traj * (np.log(traj) - np.log(x_star) - 1.0) + x_star, axis=1)
    rise = float(np.max(np.diff(v))) if v.size > 1 else 0.0
    _expect(rise <= LYAPUNOV_SLACK * (1.0 + abs(v[0])), f"Lyapunov function rose by {rise:.2e}")


def check(net: Net, kind: str, record: dict) -> None:
    """Raise WrongOutput unless the record holds a correct output for ``net``."""
    doc = json.loads(record["out"])
    if kind == "certify":
        check_certify(net, doc)
    else:
        check_simulate(net, doc, record["states"], record["x_ref"])
