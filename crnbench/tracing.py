"""Outside-in layer tracing: spans around crncert's public functions.

Each target function is replaced, in every crncert module namespace that
holds it, by a wrapper that records a span (name, start, end, parent, job).
Spans stay in memory until the run ends.  Self time is a span's duration
minus the time its child spans cover.  A target that no longer exists is
reported as absent, so the benchmark keeps running when a later version of
the program deletes or renames it.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

import numpy as np

# (span name, module, attribute, name and getter of a count taken from the
# call's result, or None)
TARGETS: list[tuple[str, str, str, Optional[tuple[str, Callable]]]] = [
    ("network.parse", "crncert.network", "parse_network", None),
    ("structure.report", "crncert.structure", "structure_report", None),
    ("ratlin.rref", "crncert.ratlin", "rref", None),
    ("ratlin.nullspace", "crncert.ratlin", "nullspace", None),
    ("ratlin.solve_le", "crncert.ratlin", "solve_le", None),
    ("siphons.minimal", "crncert.siphons", "minimal_semi_locking_sets", ("minimal", lambda r: len(r.entries))),
    ("certify.certify", "crncert.certify", "certify", ("faces", lambda r: len(r.verdicts))),
    ("certify.kernel", "crncert.certify", "check_discrete", None),
    ("certify.lp", "crncert.certify", "check_empty_all_classes", None),
    ("certify.to_json", "crncert.certify", "Certificate.to_json_dict", None),
    # Every accepted state is stored, so the count is steps accepted + 1.
    ("dynamics.simulate", "crncert.dynamics", "simulate", ("stored", lambda r: len(r.times))),
    ("dynamics.rhs", "crncert.dynamics", "rhs", None),
    ("dynamics.lyapunov", "crncert.dynamics", "lyapunov", None),
    ("dynamics.jacobian", "crncert.dynamics", "jacobian", None),
    ("dynamics.equilibrium", "crncert.dynamics", "find_equilibrium", ("newton", lambda r: r.iterations)),
    ("dynamics.complex_balance", "crncert.dynamics", "complex_balanced_point", None),
]
COUNT_NAMES = {name: count[0] for name, _, _, count in TARGETS if count}

JOB = "job"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.counts: list[Optional[int]] = []
        self.stack: list[int] = []
        self.job = -1
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job)
        self.counts.append(None)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def run_job(self, job: int, fn: Callable, *args):
        """Call ``fn(*args)`` inside a root span for one job."""
        self.job = job
        idx = self._open(JOB)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrapper(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                try:
                    self.counts[idx] = int(count(result))
                except (AttributeError, TypeError):
                    self.uncounted.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at each crncert namespace that refers to it."""
        modules = [m for k, m in sys.modules.items() if k == "crncert" or k.startswith("crncert.")]
        for name, module_name, attr, count in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrapper(name, original, count and count[1])
            if path:
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: object, key: str, value: object) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write_csv(self, path: str) -> None:
        """One line per span: name, start, end, parent index, job, result count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job,count\n")
            for name, start, end, parent, job, count in zip(
                self.names, self.starts, self.ends, self.parents, self.jobs, self.counts
            ):
                fh.write(f"{name},{start!r},{end!r},{parent},{job},{'' if count is None else count}\n")

    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """Array view of the recorded spans with derived self times."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = np.array(tracer.names, dtype=object)
        self.parents = np.array(tracer.parents, dtype=np.int64)
        self.jobs = np.array(tracer.jobs, dtype=np.int64)
        self.counts = np.array([-1 if c is None else c for c in tracer.counts], dtype=np.int64)
        duration = np.array(tracer.ends) - np.array(tracer.starts)
        covered = np.zeros(len(duration))
        has_parent = self.parents >= 0
        np.add.at(covered, self.parents[has_parent], duration[has_parent])
        self.duration = duration
        self.self_time = duration - covered


def layer_metrics(spans: Spans, jobs: set[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of the given jobs: name -> (value, unit)."""
    keep = np.isin(spans.jobs, list(jobs))
    names = spans.names[keep]
    self_time = spans.self_time[keep]
    counts = spans.counts[keep]
    parent_names = np.where(
        spans.parents[keep] >= 0, spans.names[np.maximum(spans.parents[keep], 0)], ""
    )

    def sel(name: str) -> np.ndarray:
        return names == name

    def self_s(name: str) -> float:
        return float(self_time[sel(name)].sum())

    def calls(name: str) -> int:
        return int(sel(name).sum())

    def total(name: str) -> int:
        return int(counts[sel(name) & (counts >= 0)].sum())

    faces = total("certify.certify")
    minimal = total("siphons.minimal")
    rhs_calls = calls("dynamics.rhs")
    stored = counts[sel("dynamics.simulate") & (counts >= 0)]
    steps = int((stored - 1).sum())
    rhs_in_sim = int((sel("dynamics.rhs") & (parent_names == "dynamics.simulate")).sum())
    return {
        "network.parse_s": (self_s("network.parse"), "s"),
        "structure.report_s": (self_s("structure.report"), "s"),
        "structure.report_calls": (calls("structure.report"), "count"),
        "ratlin.rref_s": (self_s("ratlin.rref"), "s"),
        "ratlin.rref_calls": (calls("ratlin.rref"), "count"),
        "ratlin.nullspace_s": (self_s("ratlin.nullspace"), "s"),
        "ratlin.solve_le_s": (self_s("ratlin.solve_le"), "s"),
        "ratlin.solve_le_calls": (calls("ratlin.solve_le"), "count"),
        "siphons.minimal_s": (self_s("siphons.minimal"), "s"),
        "siphons.minimal_found": (minimal, "count"),
        "certify.self_s": (self_s("certify.certify"), "s"),
        "certify.faces_checked": (faces, "count"),
        "certify.faces_per_minimal": (faces / minimal if minimal else 0.0, "ratio"),
        "certify.kernel_s": (self_s("certify.kernel"), "s"),
        "certify.kernel_calls": (calls("certify.kernel"), "count"),
        "certify.lp_s": (self_s("certify.lp"), "s"),
        "certify.lp_calls": (calls("certify.lp"), "count"),
        "certify.to_json_s": (self_s("certify.to_json"), "s"),
        "dynamics.simulate_self_s": (self_s("dynamics.simulate"), "s"),
        "dynamics.rhs_s": (self_s("dynamics.rhs"), "s"),
        "dynamics.rhs_calls": (rhs_calls, "count"),
        "dynamics.rhs_us": (1e6 * self_s("dynamics.rhs") / rhs_calls if rhs_calls else 0.0, "us"),
        "dynamics.steps_accepted": (steps, "count"),
        "dynamics.rhs_per_step": (rhs_in_sim / steps if steps else 0.0, "ratio"),
        "dynamics.lyapunov_s": (self_s("dynamics.lyapunov"), "s"),
        "dynamics.jacobian_s": (self_s("dynamics.jacobian"), "s"),
        "dynamics.jacobian_calls": (calls("dynamics.jacobian"), "count"),
        "dynamics.equilibrium_s": (self_s("dynamics.equilibrium"), "s"),
        "dynamics.complex_balance_s": (self_s("dynamics.complex_balance"), "s"),
        "dynamics.newton_iterations": (total("dynamics.equilibrium"), "count"),
        "dynamics.stored_states": (int(stored.max()) if stored.size else 0, "count"),
    }


def job_breakdown(spans: Spans, job: int) -> dict[str, float]:
    """Inclusive seconds per span name, and the result counts, for one job."""
    keep = spans.jobs == job
    out: dict[str, float] = {}
    for name, dur, count in zip(spans.names[keep], spans.duration[keep], spans.counts[keep]):
        out[name + "_s"] = out.get(name + "_s", 0.0) + float(dur)
        if count >= 0:
            out[COUNT_NAMES[name]] = out.get(COUNT_NAMES[name], 0) + int(count)
    return out
