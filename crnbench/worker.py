"""Measured process of the benchmark: runs one workload against crncert.

Started by ``run.py``, which pins the thread pools, checks the outputs and
prints the metrics.  This process imports crncert from ``<root>/src``,
times a set-up (import plus one warm-up job), then runs passes over the
job list, each pass with fresh variants of its networks, until
``--seconds`` have been measured or the workload's pass cap is reached.
Each job reproduces a CLI command in-process: parse ``.crn`` text, run
the operation, serialise the result with ``json.dumps``.  Jobs run one after another (a closed loop
with one client).  After every ``PROBE_EVERY_S`` of job time, and after
each pass, it times the host-speed probe (``probe.py``), and it reports
each job's time also at the probe's reference speed.  Job outputs go to
``--records`` for checking; the last line of stdout is a JSON summary.

With ``--trace 1`` passes alternate between untraced and traced, and the
traced ones feed the per-layer metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import json
import pathlib
import resource
import signal
import statistics
import sys

import numpy as np

import probe
import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
WARMUP_PASS = 1_000_000
PROBE_EVERY_S = 0.05  # job seconds between two probes of the host's speed
# The CLI's default tolerances for `simulate`.
RTOL, ATOL = 1e-8, 1e-10


class JobTimeout(Exception):
    """A job ran past the workload's per-job time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def import_crncert():
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import crncert
    import crncert.cli

    if not pathlib.Path(crncert.__file__).resolve().is_relative_to(src):
        raise ImportError(f"crncert imported from {crncert.__file__}, not from {src}")
    return crncert


def certify_job(crncert, net: workloads.Net):
    parsed = crncert.parse_network(net.text)
    cert = crncert.certify(parsed)
    doc = {"schema": crncert.cli.SCHEMA, **cert.to_json_dict()}
    return json.dumps(doc, indent=2) + "\n", None


def simulate_job(crncert, net: workloads.Net):
    """What `crn-cert simulate --json --x0 ... --t-end ...` does."""
    parsed = crncert.parse_network(net.text)
    x0 = np.array(net.x0)
    report = crncert.structure_report(parsed)
    x_ref = None
    if report.weakly_reversible and report.deficiency == 0:
        x_ref = crncert.find_equilibrium(parsed, x0).x_bar
    traj = crncert.simulate(
        parsed, crncert.MASS_ACTION, x0, net.t_end, rtol=RTOL, atol=ATOL, x_ref=x_ref
    )
    final_v = float(traj.lyapunov[-1]) if traj.lyapunov is not None else float("nan")
    doc = {
        "schema": crncert.cli.SCHEMA,
        "t_end": net.t_end,
        "steps": len(traj),
        "final_state": [float(v) for v in traj.states[-1]],
        "final_V": final_v,
        "persistence_margin": crncert.persistence_margin(traj),
        "max_conservation_residual": float(traj.conservation_residual.max()),
    }
    return json.dumps(doc, indent=2) + "\n", (traj, x_ref)


JOBS = {"certify": certify_job, "simulate": simulate_job}


def check_data(kept) -> dict:
    """What the checker needs beyond the job's JSON output (taken untimed)."""
    if kept is None:
        return {}
    traj, x_ref = kept
    return {
        "states": traj.states.tolist(),
        "x_ref": None if x_ref is None else [float(v) for v in x_ref],
    }


def setup(workload: workloads.Workload, seed: int):
    """Import crncert and run one warm-up job; returns (crncert, seconds).

    The seconds count from process start, numpy's import included, less the
    time spent generating the warm-up network.
    """
    start = time.perf_counter()
    warm = workloads.make_pass(workload.name, seed, WARMUP_PASS, tiny=True)[0]
    generating = time.perf_counter() - start
    crncert = import_crncert()
    JOBS[workload.kind](crncert, warm)
    return crncert, time.perf_counter() - STARTED - generating


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--records", help="JSON-lines file for job outputs")
    ap.add_argument("--spans", help="CSV file for the traced spans")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    crncert, setup_s = setup(workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    job_fn = JOBS[workload.kind]
    tracer = tracing.Tracer()
    signal.signal(signal.SIGALRM, _on_alarm)
    passes = []  # (traced, [job seconds], [job ids], [job reference seconds])
    job_labels: list[str] = []
    texts: set[int] = set()
    measured = 0.0
    probes = [probe.measure()]
    since_probe = 0.0
    with open(args.records, "w", encoding="utf-8") as out:
        pass_index = 0
        min_passes = 1 + args.trace  # a traced run needs one pass of each kind
        while len(passes) < min_passes or (
            measured < args.seconds and len(passes) < workload.max_passes
        ):
            traced = bool(args.trace) and pass_index % 2 == 1
            nets = workloads.make_pass(workload.name, args.seed, pass_index, args.tiny)
            texts.update(hash(net.text) for net in nets)
            if len(texts) < len(job_labels) + len(nets):
                raise RuntimeError("a network text repeats within the run")
            if traced:
                tracer.install()
            times, ids, segments = [], [], []
            for index, net in enumerate(nets):
                if since_probe >= PROBE_EVERY_S:
                    probes.append(probe.measure())
                    since_probe = 0.0
                segments.append(len(probes) - 1)
                job = len(job_labels)
                job_labels.append(net.label)
                record = {"pass": pass_index, "index": index, "job": job, "label": net.label}
                signal.setitimer(signal.ITIMER_REAL, workload.job_limit_s)
                start = time.perf_counter()
                try:
                    if traced:
                        text, kept = tracer.run_job(job, job_fn, crncert, net)
                    else:
                        text, kept = job_fn(crncert, net)
                    elapsed = time.perf_counter() - start
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    record["out"] = text
                    record.update(check_data(kept))
                except Exception as exc:  # every failure is tallied, none stops the run
                    elapsed = time.perf_counter() - start
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    record["error"] = type(exc).__name__
                    record["message"] = str(exc)[:200]
                record["seconds"] = elapsed
                times.append(elapsed)
                ids.append(job)
                since_probe += elapsed
                out.write(json.dumps(record) + "\n")
            if traced:
                tracer.uninstall()
            probes.append(probe.measure())
            since_probe = 0.0
            # Each job's time at the reference speed, by the mean of the probes
            # just before and after it.
            ref = [
                t * probe.REFERENCE_S * 2 / (probes[i] + probes[i + 1])
                for t, i in zip(times, segments)
            ]
            passes.append((traced, times, ids, ref))
            measured += sum(times)
            pass_index += 1

    summary = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [
            {"traced": t, "job_s": js, "ref_s": rs, "jobs": len(js)} for t, js, _, rs in passes
        ],
    }
    if args.trace:
        spans = tracer.spans()
        per_pass = [tracing.layer_metrics(spans, set(ids)) for t, _, ids, _ in passes if t]
        summary["layers"] = {
            name: {"value": statistics.median(p[name][0] for p in per_pass), "unit": unit}
            for name, (_, unit) in per_pass[0].items()
        }
        summary["absent"] = tracer.absent + sorted(tracer.uncounted)
        first_traced = next(ids for t, _, ids, _ in passes if t)
        summary["jobs"] = [
            {"label": job_labels[j], **tracing.job_breakdown(spans, j)} for j in first_traced
        ]
        if args.spans:
            tracer.write_csv(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
