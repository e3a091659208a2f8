#!/usr/bin/env python3
"""crncert benchmark: seeded workloads against the library, checked and timed.

Usage (from the repository root):

    python3 crnbench/run.py --workload certify-large --seed 1 --seconds 10 --trace 0
    python3 crnbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each workload runs in its own worker process (``worker.py``) with BLAS and
OpenMP pinned to one thread.  ``wall_ref_s`` and ``job_p50_ref_s`` come from
job times scaled by a probe of the host's speed (``probe.py``) and reduced
to each job's median over the passes.  ``setup_s`` is the median over
several fresh processes of importing crncert plus one warm-up job.  After the worker
ends, every job's output is checked by ``oracle.py``, which never imports
crncert; a job fails if it raised, ran past the per-job limit, or produced
a wrong output.  The last line of stdout is one JSON object: with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the traced passes and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 4  # extra fresh processes timed for setup_s, besides the worker
WORKER_TIMEOUT_S = 120.0
# Same names as workloads.WORKLOADS.  The launcher imports neither numpy nor
# scipy until every worker has ended: Linux carries a process's peak RSS
# across exec, so a heavy launcher would inflate the workers' peak_rss_mb.
WORKLOADS = ("certify-large", "certify-small", "simulate-nonstiff", "simulate-stiff")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def evaluate(workload: str, seed: int, tiny: bool, records: list[dict]) -> Counter:
    """Check every job record; returns failures tallied by type."""
    import oracle
    import workloads

    kind = workloads.WORKLOADS[workload].kind
    nets: dict[int, list] = {}
    failures: Counter = Counter()
    for record in records:
        if record["pass"] not in nets:
            nets[record["pass"]] = workloads.make_pass(workload, seed, record["pass"], tiny)
        net = nets[record["pass"]][record["index"]]
        if "error" in record:
            failures[record["error"]] += 1
            continue
        try:
            if net.label != record["label"]:
                raise oracle.WrongOutput("job list differs between worker and checker")
            oracle.check(net, kind, record)
        except (oracle.WrongOutput, KeyError, TypeError, ValueError) as exc:
            failures[type(exc).__name__] += 1
            if failures[type(exc).__name__] <= 3:
                print(f"# {workload} job {record['job']} ({record['label']}): {exc}")
    return failures


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    """Run the set-up probes and the worker; job outputs stay on disk."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if tiny:
        common.append("--tiny")
    setups = [
        _worker([*common, "--setup-only"], 60.0)["setup_s"]
        for _ in range(0 if tiny else SETUP_PROBES)
    ]
    records = out_dir / f"records-{workload}-{os.getpid()}.jsonl"
    spans = out_dir / f"spans-{workload}.csv"
    summary = _worker(
        [*common, "--trace", str(trace), "--records", str(records), "--spans", str(spans)],
        WORKER_TIMEOUT_S,
    )
    summary.update(workload=workload, records=str(records), setups=[*setups, summary["setup_s"]])
    return summary


def per_job(passes: list[dict], key: str) -> list[float]:
    """Each job's median time over the passes (``key`` "job_s" or "ref_s").

    Job i of every pass is a variant of the same network (see
    ``workloads.variant``), so its times in the passes are samples of one cost.
    """
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def finish(summary: dict, seed: int, tiny: bool) -> dict:
    """Check the job outputs and derive the metrics of one workload."""
    workload = summary["workload"]
    records_path = pathlib.Path(summary["records"])
    with open(records_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    records_path.unlink()
    failures = evaluate(workload, seed, tiny, records)
    plain = [p for p in summary["passes"] if not p["traced"]]
    traced = [p for p in summary["passes"] if p["traced"]]
    ref = per_job(plain, "ref_s")
    wall = math.fsum(ref)
    result = {
        "workload": workload,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "passes": len(plain),
        "jobs_per_pass": plain[0]["jobs"],
        "metrics": {
            "wall_ref_s": (wall, "s"),
            "job_p50_ref_s": (statistics.median(ref), "s"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(summary["setups"]), "s"),
        },
        "setups": summary["setups"],
        "raw": per_job(plain, "job_s"),
    }
    if "layers" in summary:
        traced_wall = math.fsum(per_job(traced, "ref_s"))
        layers = {k: (v["value"], v["unit"]) for k, v in summary["layers"].items()}
        layers["trace.overhead_s"] = (traced_wall - wall, "s")
        layers["trace.absent"] = (len(summary["absent"]), "count")
        result.update(layers=layers, absent=summary["absent"], jobs=summary["jobs"], traced_passes=len(traced))
    return result


def _environment() -> str:
    import numpy
    import scipy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, nproc {os.cpu_count()}, {platform.machine()}"
    )


def report(result: dict, trace: int) -> None:
    """Human-readable lines: every metric by name, with its unit."""
    name = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"# {name}: {result['passes']} untraced passes x {result['jobs_per_pass']} jobs, "
        f"closed loop, 1 client; {attempted} jobs attempted"
    )
    m = result["metrics"]
    raw, jobs = result["raw"], result["jobs_per_pass"]
    print(f"{name} wall_s = {math.fsum(raw):.4f} s (each job's median over the passes, summed)")
    print(f"{name} wall_ref_s = {m['wall_ref_s'][0]:.4f} s (the same at the probe's reference speed)")
    print(f"{name} job_p50_s = {statistics.median(raw):.6f} s (median over the {jobs} jobs of those medians)")
    print(f"{name} job_p50_ref_s = {m['job_p50_ref_s'][0]:.6f} s (the same at the probe's reference speed)")
    print(f"{name} failed_frac = {failed / attempted:.4f} frac ({failed} of {attempted}; {result['failures'] or 'none'})")
    print(f"{name} peak_rss_mb = {m['peak_rss_mb'][0]:.1f} MB (worker process)")
    setups = ", ".join(f"{s:.3f}" for s in result["setups"])
    print(f"{name} setup_s = {m['setup_s'][0]:.4f} s (import crncert + 1 warm-up job; processes: {setups})")
    if not trace:
        return
    print(f"# {name}: per-layer metrics, median of {result['traced_passes']} traced passes")
    for key, (value, unit) in result["layers"].items():
        print(f"{name} {key} = {value:.6g} {unit}")
    lay = result["layers"]
    print(
        f"# {name}: certify.faces_per_minimal base: {lay['certify.faces_checked'][0]:.0f} faces"
        f" / {lay['siphons.minimal_found'][0]:.0f} minimal siphons"
    )
    for absent in result["absent"]:
        print(f"# {name}: absent: {absent}")
    if len(result["jobs"]) <= 40:
        print(f"# {name}: first traced pass, per job (inclusive seconds, counts)")
        for job in result["jobs"]:
            label = job.pop("label")
            cells = " ".join(
                f"{k}={v:.4f}" if k.endswith("_s") else f"{k}={v}" for k, v in sorted(job.items())
            )
            print(f"#   {label}: {cells}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured seconds per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small families, for the smoke test")
    args = ap.parse_args(argv)

    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "crncert" / "__init__.py").is_file():
        print(f"error: no crncert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    started = time.perf_counter()
    try:
        summaries = [measure(n, args.seed, args.seconds, args.trace, args.tiny) for n in names]
        results = [finish(s, args.seed, args.tiny) for s in summaries]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in (ROOT / ".bench_out").glob(f"records-*-{os.getpid()}.jsonl"):
            leftover.unlink()
    print(f"# crncert benchmark, seed {args.seed}, {args.seconds:g} s per workload; {_environment()}")
    for result in results:
        report(result, args.trace)
    print(f"# total {time.perf_counter() - started:.1f} s")

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        chosen = result["layers"] if args.trace else result["metrics"]
        for key, (value, unit) in chosen.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
