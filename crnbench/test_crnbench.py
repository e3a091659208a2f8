"""Tests of the benchmark itself: smoke runs, metric names, failure accounting."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import tracing
import worker
import workloads

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# The per-layer metrics the benchmark promises, trace overhead included.
LAYER_METRICS = """
network.parse_s structure.report_s structure.report_calls ratlin.rref_s
ratlin.rref_calls ratlin.nullspace_s ratlin.solve_le_s ratlin.solve_le_calls
siphons.minimal_s siphons.minimal_found certify.self_s certify.faces_checked
certify.faces_per_minimal certify.kernel_s certify.kernel_calls certify.lp_s
certify.lp_calls certify.to_json_s dynamics.simulate_self_s dynamics.rhs_s
dynamics.rhs_calls dynamics.rhs_us dynamics.steps_accepted dynamics.rhs_per_step
dynamics.lyapunov_s dynamics.jacobian_s dynamics.jacobian_calls
dynamics.equilibrium_s dynamics.complex_balance_s dynamics.newton_iterations
dynamics.stored_states trace.overhead_s trace.absent
""".split()


def _run(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "crnbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == LAYER_METRICS
    assert [m["name"] for m in SPEC["end_to_end"]] == ["wall_ref_s", "job_p50_ref_s", "peak_rss_mb", "setup_s"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_prints_every_metric_with_its_unit(trace):
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "0.1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    want = {f"{w}.{m['name']}": m["unit"] for w in workloads.WORKLOADS for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in workloads.WORKLOADS:
        printed = [("failed_frac", "frac"), ("wall_s", "s"), ("job_p50_s", "s")]
        for metric, unit in [*printed, *((m["name"], m["unit"]) for m in SPEC["end_to_end"])]:
            assert any(line.startswith(f"{name} {metric} = ") and f" {unit} " in line for line in lines)


def _certify_records(workload):
    crncert = worker.import_crncert()
    records = []
    for index, net in enumerate(workloads.make_pass(workload, 5, 0, tiny=True)):
        text, _ = worker.certify_job(crncert, net)
        records.append({"pass": 0, "index": index, "job": index, "label": net.label, "out": text})
    return records


def _tamper(record, change):
    doc = json.loads(record["out"])
    change(doc)
    return {**record, "out": json.dumps(doc)}


def _set_status(doc, status):
    doc["verdicts"][0]["status"] = status


def test_wrong_verdicts_raise_failed_frac():
    records = _certify_records("certify-large")
    assert not run.evaluate("certify-large", 5, True, records)
    flips = [
        lambda d: _set_status(d, "DISCRETE"),  # the first face of pairs-p2 is EMPTY
        lambda d: _set_status(d, "INCONCLUSIVE"),
        lambda d: d.update(overall="NOT_CERTIFIED"),
        lambda d: d["siphons"].pop(),
        lambda d: d["verdicts"][0]["witness"]["separating"].reverse(),
    ]
    bad = [_tamper(records[0], flip) for flip in flips]
    failures = run.evaluate("certify-large", 5, True, records + bad)
    assert sum(failures.values()) == len(bad)
    assert failures["WrongOutput"] >= 4


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_passes_vary_the_text_but_not_the_work(name):
    first, second = (workloads.make_pass(name, 5, p, tiny=True) for p in (0, 1))
    assert [n.label for n in first] == [n.label for n in second]
    assert not {n.text for n in first} & {n.text for n in second}
    for a, b in zip(first, second):
        assert len(a.species) == len(b.species)
        assert [(s, p) for s, p, _ in a.reactions] == [(s, p) for s, p, _ in b.reactions]
        assert a.x0 == b.x0 and a.t_end == b.t_end
        if a.minimal_siphons is not None:
            rename = dict(zip(a.species, b.species))
            assert [frozenset(map(rename.get, s)) for s in a.minimal_siphons] == b.minimal_siphons


def test_simulate_check_rejects_a_perturbed_final_state():
    crncert = worker.import_crncert()
    net = workloads.make_pass("simulate-nonstiff", 5, 0, tiny=True)[0]
    text, kept = worker.simulate_job(crncert, net)
    record = {"out": text, **worker.check_data(kept)}
    oracle.check(net, "simulate", record)
    record["states"][-1][0] *= 1.001
    doc = json.loads(text)
    doc["final_state"][0] *= 1.001
    with pytest.raises(oracle.WrongOutput):
        oracle.check(net, "simulate", {**record, "out": json.dumps(doc)})


def test_missing_trace_target_is_reported_absent(monkeypatch):
    worker.import_crncert()
    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + [("ratlin.gone", "crncert.ratlin", "no_such_function", None)]
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["ratlin.gone"]
    finally:
        tracer.uninstall()


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "crnbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "certify-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
