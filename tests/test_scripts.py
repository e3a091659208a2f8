import importlib
import importlib.util
import re
import subprocess
import sys

import pytest

from conftest import NETWORKS

SCRIPTS = NETWORKS.parent / "scripts"
TRACING = NETWORKS.parent / "crnbench" / "tracing.py"


@pytest.mark.parametrize(
    "argv",
    [["run_example_networks.py"], ["cert_digest.py", "20", "0"]],
)
def test_script_runs(argv):
    # the scripts import crncert's public names, so a pruned name breaks them here
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_cert_digest_prints_one_line_per_certificate():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "cert_digest.py"), "6", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    count = len(list(NETWORKS.glob("*.crn"))) + 6
    assert len(lines) == count + 1
    for index, line in enumerate(lines[:-1]):
        assert re.fullmatch(rf"{index} (GLOBALLY_STABLE|NOT_CERTIFIED) [0-9a-f]{{64}}", line)
    assert re.fullmatch(rf"{count} certificates sha256 [0-9a-f]{{64}}", lines[-1])


def test_cert_digest_matches_the_committed_digest():
    # Every certificate, witnesses included, stays byte-identical; a change
    # that moves certificates on purpose regenerates this file with
    # `scripts/cert_digest.py 200 0`.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "cert_digest.py"), "200", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = (NETWORKS.parent / "tests" / "data" / "cert_digest_200_0.txt").read_text()
    assert proc.stdout == expected


def test_benchmark_trace_targets_resolve():
    # The benchmark reports a missing target only as trace.absent, so a
    # pruned or renamed name that it traces breaks here instead.
    spec = importlib.util.spec_from_file_location("crnbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, module_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), name
