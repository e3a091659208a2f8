import importlib
import importlib.util
import inspect
import re
import subprocess
import sys

import pytest

import crncert

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


def _committed_digest_matches(count, seed):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "cert_digest.py"), count, seed],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = NETWORKS.parent / "tests" / "data" / f"cert_digest_{count}_{seed}.txt"
    assert proc.stdout == expected.read_text()


def test_cert_digest_matches_the_committed_digest():
    # Every certificate, witnesses included, stays byte-identical; a change
    # that moves certificates on purpose regenerates this file with
    # `scripts/cert_digest.py 200 0`.
    _committed_digest_matches("200", "0")


def test_cert_digest_at_seed_11_matches_the_committed_digest():
    # A second draw of 500 networks; regenerate with `scripts/cert_digest.py 500 11`.
    _committed_digest_matches("500", "11")


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


def test_package_public_names():
    # Test oracles live in tests/conftest.py; a name added here must have a
    # caller in a command, a script or the benchmark.
    public = sorted(
        name
        for name, value in vars(crncert).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert public == [
        "Certificate", "Complex", "ConvergenceError", "EnumerationCapError",
        "EquilibriumResult", "FaceStatus", "FaceVerdict", "HypothesesError",
        "IntegrationError", "KineticsSpec", "MASS_ACTION", "OverallStatus",
        "ParseError", "RationalBasis", "Reaction", "ReactionNetwork",
        "SiphonCatalog", "SiphonEntry", "Species", "StructureReport", "Trajectory",
        "certify", "check_discrete", "check_empty_all_classes",
        "complex_balance_residual", "complex_balanced_point", "conservation_basis",
        "find_equilibrium", "generalized_kinetics", "is_semi_locking", "jacobian",
        "lyapunov", "minimal_semi_locking_sets", "parse_network",
        "parse_network_file", "persistence_margin", "reaction_rates",
        "reaction_vector", "rhs", "serialize_network", "simulate",
        "stoichiometric_basis", "structure_report", "write_trajectory_csv",
    ]
