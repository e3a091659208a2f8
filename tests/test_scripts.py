import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import crncert

from conftest import NETWORKS

SCRIPTS = NETWORKS.parent / "scripts"
TRACING = NETWORKS.parent / "crnbench" / "tracing.py"


@pytest.mark.parametrize(
    "argv",
    [
        ["run_example_networks.py"], ["cert_digest.py", "20", "0"], ["sim_digest.py", "20", "0"],
        ["code_lines.py"],
    ],
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


def test_package_runs_without_tests_or_scripts_on_the_path(tmp_path):
    # Only src/ on the path: certify runs, and no test helper ships in the package.
    code = (
        "import importlib.util\n"
        "from crncert.cli import main\n"
        f"assert main(['certify', {str(NETWORKS / 'ex1.crn')!r}]) == 0\n"
        "assert importlib.util.find_spec('crncert.randomnet') is None\n"
    )
    env = {**os.environ, "PYTHONPATH": str(NETWORKS.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "GLOBALLY_STABLE" in proc.stdout


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


def test_sim_digest_prints_one_line_per_network():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "sim_digest.py"), "6", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    count = len(list(NETWORKS.glob("*.crn"))) + 6
    assert len(lines) == count + 1
    for index, line in enumerate(lines[:-1]):
        assert re.fullmatch(rf"{index} [0-9a-f]{{64}}", line)
    assert re.fullmatch(rf"{count} networks sha256 [0-9a-f]{{64}}", lines[-1])
    assert len({line.split()[1] for line in lines[:-1]}) == count


def test_code_lines_skip_blank_comment_and_docstring_lines(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "import math  # a trailing comment\n"
        "\n"
        "\n"
        "class Point:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def norm(self):\n"
        '        """Function docstring,\n'
        '        over two lines."""\n'
        "        # a comment inside\n"
        "        return math.hypot(\n"
        "            1.0,\n"
        "            2.0,\n"
        "        )\n"
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py"), str(module)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # import, class, def, and the four lines of the call
    assert proc.stdout.splitlines() == ["sample 7", "total 7"]


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


def _benchmark_tracing():
    spec = importlib.util.spec_from_file_location("crnbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_trace_targets_resolve():
    # The benchmark reports a missing target only as trace.absent, so a
    # pruned or renamed name that it traces breaks here instead.
    for name, module_name, attr, _ in _benchmark_tracing().TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), name


def test_benchmark_trace_counts_read_the_results():
    # The benchmark reads siphons.minimal_found, certify.faces_checked,
    # dynamics.stored_states and dynamics.newton_iterations off the results
    # of the traced calls, and a result that no longer has what it reads
    # leaves the span uncounted, so the metric reads 0 instead of failing.
    # This runs what the benchmark's certify and simulate jobs run, with
    # dynamics loaded, as the worker's warm-up job loads it before tracing.
    importlib.import_module("crncert.dynamics")
    tracer = _benchmark_tracing().Tracer()
    tracer.install()
    try:
        text = (NETWORKS / "ex2.crn").read_text()
        crncert.certify(crncert.parse_network(text)).to_json_dict()
        net = crncert.parse_network(text)
        x0 = np.array([0.2, 1.3, 1.5])
        crncert.structure_report(net)
        x_ref = crncert.find_equilibrium(net, x0).x_bar
        crncert.simulate(net, crncert.MASS_ACTION, x0, 10.0, x_ref=x_ref)
    finally:
        tracer.uninstall()
    assert not tracer.uncounted
    counted = {name for name, count in zip(tracer.names, tracer.counts) if count is not None}
    assert {"siphons.minimal", "certify.certify", "dynamics.simulate", "dynamics.equilibrium"} <= counted


def test_readme_python_blocks_run(monkeypatch):
    # Each ```python block of README.md runs from the repository root, and a
    # line `print(...)  # value` prints value.
    readme = (NETWORKS.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    monkeypatch.chdir(NETWORKS.parent)
    for block in blocks:
        printed = {}

        def record(*args):
            printed[sys._getframe(1).f_lineno] = " ".join(map(str, args))

        exec(compile(block, "README.md", "exec"), {"print": record})
        for line_no, line in enumerate(block.splitlines(), start=1):
            expected = re.fullmatch(r"print\(.*\)\s*#\s*(.*?)\s*", line)
            if expected:
                assert printed[line_no] == expected.group(1), line


# Public names no command, script or benchmark file calls: the result types a
# caller receives, the types a ReactionNetwork holds, and the type of a
# kinetics.
UNCALLED_PUBLIC_NAMES = {
    "EquilibriumResult", "FaceStatus", "FaceVerdict", "RationalBasis",
    "ReactionNetwork", "SiphonCatalog", "SiphonEntry", "StructureReport",
    "Trajectory", "Complex", "Reaction", "KineticsSpec",
}


def _names_used_through_crncert(path):
    """Names a file imports from crncert or reads as attributes of a crncert module.

    A relative import counts, as cli.py is inside the package; an attribute
    counts when its chain starts at a name ``crncert`` (``crncert.cli.SCHEMA``
    gives ``cli`` and ``SCHEMA``).  Comments, strings and other files' own
    names of the same spelling do not.
    """
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("crncert")):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "crncert":
                used.add(node.attr)
    return used


def test_package_public_names():
    # Test oracles and generators live in tests/; a public name must have a
    # caller in a command, a script or the benchmark, or be listed above.
    public = sorted(
        name
        for name in dir(crncert)
        if not name.startswith("_") and not inspect.ismodule(getattr(crncert, name))
    )
    assert public == [
        "Certificate", "Complex", "ConvergenceError",
        "EquilibriumResult", "FaceStatus", "FaceVerdict", "HypothesesError",
        "IntegrationError", "KineticsSpec", "MASS_ACTION", "OverallStatus",
        "ParseError", "RationalBasis", "Reaction", "ReactionNetwork",
        "SiphonCatalog", "SiphonEntry", "StructureReport", "Trajectory",
        "certify", "check_discrete", "check_empty_all_classes",
        "complex_balanced_point", "find_equilibrium", "generalized_kinetics",
        "jacobian", "lyapunov", "minimal_semi_locking_sets", "parse_network",
        "parse_network_file", "persistence_margin", "rhs", "simulate",
        "structure_report", "write_trajectory_csv",
    ]
    callers = [
        NETWORKS.parent / "src" / "crncert" / "cli.py",
        *SCRIPTS.glob("*.py"),
        *TRACING.parent.glob("*.py"),
    ]
    called = {attr.split(".")[0] for _, _, attr, _ in _benchmark_tracing().TARGETS}
    for path in callers:
        called |= _names_used_through_crncert(path)
    assert set(public) - called == UNCALLED_PUBLIC_NAMES
