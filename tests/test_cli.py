import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import crncert
from crncert import MASS_ACTION, find_equilibrium, parse_network_file, simulate
from crncert.cli import build_parser, main

from conftest import NETWORKS, OVER_BUDGET_K, SPREAD, X_SPREAD, doubling_siphons_text

EX1 = str(NETWORKS / "ex1.crn")
EX2 = str(NETWORKS / "ex2.crn")
EX3 = str(NETWORKS / "ex3.crn")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_error_class_of_the_package_is_in_the_exit_1_family():
    # main turns ValueError and ArithmeticError (and OSError) into exit 1
    # without naming a module's class, so every class the package defines
    # must derive from one of the two.
    defined = {}
    for info in pkgutil.iter_modules(crncert.__path__):
        module = importlib.import_module(f"crncert.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == module.__name__:
                defined[obj.__name__] = obj
    assert {"ParseError", "ExactBudgetError"} <= set(defined)
    for name, cls in defined.items():
        assert issubclass(cls, (ValueError, ArithmeticError)), name


def test_analyze_ex1(capsys):
    code, out, _ = run(capsys, "analyze", EX1)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "crn-cert/2"
    st = doc["structure"]
    assert (st["n"], st["l"], st["s"], st["deficiency"]) == (4, 1, 3, 0)
    assert len(doc["siphons"]) == 3


def test_analyze_ex3(capsys):
    code, out, _ = run(capsys, "analyze", EX3)
    assert code == 0
    doc = json.loads(out)
    assert doc["structure"]["deficiency"] == 0
    assert doc["siphons"] == [{"species": ["A", "B"], "locking": True}]


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.crn"
    bad.write_text("A -> B ; k=1\nB -> ? ; k=1\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "line 2" in err


def test_analyze_over_budget_exits_1(tmp_path, capsys):
    # analyze enumerates siphons without a hypothesis check, so 2^k minimal
    # siphons run into the search budget: a typed error, not a traceback
    path = tmp_path / "doubling.crn"
    path.write_text(doubling_siphons_text(OVER_BUDGET_K) + "\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err
    assert "Traceback" not in err


def test_certify_exit_codes(tmp_path, capsys):
    for path in (EX1, EX2, EX3):
        code, out, _ = run(capsys, "certify", path)
        assert code == 0
        assert json.loads(out)["overall"] == "GLOBALLY_STABLE"

    oneway = tmp_path / "oneway.crn"
    oneway.write_text("A -> B ; k=1\n")
    code, out, _ = run(capsys, "certify", str(oneway))
    assert code == 2
    doc = json.loads(out)
    assert doc["overall"] == "NOT_CERTIFIED"
    assert any("weakly reversible" in r for r in doc["reasons"])

    deficient = tmp_path / "deficient.crn"
    deficient.write_text("A <-> B ; kf=1, kr=1\n2A -> 2B ; k=1\n")
    code, out, _ = run(capsys, "certify", str(deficient))
    assert code == 2
    assert any("deficiency" in r for r in json.loads(out)["reasons"])


def test_certify_ex1_verdicts(capsys):
    _, out, _ = run(capsys, "certify", EX1)
    verdicts = {tuple(v["W"]): v["status"] for v in json.loads(out)["verdicts"]}
    assert verdicts[("A", "B", "E")] == "DISCRETE"
    assert verdicts[("A", "C", "E")] == "DISCRETE"
    assert verdicts[("C", "D", "E")] == "EMPTY_ALL_CLASSES"


def test_certify_ex2_verdicts(capsys):
    _, out, _ = run(capsys, "certify", EX2)
    doc = json.loads(out)
    statuses = {tuple(v["W"]): v["status"] for v in doc["verdicts"]}
    assert statuses[("A", "B")] == "DISCRETE"
    assert statuses[("A", "C")] == "DISCRETE"


def test_outputs_byte_stable(capsys):
    _, first, _ = run(capsys, "certify", EX1)
    _, second, _ = run(capsys, "certify", EX1)
    assert first == second
    _, a1, _ = run(capsys, "analyze", EX2)
    _, a2, _ = run(capsys, "analyze", EX2)
    assert a1 == a2


def test_simulate_deterministic_given_seed(capsys):
    _, csv1, _ = run(capsys, "simulate", EX3, "--seed", "7", "--t-end", "20")
    _, csv2, _ = run(capsys, "simulate", EX3, "--seed", "7", "--t-end", "20")
    assert csv1 == csv2


def test_simulate_json_summary(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, stdout, _ = run(
        capsys, "simulate", EX2, "--x0", "1,1,1", "--t-end", "20",
        "--json", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["schema"] == "crn-cert/2"
    assert doc["persistence_margin"] > 0
    assert out.read_text().startswith("t,A,B,C,V,conservation_residual")


def test_simulate_out_gets_the_bytes_of_stdout(tmp_path, capsys):
    # The CSV is written at two sites, to --out or to stdout, which must agree.
    argv = ["simulate", EX2, "--x0", "0.2,1.3,1.5", "--t-end", "20"]
    code, csv, err = run(capsys, *argv)
    assert code == 0 and csv.startswith("t,A,B,C,V,conservation_residual\n")
    out = tmp_path / "traj.csv"
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == csv.encode()
    assert stdout == ""
    assert stderr == err and stderr.startswith("persistence_margin=")
    out.unlink()
    code, stdout, _ = run(capsys, *argv, "--json", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == csv.encode()
    assert json.loads(stdout)["schema"] == "crn-cert/2"


def test_simulate_flag_defaults_are_the_function_defaults():
    # The parser cannot read them from dynamics: certify must not load numpy.
    args = build_parser().parse_args(["simulate", "x.crn"])
    params = inspect.signature(simulate).parameters
    assert (args.rtol, args.atol) == (params["rtol"].default, params["atol"].default)


def test_simulate_csv(capsys):
    code, out, err = run(
        capsys, "simulate", EX2, "--x0", "1,1,1", "--t-end", "50"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,A,B,C,V,conservation_residual"
    header_len = len(lines[0].split(","))
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert values.shape[1] == header_len
    v_col = values[:, -2]
    assert np.all(np.diff(v_col) < 1e-12)
    assert "persistence_margin=" in err and "final_V=" in err


def test_simulate_conservation_column(capsys):
    code, out, _ = run(capsys, "simulate", EX1, "--seed", "4", "--t-end", "50")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    residuals = [float(r.split(",")[-1]) for r in rows]
    assert max(residuals) <= 1e-8


def test_simulate_runs_to_long_horizons(tmp_path, capsys):
    pair = tmp_path / "pair.crn"
    pair.write_text("A <-> B ; kf=1, kr=2\n")
    for argv in (
        ("simulate", EX1, "--t-end", "1e300", "--json"),
        ("simulate", str(pair), "--x0", "1,2", "--t-end", "1e17", "--json"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["t_end"] == float(argv[-2])
        assert doc["max_conservation_residual"] <= 1e-9


def test_simulate_keeps_the_class_beside_a_fast_pair(tmp_path, capsys):
    # RODAS4's steps grow to h * |J| ~ 1e14 here; the run must still end in
    # the class of x0, at its equilibrium (the CLI's V reference).
    path = tmp_path / "fast_slow.crn"
    path.write_text("A <-> B ; kf=1e-12, kr=1e-12\nB <-> C ; kf=1e3, kr=1e3\n")
    code, out, err = run(capsys, "simulate", str(path), "--x0", "1,2,3", "--t-end", "1e14", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["max_conservation_residual"] <= 1e-8
    assert doc["final_V"] <= 1e-12


def test_simulate_reaches_an_equilibrium_near_1e18(tmp_path, capsys):
    # The run's states grow towards 1.75e18; final_V is V at the last state
    # against the class equilibrium.
    path = tmp_path / "spread.crn"
    path.write_text(SPREAD)
    x0 = ",".join(map(repr, X_SPREAD))
    code, out, err = run(capsys, "simulate", str(path), "--x0", x0, "--t-end", "1e8", "--json")
    assert code == 0, err
    assert json.loads(out)["final_V"] <= 1e-6


def test_simulate_rejects_zero_entry(capsys):
    code, _, err = run(capsys, "simulate", EX2, "--x0", "1,0,1")
    assert code == 1
    assert "positive" in err


def test_nonfinite_and_nonpositive_flags_exit_1(capsys):
    for argv, flag in (
        (("simulate", EX2, "--x0", "1,nan,1"), "--x0"),
        (("simulate", EX2, "--x0", "1,1,inf"), "--x0"),
        (("simulate", EX2, "--x0", "1,1,1", "--t-end", "inf"), "--t-end"),
        (("simulate", EX2, "--t-end", "nan"), "--t-end"),
        (("simulate", EX2, "--t-end", "1", "--rtol", "-1", "--atol", "-1"), "--rtol"),
        (("simulate", EX2, "--t-end", "1", "--atol", "-1"), "--atol"),
        (("simulate", EX2, "--t-end", "1", "--atol", "inf"), "--atol"),
        (("simulate", EX2, "--t-end", "1", "--rtol", "nan"), "--rtol"),
        (("simulate", EX2, "--t-end", "1", "--rtol", "0", "--atol", "0"), "--atol"),
        (("simulate", EX2, "--t-end", "1", "--seed", "-1"), "--seed"),
        (("equilibrium", EX2, "--c", "nan,1,1"), "--c"),
        (("equilibrium", EX2, "--c", "1,0,1"), "--c"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: {flag} must be"), err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("certify", EX1, "--bogus"), 1),
        (("simulate", EX2, "--t-end", "abc"), 1),
        (("certify",), 1),
        (("certify", "--help"), 0),
        (("certify", EX1, "--json"), 1),
        (("analyze", EX1, "--json"), 1),
        (("equilibrium", EX2, "--c", "1,1,1", "--json"), 1),
        (("equilibrium", EX2), 1),
    ],
)
def test_usage_errors_exit_1(capsys, argv, code):
    # argparse exits 2 on a usage error, which would read as "not certified";
    # --help still exits 0.  Only simulate takes --json (the other commands
    # always print JSON), and equilibrium needs --c.
    exit_code, out, _ = run(capsys, *argv)
    assert exit_code == code
    assert code == 0 or out == ""


def test_simulate_without_hypotheses_has_nan_lyapunov(tmp_path, capsys):
    # V needs the class equilibrium; when it is refused, or cannot be computed
    # in floats, the run still completes, with V nan in the CSV and null in JSON.
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    path = tmp_path / "net.crn"
    for text, x0 in (
        ("A -> B ; k=1\n", "1,1"),
        # Both certify GLOBALLY_STABLE, but find_equilibrium raises ConvergenceError:
        # Newton stalls on the first, the complex-balanced point overflows on the second.
        ("A <-> B ; kf=1e160, kr=1\nB + C <-> D ; kf=1, kr=1\n", "1,1,1,1"),
        ("A <-> B ; kf=1e-170, kr=1e170\nB + C <-> D ; kf=1, kr=1\n", "1,1,1,1"),
        # The class total A + B is out of the float range.
        ("A <-> B ; kf=1, kr=1\n", "1e308,1e308"),
        # Newton's system is singular in floats.
        ("A + B <-> C ; kf=1, kr=1\n", "1e33,1e33,1"),
    ):
        path.write_text(text)
        code, out, err = run(capsys, "simulate", str(path), "--x0", x0, "--t-end", "1")
        assert code == 0, err
        rows = out.strip().splitlines()[1:]
        assert rows and all(row.split(",")[-2] == "nan" for row in rows)
        assert err.endswith("final_V=nan\n")

        code, out, _ = run(capsys, "simulate", str(path), "--x0", x0, "--t-end", "1", "--json")
        assert code == 0
        assert json.loads(out, parse_constant=reject)["final_V"] is None


BAD_RUNS = [  # (t_end, rtol, atol) and the setting the refusal names
    ((0.0, 1e-8, 1e-10), "t_end"),
    ((-1.0, 1e-8, 1e-10), "t_end"),
    ((math.inf, 1e-8, 1e-10), "t_end"),
    ((math.nan, 1e-8, 1e-10), "t_end"),
    ((1.0, -1.0, 1e-10), "rtol"),
    ((1.0, math.inf, 1e-10), "rtol"),
    ((1.0, math.nan, 1e-10), "rtol"),
    ((1.0, 1e-8, -1.0), "atol"),
    ((1.0, 1e-8, math.inf), "atol"),
    ((1.0, 1e-8, math.nan), "atol"),
    ((1.0, 0.0, 0.0), "atol"),
]
FLAGS = {"t_end": "--t-end", "rtol": "--rtol", "atol": "--atol"}


@pytest.mark.parametrize("settings, name", BAD_RUNS)
def test_run_settings_refused_by_library_and_cli(capsys, settings, name):
    # One rule, two callers: each names the setting in its own terms.
    t_end, rtol, atol = settings
    with pytest.raises(ValueError, match=f"^{name} must be"):
        simulate(parse_network_file(EX2), MASS_ACTION, [1.0] * 3, t_end, rtol=rtol, atol=atol)
    argv = ("--x0", "1,1,1", "--t-end", repr(t_end), "--rtol", repr(rtol), "--atol", repr(atol))
    code, out, err = run(capsys, "simulate", EX2, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {FLAGS[name]} must be"), err


@pytest.mark.parametrize(
    "vector",
    [[0.0, 1.0, 1.0], [1.0, -1.0, 1.0], [math.nan, 1.0, 1.0], [1.0, 1.0, math.inf]],
)
def test_state_vectors_refused_by_library_and_cli(capsys, vector):
    net = parse_network_file(EX2)
    with pytest.raises(ValueError, match="^initial state x0 must be"):
        simulate(net, MASS_ACTION, vector, 1.0)
    with pytest.raises(ValueError, match="^class anchor c must be"):
        find_equilibrium(net, vector)
    text = ",".join(map(repr, vector))
    for command, flag in (("simulate", "--x0"), ("equilibrium", "--c")):
        code, out, err = run(capsys, command, EX2, flag, text)
        assert (code, out) == (1, ""), command
        assert err.startswith(f"error: {flag} must be"), err


def test_simulate_rejects_dimension_mismatch(capsys):
    code, _, err = run(capsys, "simulate", EX2, "--x0", "1,1")
    assert code == 1
    assert "3 species" in err


def test_equilibrium_two_species(tmp_path, capsys):
    path = tmp_path / "ab.crn"
    path.write_text("A -> B ; k=1\nB -> A ; k=2\n")
    code, out, _ = run(capsys, "equilibrium", str(path), "--c", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["x_bar"][0] - 2.0) < 1e-9
    assert abs(doc["x_bar"][1] - 1.0) < 1e-9
    assert doc["residual_rhs"] < 1e-9


def test_equilibrium_matches_long_simulation(capsys):
    code, out, _ = run(capsys, "equilibrium", EX2, "--c", "1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert np.max(np.abs(np.array(doc["x_bar"]) - 1.0)) < 1e-9


def test_simulate_rejects_empty_x0(capsys):
    # an empty --x0 is a malformed state, not a request for a random one
    code, out, err = run(capsys, "simulate", EX2, "--x0", "")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --x0 must be"), err


def test_wide_rate_pair_equilibrium_and_simulate(tmp_path, capsys):
    # equilibrium constant 1e8: x_A = 2 / (1 + 1e8)
    path = tmp_path / "pair.crn"
    path.write_text("A <-> B ; kf=1e4, kr=1e-4\n")
    code, out, _ = run(capsys, "equilibrium", str(path), "--c", "1,1")
    assert code == 0
    assert abs(json.loads(out)["x_bar"][0] / (2.0 / (1.0 + 1e8)) - 1.0) < 1e-12
    code, _, err = run(capsys, "simulate", str(path), "--x0", "1,1", "--t-end", "10")
    assert code == 0
    assert "final_V=" in err


def test_rates_beyond_the_float_range_exit_1_without_warnings(tmp_path, capsys):
    path = tmp_path / "pair.crn"
    path.write_text("A <-> B ; kf=1e200, kr=1e-200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "equilibrium", str(path), "--c", "1,1")
        assert code == 1
        assert out == ""
        assert "float range (rates span 1e-200 to 1e+200)" in err
        # simulate only loses V; the horizon is short because A, driven
        # towards 2e-400, soon sits at the smallest float (ROADMAP item 5).
        argv = ("--x0", "1,1", "--t-end", "1e-198", "--json")
        code, out, err = run(capsys, "simulate", str(path), *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["final_V"] is None


def test_overflowing_stage_fluxes_are_rejected_steps(tmp_path, capsys):
    # B**2147483647 overflows at every stage state with B > 1; those steps
    # fail the sign test, and the run settles where B**N = A.
    n = 2147483647
    path = tmp_path / "big.crn"
    path.write_text(f"A <-> {n} B ; kf=1, kr=1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", str(path), "--json", "--t-end", "10")
    assert code == 0 and err == ""
    a, b = json.loads(out)["final_state"]
    assert b - 1.0 == pytest.approx(math.log(a) / n, rel=1e-4)


def test_overflowing_flux_at_x0_exits_1(tmp_path, capsys):
    path = tmp_path / "big.crn"
    path.write_text("2147483647 A <-> 2147483647 B ; kf=1, kr=1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", str(path), "--json", "--t-end", "10")
    assert code == 1 and out == ""
    assert err.startswith("error: flux overflow at t=0.0"), err


def test_an_error_estimate_past_the_float_range_names_the_tolerances(capsys):
    # The state stays finite; the error over atol = 1e-300 with rtol = 0 does not.
    code, out, err = run(
        capsys, "simulate", EX1, "--t-end", "1", "--rtol", "0", "--atol", "1e-300", "--json"
    )
    assert code == 1 and out == ""
    assert err == "error: non-finite error estimate at t=0.0 (rtol=0.0, atol=1e-300)\n", err


def test_an_overlong_coefficient_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "long.crn"
    path.write_text(f"A <-> {'7' * 5000}B ; kf=1, kr=1\n")
    code, out, err = run(capsys, "certify", str(path))
    assert code == 1 and out == ""
    assert err == (
        "parse error: line 1, col 7: "
        "stoichiometric coefficient of 5000 digits exceeds 32-bit range\n"
    )


def test_equilibrium_refusal(tmp_path, capsys):
    path = tmp_path / "oneway.crn"
    path.write_text("A -> B ; k=1\n")
    code, _, err = run(capsys, "equilibrium", str(path), "--c", "1,1")
    assert code == 2
    assert "weakly reversible" in err


@pytest.mark.parametrize(
    "argv, code, writes",
    [
        pytest.param(("analyze", EX1), 0, True, id="analyze-ex1"),
        pytest.param(("certify", EX1), 0, True, id="certify-ex1"),
        pytest.param(("certify", "oneway"), 2, True, id="certify-oneway"),
        pytest.param(("equilibrium", EX2, "--c", "1,1,1"), 0, True, id="equilibrium-ex2"),
        pytest.param(("equilibrium", "oneway", "--c", "1,1"), 2, False, id="equilibrium-refused"),
        pytest.param(("analyze", "doubling"), 1, False, id="analyze-over-budget"),
    ],
)
def test_out_flag_writes_file(tmp_path, capsys, argv, code, writes):
    # --out gets exactly the bytes that stdout gets without it, and stdout
    # stays empty; a command that prints no document creates no file.
    networks = {"oneway": "A -> B ; k=1\n", "doubling": doubling_siphons_text(OVER_BUDGET_K) + "\n"}
    for name, text in networks.items():
        (tmp_path / f"{name}.crn").write_text(text)
    argv = [str(tmp_path / f"{a}.crn") if a in networks else a for a in argv]
    target = tmp_path / "report.json"
    plain_code, expected, _ = run(capsys, *argv)
    out_code, out, _ = run(capsys, *argv, "--out", str(target))
    assert (plain_code, out_code, out) == (code, code, "")
    if writes:
        assert expected and target.read_bytes() == expected.encode()
    else:
        assert expected == "" and not target.exists()


def test_module_entry_point():
    # run from src/ so that -m finds the package without an install
    proc = subprocess.run(
        [sys.executable, "-m", "crncert.cli", "certify", EX3],
        capture_output=True,
        text=True,
        cwd=NETWORKS.parent / "src",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["overall"] == "GLOBALLY_STABLE"


def test_the_program_runs_on_numpy_alone():
    # scipy, sympy, networkx and mpmath are test-only oracles: certifying,
    # solving for the equilibrium and simulating must import none of them.
    script = f"""
import sys
import crncert
import crncert.cli
for argv in (["certify"], ["equilibrium", "--c", "1,1,1,1,1"], ["simulate", "--t-end", "5"]):
    assert crncert.cli.main([argv[0], {EX1!r}, *argv[1:], "--out", {os.devnull!r}]) == 0
oracles = {{"scipy", "sympy", "networkx", "mpmath"}}
print(sorted(name for name in sys.modules if name.split(".")[0] in oracles))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=NETWORKS.parent / "src",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_exact_side_loads_no_numpy():
    # certify and analyze are integer work: they import neither numpy nor
    # dynamics, whose names the package still serves on first access.
    script = f"""
import sys
import crncert.cli
for command in ("certify", "analyze"):
    assert crncert.cli.main([command, {EX1!r}, "--out", {os.devnull!r}]) == 0
assert "numpy" not in sys.modules, "numpy loaded"
assert "crncert.dynamics" not in sys.modules, "dynamics loaded"
from crncert import simulate
import crncert
assert simulate is crncert.simulate is crncert.dynamics.simulate
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=NETWORKS.parent / "src",
    )
    assert proc.returncode == 0, proc.stderr


def test_a_repeated_species_past_the_coefficient_range_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "sum.crn"
    path.write_text("2147483647A + A -> B ; k=1\n")
    code, out, err = run(capsys, "certify", str(path))
    assert code == 1 and out == ""
    assert err == (
        "parse error: line 1, col 15: "
        "coefficients of A sum to 2147483648, which exceeds 32-bit range\n"
    )
