"""Command line front end: analyze, certify, simulate, equilibrium.

Exit codes: 0 success (certified where applicable), 2 valid input whose
network fails the certification or equilibrium hypotheses, 1 any error,
a usage error included.
``analyze``, ``certify`` and ``equilibrium`` always print JSON; ``--json``
is a ``simulate`` flag that puts a JSON summary in place of the CSV on
stdout.  JSON documents carry ``"schema": "crn-cert/2"``.  A ``certify``
document holds one verdict per minimal semi-locking set, and has no
``"siphons"`` key when a hypothesis fails, since siphons are then not
enumerated.

``main`` reads the network and writes every JSON document except
``simulate``'s, adding the schema key, to ``--out`` or stdout.  Each
handler takes the parsed network and returns its document and exit code;
``simulate`` writes its own CSV and JSON, and a refused ``equilibrium``
only its reason on stderr, so both return ``None`` for the document.

``analyze`` and ``certify`` are exact and load neither numpy nor
``dynamics``; ``simulate`` and ``equilibrium`` import them when they run.
Every error the package raises is a ``ValueError`` or an
``ArithmeticError``: the numeric ``IntegrationError`` and
``ConvergenceError`` derive from the latter, as ``ratlin.ExactBudgetError``
does, which the siphon search and the exact LP raise at their work
bounds.  So ``main`` catches them without naming any module's class.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .certify import OverallStatus, certify
from .network import ParseError, parse_network_file
from .siphons import minimal_semi_locking_sets
from .structure import structure_report

if TYPE_CHECKING:
    import numpy as np

SCHEMA = "crn-cert/2"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _parse_vector(text: str, m: int, flag: str) -> np.ndarray:
    from .dynamics import _checked

    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of numbers") from None
    return _checked(values, m, flag, positive=True)


def cmd_analyze(net, args: argparse.Namespace) -> tuple[Optional[dict], int]:
    report = structure_report(net)
    catalog = minimal_semi_locking_sets(net)
    doc = {"structure": report.to_json_dict(), "siphons": catalog.to_json_list(net.species)}
    return doc, EXIT_OK


def cmd_certify(net, args: argparse.Namespace) -> tuple[Optional[dict], int]:
    cert = certify(net)
    code = EXIT_OK if cert.overall is OverallStatus.GLOBALLY_STABLE else EXIT_NOT_CERTIFIED
    return cert.to_json_dict(), code


def cmd_simulate(net, args: argparse.Namespace) -> tuple[Optional[dict], int]:
    import numpy as np

    from .dynamics import (
        MASS_ACTION,
        ConvergenceError,
        HypothesesError,
        _check_run,
        find_equilibrium,
        persistence_margin,
        simulate,
        write_trajectory_csv,
    )

    m = net.num_species
    _check_run(args.t_end, args.rtol, args.atol, ("--t-end", "--rtol", "--atol"))
    if args.seed < 0:
        raise ValueError("--seed must be a nonnegative integer")
    if args.x0 is not None:
        x0 = _parse_vector(args.x0, m, "--x0")
    else:
        rng = np.random.default_rng(args.seed)
        x0 = rng.uniform(0.5, 1.5, size=m)

    try:
        x_ref = find_equilibrium(net, x0).x_bar
    except (HypothesesError, ConvergenceError):
        # V needs a complex-balanced reference; without one, or without one in
        # floats, the run goes on and V is nan.
        x_ref = None
    traj = simulate(net, MASS_ACTION, x0, args.t_end, rtol=args.rtol, atol=args.atol, x_ref=x_ref)

    final_v = float(traj.lyapunov[-1])
    margin = persistence_margin(traj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_trajectory_csv(traj, net.species, fh)
    if args.json:
        # JSON summary on stdout; the full CSV only lands in --out.
        doc = {
            "schema": SCHEMA,
            "t_end": args.t_end,
            "steps": len(traj),
            "final_state": [float(v) for v in traj.states[-1]],
            "final_V": None if math.isnan(final_v) else final_v,
            "persistence_margin": margin,
            "max_conservation_residual": float(traj.conservation_residual.max()),
        }
        sys.stdout.write(_json_text(doc))
        return None, EXIT_OK
    if not args.out:
        write_trajectory_csv(traj, net.species, sys.stdout)
    print(f"persistence_margin={margin!r} final_V={final_v!r}", file=sys.stderr)
    return None, EXIT_OK


def cmd_equilibrium(net, args: argparse.Namespace) -> tuple[Optional[dict], int]:
    from .dynamics import HypothesesError, find_equilibrium, lyapunov

    c = _parse_vector(args.c, net.num_species, "--c")
    try:
        result = find_equilibrium(net, c)
    except HypothesesError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return None, EXIT_NOT_CERTIFIED
    v_value, _ = lyapunov(result.class_anchor, result.x_bar)
    return {**result.to_json_dict(), "lyapunov_at_anchor": v_value}, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crn-cert",
        description="Analyze, certify and simulate mass-action reaction networks (.crn files)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input .crn network file")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.set_defaults(handler=handler)
        return p

    add("analyze", cmd_analyze, "structure report and minimal semi-locking sets (JSON)")
    add("certify", cmd_certify, "global-stability certificate (JSON; exit 0 iff certified)")

    p_sim = add("simulate", cmd_simulate, "integrate the ODE and emit a trajectory CSV")
    p_sim.add_argument("--json", action="store_true", help="a JSON summary replaces the CSV on stdout")
    p_sim.add_argument("--x0", help="initial state, comma-separated positive values")
    p_sim.add_argument("--t-end", type=float, default=50.0, dest="t_end")
    p_sim.add_argument("--rtol", type=float, default=1e-8)
    p_sim.add_argument("--atol", type=float, default=1e-10)
    p_sim.add_argument("--seed", type=int, default=0, help="seed for a random x0 when --x0 is absent")

    p_eq = add("equilibrium", cmd_equilibrium, "class equilibrium for an anchor point (JSON)")
    p_eq.add_argument("--c", required=True, help="class anchor, comma-separated positive values")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as "not certified".
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        doc, code = args.handler(parse_network_file(args.file), args)
        if doc is not None:
            text = _json_text({"schema": SCHEMA, **doc})
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
