"""Command line front end.

Subcommands:
  analyze    rank/delay/zero analysis of a model file
  simulate   generate a ground-truth trajectory CSV
  filter     run the delayed filter over a measurement CSV
  reproduce  re-run a bundled reference system and check its facts

Every command prints a JSON report (schema_version 1) to stdout. Exit
codes: 0 success, 1 usage, input, I/O or overflow errors, 2 mathematical
infeasibility (no unbiased gain at the requested delay), 3 a failed fact.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .errors import DelayFilterError, EstimatesNotFinite, InfeasibleDelay, PencilDegenerate
from .filtering import (
    FIXED_SQUARE,
    TIME_VARYING_MINVAR,
    FilterConfig,
    classify_convergence,
    gain_spectral_radius,
    run_filter,
)
from .gain import square_gain, steady_state_gain, unbiasedness_residual
from .linalg import rms
from .markov import analyze_delays, minimal_delay
from .model import load_model_file
from .registry import (
    EXAMPLE_IDS,
    check_example_facts,
    default_noise,
    example_signals,
    reference_example,
)
from .csvio import read_measurements, write_estimates, write_trajectory
from .sim import simulate
from .signals import parse_signal_spec
from .zeros import invariant_zeros

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_FACT_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for
    infeasibility, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _nonnegative_arg(value):
    """A nonnegative integer, for --seed."""
    if not value.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value!r}")
    return int(value)


def _delay_arg(value):
    """'auto' or a nonnegative integer, for --delay."""
    return value if value == "auto" else _nonnegative_arg(value)


def _signal_arg(value):
    """A --e<i>/--u<i> signal spec; a malformed one is a usage error."""
    try:
        return parse_signal_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> _Parser:
    """The top-level parser, built on the first call and shared by every later one.

    Parsing leaves no state on the parser, so repeated `main` calls in one
    process reuse it instead of paying argparse's set-up again on each call.
    """
    parser = _Parser(prog="delayfilter",
                     description="Delayed state and unknown-input reconstruction filters.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[], help="rank/delay/zero analysis",
                        description="Analyze feasible delays, invariant zeros and the "
                                    "convergence class at the minimal delay.")
    pa.add_argument("model", help="model JSON file")

    ps = sub.add_parser("simulate", help="generate a trajectory CSV",
                        description="Simulate the system. Unknown-input channels take "
                                    "--e1 KIND:AMP:PERIOD[:PHASE] and so on; known-input "
                                    "channels take --u1 ... (default zero). Kinds: sine, "
                                    "sawtooth, step, constant, prbs, gaussian.")
    ps.add_argument("model")
    ps.add_argument("--T", type=int, default=200, help="horizon, rows = T+1 (default 200)")
    ps.add_argument("--seed", type=_nonnegative_arg, default=0)
    ps.add_argument("--noise", choices=("on", "off"), default="off")
    ps.add_argument("--out", default="trajectory.csv")

    pf = sub.add_parser("filter", help="run the filter over measurements",
                        description="Run the delayed filter over a measurement CSV "
                                    "(header k,y1..yl[,u1..um]; trailing x/e truth "
                                    "columns from a simulation are ignored).")
    pf.add_argument("model")
    pf.add_argument("measurements")
    pf.add_argument("--delay", type=_delay_arg, default=None,
                    help="reconstruction delay, an integer or 'auto' (default: value "
                         "from the model file, else auto)")
    pf.add_argument("--out", default="estimates.csv")

    pr = sub.add_parser("reproduce", help="re-run a bundled example",
                        description=f"Known ids: {', '.join(EXAMPLE_IDS)}")
    pr.add_argument("example")
    pr.add_argument("--outdir", default=".")

    return parser


def _print_report(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _zeros_json(model) -> dict:
    try:
        return invariant_zeros(model).to_json_dict()
    except PencilDegenerate as exc:
        return {"error": f"PencilDegenerate: {exc}"}


def _gain_policy(model, noise):
    """(gain mode, noise, noise_defaulted): a square model's one unbiased gain, else
    the minimum-variance gain, under the default noise pair when the file has none."""
    if model.l == model.p:
        return FIXED_SQUARE, noise, False
    defaulted = noise is None
    return TIME_VARYING_MINVAR, default_noise(model) if defaulted else noise, defaulted


def _gain_for_verdict(model, noise, r):
    """(L, summary dict, noise_defaulted) at delay r."""
    mode, noise, defaulted = _gain_policy(model, noise)
    if mode == FIXED_SQUARE:
        res = square_gain(model, r)
        converged = None
    else:
        # the cap bounds the covariance steps of a non-unique gain that never stabilises
        res, _, converged = steady_state_gain(model, noise, r, max_iter=2000)
    summary = {
        "method": res.method,
        "residual": float(res.residual),
        "spectral_radius": gain_spectral_radius(model, r, res.L),
    }
    if converged is not None:
        summary["steady_state_converged"] = bool(converged)
    return res.L, summary, defaulted


def cmd_analyze(args) -> int:
    model, noise, _ = load_model_file(args.model)
    analysis = analyze_delays(model)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "model_file": args.model,
        "dimensions": {"n": model.n, "m": model.m, "l": model.l, "p": model.p},
        "delay_analysis": analysis.to_json_dict(),
        "zeros": _zeros_json(model),
    }
    if analysis.minimal_delay is None:
        report["verdict"] = None
        report["gain"] = None
        _print_report(report)
        return EXIT_INFEASIBLE
    r = analysis.minimal_delay
    L, summary, defaulted = _gain_for_verdict(model, noise, r)
    report["gain"] = summary
    report["noise_defaulted"] = defaulted
    report["verdict"] = classify_convergence(model, r, L)
    _print_report(report)
    return EXIT_OK


def cmd_simulate(args, rest, parser) -> int:
    model, noise, _ = load_model_file(args.model)
    # the channel flags depend on the model, so they get a parser of their own
    channels = _Parser(prog="delayfilter simulate", allow_abbrev=False)
    for c in range(1, model.p + 1):
        channels.add_argument(f"--e{c}", type=_signal_arg, required=True, metavar="SPEC")
    for c in range(1, model.m + 1):
        channels.add_argument(f"--u{c}", type=_signal_arg, default="constant:0",
                              metavar="SPEC")
    flags = vars(channels.parse_args(rest))
    e_specs = [flags[f"e{c}"] for c in range(1, model.p + 1)]
    u_specs = [flags[f"u{c}"] for c in range(1, model.m + 1)]

    defaulted = args.noise == "on" and noise is None
    if defaulted:
        noise = default_noise(model)
    elif args.noise == "off":
        noise = None
    if args.T < 1:
        parser.error("--T must be >= 1")

    traj = simulate(model, noise, e_specs, args.T, seed=args.seed, u_signals=u_specs)
    write_trajectory(args.out, traj)
    _print_report({
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "model_file": args.model,
        "out": args.out,
        "rows": args.T + 1,
        "seed": args.seed,
        "noise": args.noise,
        "noise_defaulted": defaulted,
    })
    return EXIT_OK


def _resolve_delay(flag_value, file_value, model):
    """Delay precedence: --delay flag, then model file, then auto."""
    chosen = flag_value if flag_value is not None else file_value
    if chosen is None or chosen == "auto":
        chosen = minimal_delay(model)
        if chosen is None:
            raise InfeasibleDelay("no feasible delay exists for this model")
    return chosen


def _filter_rows(model, noise, r, mode, y, u):
    """The filter's run from a zero estimate, and its rows [xhat | ehat | innov] per k.

    Every row after the warm-up must be finite: the estimates CSV writes
    NaN rows as empty warm-up rows, and an overflowed estimate says nothing.
    """
    config = FilterConfig(r=r, gain_mode=mode, initial_estimate=np.zeros(model.n),
                          initial_covariance=np.eye(model.n))
    run = run_filter(model, noise, config, y, u)
    if run.nonfinite_at is not None:
        raise EstimatesNotFinite(
            f"estimates are not finite from k={run.nonfinite_at}: the error dynamics "
            f"diverge (spectral radius {gain_spectral_radius(model, r, run.L):.3g})")
    return run, np.hstack([run.state_estimates, run.input_estimates, run.innovations])


def cmd_filter(args) -> int:
    model, noise, file_delay = load_model_file(args.model)
    _, y, u = read_measurements(args.measurements, model.l, model.m)
    r = _resolve_delay(args.delay, file_delay, model)
    mode, noise, defaulted = _gain_policy(model, noise)
    run, rows = _filter_rows(model, noise, r, mode, y, u)
    write_estimates(args.out, rows, model.n, model.p, model.l)

    innovations = run.innovations[r + 1:]
    L = run.L
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "filter",
        "model_file": args.model,
        "measurements": args.measurements,
        "delay": r,
        "gain": {
            "mode": mode,
            "residual": unbiasedness_residual(model, r, L),
            "spectral_radius": gain_spectral_radius(model, r, L),
            "frozen_at": run.frozen_at,
        },
        "verdict": classify_convergence(model, r, L),
        "noise_defaulted": defaulted,
        "innovation_rms": rms(innovations),
        "emitted": len(innovations),
        "out": args.out,
    }
    _print_report(report)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    model, noise, _ = reference_example(args.example)
    results = check_example_facts(args.example)

    os.makedirs(args.outdir, exist_ok=True)
    traj = simulate(model, None, example_signals(model), 200, seed=7)
    traj_path = os.path.join(args.outdir, f"{args.example}-trajectory.csv")
    write_trajectory(traj_path, traj)
    files = [traj_path]

    estimates_skipped = None
    r = minimal_delay(model)
    if r is None:
        estimates_skipped = "no feasible delay"
    else:
        mode, noise, _ = _gain_policy(model, noise)
        try:
            _, rows = _filter_rows(model, noise, r, mode, traj.y, traj.u)
        except DelayFilterError as exc:
            # A gain that cannot be built or checked, or estimates that overflow,
            # leave nothing to write; the facts still decide the exit code. A
            # divergent gain freezes, and over 200 steps its estimates stay finite.
            estimates_skipped = f"{type(exc).__name__}: {exc}"
        else:
            est_path = os.path.join(args.outdir, f"{args.example}-estimates.csv")
            write_estimates(est_path, rows, model.n, model.p, model.l)
            files.append(est_path)

    all_passed = all(f.passed for f in results)
    _print_report({
        "schema_version": SCHEMA_VERSION,
        "command": "reproduce",
        "example": args.example,
        "facts": [{"name": f.name, "passed": f.passed, "detail": f.detail}
                  for f in results],
        "files": files,
        "estimates_skipped": estimates_skipped,
        "all_passed": all_passed,
    })
    return EXIT_OK if all_passed else EXIT_FACT_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if rest and args.command != "simulate":
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        if args.command == "simulate":
            return cmd_simulate(args, rest, parser)
        commands = {"analyze": cmd_analyze, "filter": cmd_filter, "reproduce": cmd_reproduce}
        return commands[args.command](args)
    except InfeasibleDelay as exc:
        print(f"delayfilter: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DelayFilterError, OSError) as exc:     # OSError: an unwritable --out or --outdir
        print(f"delayfilter: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console() -> None:
    sys.exit(main())
