"""Command-line front end.

Subcommands: eval (single point), scan (dense grid), minimize (bounded
search), validate (self-check suite), sample (finite-shot estimate), shots
(raw shot dump), figure (canned datasets fig1 and fig2).  Exit codes: 0
success, 1 failed validation checks, 2 invalid arguments, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from ._version import __version__
from .bell import (
    AngleGeometry,
    MinimizeOptions,
    _evaluate_with_joints,
    _write_scan_csv,
    minimize,
    scan,
    scan_zero_delta,
    write_json,
)
from .coarse_grain import (
    DEFAULT_TAIL_EPSILON,
    GridTooLarge,
    QuadratureBudgetExceeded,
)
from .entropy import InvalidDistribution
from .experiment_sim import DEFAULT_BOOTSTRAP, empirical_d_qm, sample_pairs
from .gaussian_core import TmsvParams, TruncationNotConverged
from .validation import run_checks

# ArithmeticError: overflow or division by zero in float arithmetic at extreme squeezing
_NUMERIC_ERRORS = (GridTooLarge, QuadratureBudgetExceeded, TruncationNotConverged,
                   InvalidDistribution, ArithmeticError)


def _add_common(parser, formats: tuple[str, ...], tail_epsilon: bool = True) -> None:
    if tail_epsilon:
        parser.add_argument("--tail-epsilon", type=float, default=DEFAULT_TAIL_EPSILON,
                            help="guaranteed uncaptured probability (default 1e-12)")
    parser.add_argument("--format", choices=formats, default=formats[0],
                        help=f"output format (default: {formats[0]})")
    parser.add_argument("--output", default=None,
                        help="write the payload here instead of standard output")
    parser.add_argument("--config", default=None,
                        help="JSON file whose keys mirror the long flags")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and kept for the process.

    Parsing leaves it unchanged: every default is immutable, and no handler
    writes to the parser.
    """
    parser = argparse.ArgumentParser(
        prog="entrobell",
        description="Entropic Bell inequality for coarse-grained homodyne "
                    "measurements on a two-mode squeezed vacuum.",
    )
    parser.add_argument("--version", action="version", version=f"entrobell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate d_qm at one parameter point")
    p_eval.add_argument("--r", type=float, required=True, help="squeezing parameter")

    p_scan = sub.add_parser("scan", help="dense d_qm grid at fixed bin width")
    p_min = sub.add_parser("minimize", help="search the (r, delta) box for the minimum")
    # scan and minimize take the (r, delta) box and the bin width alike
    for p in (p_scan, p_min):
        p.add_argument("--Delta", type=float, required=True, dest="delta_bin", help="bin width")
        p.add_argument("--r-range", type=float, nargs=2, default=(0.0, 2.0), metavar=("LO", "HI"))
        p.add_argument("--delta-range", type=float, nargs=2, default=(0.0, math.pi),
                       metavar=("LO", "HI"))
    p_scan.add_argument("--r-points", type=int, default=41)
    p_scan.add_argument("--delta-points", type=int, default=65)
    _add_common(p_scan, ("text", "json", "csv"))

    p_min.add_argument("--coarse-points", type=int, default=48,
                       help="coarse grid points per axis")
    p_min.add_argument("--refine-starts", type=int, default=8)
    _add_common(p_min, ("text", "json"))

    p_val = sub.add_parser("validate", help="run the self-check suite")
    p_val.add_argument("--quick", action="store_true",
                       help="trimmed suite, finishes in seconds")
    _add_common(p_val, ("text", "json"), tail_epsilon=False)

    p_sam = sub.add_parser("sample", help="finite-shot estimate of d_qm")
    p_shots = sub.add_parser("shots", help="raw (a, b) shots of one setting pair")
    for p in (p_sam, p_shots):
        p.add_argument("--r", type=float, required=True)
        p.add_argument("--n", type=int, required=True, help="shots per setting")
        p.add_argument("--seed", type=int, default=0)
    p_shots.add_argument("--phi-sum", type=float, required=True, help="phase sum of the pair")
    _add_common(p_shots, ("csv",), tail_epsilon=False)
    # eval and sample take the angle offset and the bin width alike
    for p in (p_eval, p_sam):
        offset = p.add_mutually_exclusive_group(required=True)
        offset.add_argument("--delta", type=float, help="angle offset, radians")
        offset.add_argument("--delta-pi", type=float, help="angle offset in units of pi")
        p.add_argument("--Delta", type=float, required=True, dest="delta_bin", help="bin width")
    p_eval.add_argument("--theta", type=float, default=0.0,
                        help="free base angle (result is invariant)")
    p_eval.add_argument("--mutual-info", action="store_true",
                        help="also report the mutual-information margin")
    p_eval.add_argument("--dump-dist", default=None, metavar="PREFIX",
                        help="dump the four binned joints to PREFIX.<pair>.csv")
    _add_common(p_eval, ("text", "json", "csv"))
    p_sam.add_argument("--no-miller-madow", action="store_true",
                       help="disable the entropy bias correction")
    p_sam.add_argument("--bootstrap", type=int, default=DEFAULT_BOOTSTRAP,
                       help="bootstrap resamples for the error bar")
    _add_common(p_sam, ("text", "json"), tail_epsilon=False)

    p_fig = sub.add_parser("figure", help="emit a canned dataset")
    # the figure name overwrites "figure" as args.command: dispatch and --config see the leaf
    figures = p_fig.add_subparsers(dest="command", required=True)
    p_fig1 = figures.add_parser("fig1", help="d_qm over (r, delta), one panel per bin width")
    p_fig1.add_argument("--Delta", type=float, nargs="+", default=(1.5, 3.5, 6.0),
                        dest="delta_bins", help="bin widths (default: 1.5 3.5 6)")
    p_fig1.add_argument("--r-range", type=float, nargs=2, default=(0.0, 2.0),
                        metavar=("LO", "HI"))
    p_fig1.add_argument("--r-points", type=int, default=41)
    p_fig1.add_argument("--delta-points", type=int, default=65,
                        help="angle-offset points over [0, pi]")
    _add_common(p_fig1, ("csv", "json"))
    p_fig2 = figures.add_parser("fig2", help="2 S(0) at delta = 0 over (r, Delta)")
    p_fig2.add_argument("--r-range", type=float, nargs=2, default=(0.0, 3.0),
                        metavar=("LO", "HI"))
    p_fig2.add_argument("--r-points", type=int, default=31)
    p_fig2.add_argument("--Delta-range", type=float, nargs=2, default=(0.5, 30.0),
                        dest="delta_bin_range", metavar=("LO", "HI"))
    p_fig2.add_argument("--Delta-points", type=int, default=30, dest="delta_bin_points")
    _add_common(p_fig2, ("csv", "json"))

    # the leaf parsers, keyed by the last subcommand word
    parser.subparser_map = {
        "eval": p_eval, "scan": p_scan, "minimize": p_min, "validate": p_val,
        "sample": p_sam, "shots": p_shots, "fig1": p_fig1, "fig2": p_fig2,
    }
    return parser


def _apply_config(parser, argv):
    """Parse argv with the --config values spliced in as flags ahead of its own.

    A key names a flag of the leaf by its destination; a list value gives
    several values, and a switch takes true or false.  Flags on the command
    line come later, so they win.
    """
    # the last --config value, in either spelling or abbreviated as argparse
    # allows; an ambiguous or valueless one is left to the parser to reject
    config = None
    for i, tok in enumerate(argv):
        if tok == "--":
            break
        name, eq, value = tok.partition("=")
        if len(name) > 2 and "--config".startswith(name):
            config = value if eq else next(
                (v for v in argv[i + 1:i + 2] if not v.startswith("-")), None)
    # the subcommand words ("eval", "figure fig1") lead argv
    n_words = next((i for i, tok in enumerate(argv) if tok.startswith("-")), len(argv))
    leaf = parser.subparser_map.get(argv[n_words - 1]) if n_words else None
    if config is None or leaf is None:
        return parser.parse_args(argv)
    try:
        with open(config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config {config}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"config {config} must hold a JSON object")
    # every flag of the leaf but --help
    flags = {a.dest: a for a in leaf._actions
             if a.option_strings and a.default is not argparse.SUPPRESS}
    unknown = [k for k in cfg if k not in flags]
    if unknown:
        parser.error(f"config keys not recognised: {', '.join(sorted(unknown))}")
    tokens = []
    for key, value in cfg.items():
        flag = flags[key].option_strings[-1]
        if value is None or (flags[key].nargs == 0) != isinstance(value, bool):
            parser.error(f"config value {json.dumps(value)} does not fit {flag}")
        if isinstance(value, bool):
            tokens += [flag] if value else []
        else:
            tokens += [flag, *map(str, value)] if isinstance(value, list) else [f"{flag}={value}"]
    return parser.parse_args(argv[:n_words] + tokens + argv[n_words:])


_PAIR_TAGS = ("ab_prime", "aprime_bprime", "aprime_b", "ab")


def _delta(args) -> float:
    """The angle offset in radians, given by --delta or --delta-pi."""
    return args.delta if args.delta_pi is None else args.delta_pi * math.pi


def _cmd_eval(args, parser):
    delta = _delta(args)
    g = AngleGeometry(delta=delta, theta=args.theta)
    # the dumps are the four joints that the evaluation was computed from
    joints = None if args.dump_dist is None else []
    ev = _evaluate_with_joints(TmsvParams(args.r), g.theta, g.theta_prime, g.phi, g.phi_prime,
                               args.delta_bin, args.tail_epsilon, delta, joints)
    for tag, dist in zip(_PAIR_TAGS, joints or ()):
        with open(f"{args.dump_dist}.{tag}.csv", "w", encoding="utf-8") as fh:
            dist.to_csv(fh)
    payload = ev.to_dict()
    if args.mutual_info:
        payload["mutual_info_margin"] = ev.mutual_info_margin
    if args.format == "json":
        return payload
    if args.format == "csv":
        return lambda fh: _write_scan_csv(fh, [(ev.r, delta, ev.delta_bin, ev.d_qm)])

    def write_text(fh) -> None:
        verdict = "violation" if ev.d_qm < 0 else "no violation"
        fh.write(f"r          = {ev.r:g}\n")
        fh.write(f"delta      = {delta:.10g}  ({delta / math.pi:.6g} pi)\n")
        fh.write(f"Delta      = {ev.delta_bin:g}\n")
        fh.write(f"theta      = {ev.theta:g}\n")
        fh.write(f"d_qm       = {ev.d_qm:.10f}  ({verdict})\n")
        fh.write(f"S(A|B')    = {ev.term_a_given_bprime:.10f}\n")
        fh.write(f"S(B'|A')   = {ev.term_bprime_given_aprime:.10f}\n")
        fh.write(f"S(A'|B)    = {ev.term_aprime_given_b:.10f}\n")
        fh.write(f"S(A|B)     = {ev.term_a_given_b:.10f}\n")
        if args.mutual_info:
            fh.write(f"MI margin  = {payload['mutual_info_margin']:.10f}\n")
        n_bins = 2 * ev.grid_l_max + 1
        fh.write(f"grid       = L {ev.grid_l_max} ({n_bins}x{n_bins} bins), "
                 f"tail epsilon {ev.tail_epsilon:g}\n")
    return write_text


def _cmd_scan(args, parser):
    r_lo, r_hi = args.r_range
    d_lo, d_hi = args.delta_range
    if args.r_points < 1 or args.delta_points < 1 or r_hi < r_lo or d_hi < d_lo:
        parser.error("scan ranges must be ordered and point counts positive")
    res = scan(
        np.linspace(r_lo, r_hi, args.r_points),
        np.linspace(d_lo, d_hi, args.delta_points),
        args.delta_bin, args.tail_epsilon,
    )
    if args.format == "json":
        return res.to_dict()
    if args.format == "csv":
        return res.to_csv
    d_min, r_at, d_at = res.min_entry()

    def write_text(fh) -> None:
        fh.write(f"scan: {args.r_points} r values x {args.delta_points} "
                 f"delta values at Delta = {args.delta_bin:g}\n")
        fh.write(f"grid minimum d_qm = {d_min:.10f} at r = {r_at:.6g}, "
                 f"delta = {d_at:.6g} ({d_at / math.pi:.6g} pi)\n")
        fh.write("use --format csv or json for the full matrix\n")
    return write_text


def _cmd_minimize(args, parser):
    res = minimize(args.r_range, args.delta_range, args.delta_bin, args.tail_epsilon,
                   options=MinimizeOptions(args.coarse_points, args.refine_starts))
    if args.format == "json":
        return res.to_dict()

    def write_text(fh) -> None:
        fh.write(f"d_min      = {res.d_min:.10f}\n")
        fh.write(f"r*         = {res.r_star:.6f}\n")
        fh.write(f"delta*     = {res.delta_star:.6f}  "
                 f"({res.delta_star / math.pi:.6g} pi)\n")
        fh.write(f"Delta      = {res.delta_bin:g}\n")
        fh.write(f"converged  = {res.converged}  "
                 f"({res.n_evaluations} evaluations)\n")
    return write_text


def _cmd_validate(args, parser):
    results = run_checks(quick=args.quick)
    failed = [res.name for res in results if not res.passed]
    if args.format == "json":
        return {
            "version": __version__,
            "quick": args.quick,
            "checks": [res.__dict__ for res in results],
            "failed": failed,
        }, failed

    def write_text(fh) -> None:
        for res in results:
            mark = "PASS" if res.passed else "FAIL"
            fh.write(f"[{mark}] {res.name} ({res.seconds:.2f} s): {res.detail}\n")
        fh.write(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return write_text, failed


def _cmd_sample(args, parser):
    delta = _delta(args)
    estimate, err = empirical_d_qm(
        TmsvParams(args.r), AngleGeometry(delta=delta), args.delta_bin, args.n, args.seed,
        miller_madow=not args.no_miller_madow, n_bootstrap=args.bootstrap,
    )
    if args.format == "json":
        return {
            "version": __version__,
            "kind": "sample",
            "r": args.r,
            "delta": delta,
            "Delta": args.delta_bin,
            "n_per_setting": args.n,
            "seed": args.seed,
            "miller_madow": not args.no_miller_madow,
            "bootstrap": args.bootstrap,
            "d_qm_estimate": estimate,
            "std_error": err,
        }
    return lambda fh: fh.write(f"d_qm estimate = {estimate:.6f} +/- {err:.6f} "
                               f"({args.n} shots per setting, seed {args.seed})\n")


def _cmd_shots(args, parser):
    return sample_pairs(TmsvParams(args.r), args.phi_sum, args.n, args.seed).to_csv


def _cmd_fig1(args, parser):
    if args.r_points < 1 or args.delta_points < 1:
        parser.error("figure point counts must be positive")
    r_lo, r_hi = args.r_range
    r_values = np.linspace(r_lo, r_hi, args.r_points)
    d_values = np.linspace(0.0, math.pi, args.delta_points)
    results = [scan(r_values, d_values, db, args.tail_epsilon) for db in args.delta_bins]
    if args.format == "json":
        return {
            "version": __version__,
            "kind": "fig1",
            "panels": [res.to_dict() for res in results],
        }
    return lambda fh: _write_scan_csv(fh, (row for res in results for row in res._csv_rows()))


def _cmd_fig2(args, parser):
    if args.r_points < 1 or args.delta_bin_points < 1:
        parser.error("figure point counts must be positive")
    (r_lo, r_hi), (db_lo, db_hi) = args.r_range, args.delta_bin_range
    res = scan_zero_delta(
        np.linspace(r_lo, r_hi, args.r_points),
        np.linspace(db_lo, db_hi, args.delta_bin_points),
        args.tail_epsilon,
    )
    return res.to_dict() if args.format == "json" else res.to_csv


# Each handler computes its result and returns what main writes: a JSON
# payload, or a function that writes the text or CSV to an open file.
# validate hands back its failed check names too.
_DISPATCH = {
    "eval": _cmd_eval,
    "scan": _cmd_scan,
    "minimize": _cmd_minimize,
    "validate": _cmd_validate,
    "sample": _cmd_sample,
    "shots": _cmd_shots,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = _apply_config(parser, sys.argv[1:] if argv is None else argv)
    try:
        out = _DISPATCH[args.command](args, parser.subparser_map[args.command])
        out, failed = out if isinstance(out, tuple) else (out, [])
        write = functools.partial(write_json, out) if isinstance(out, dict) else out
        # --output is opened only now, so a failed command creates or truncates no file
        if args.output is None or args.output == "-":
            write(sys.stdout)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                write(fh)
    except _NUMERIC_ERRORS as exc:
        print(f"entrobell: numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"entrobell: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"entrobell: cannot write output: {exc}", file=sys.stderr)
        return 2
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
