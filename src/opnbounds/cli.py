"""Command-line front end.

Every command is deterministic: the same flags produce byte-identical
output. Rationals print as n/d strings, never as decimals. Exit codes:
0 success or pass, 1 domain failure (failed verification, unbounded slope,
lemma violations), 2 usage or parse errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .certificates import (CertificateFormatError, certificate_to_dict,
                           load_certificate, save_certificate,
                           verify_certificate)
from .lemmas import (BUCKETS, CELLS, RESIDUES, bucket_census, classify_prime,
                     lemma1_scan, lemma2_scan, lemma2_violations)
from .lp import UnboundedSlopeError, best_constant, frontier
from .model import Case, Var, build_system, describe_system, render_bound
from .rationals import format_rational, parse_rational
from .enumeration import integer_scan


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _rational(text: str):
    try:
        return parse_rational(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _add_system_flags(sub):
    sub.add_argument("--system", required=True,
                     choices=[case.value for case in Case],
                     help="which case of the 3 | N split to build")
    sub.add_argument("--f3-min2", choices=["on", "off"], default="off",
                     help="include the extra constraint f3 >= 2 "
                          "(three_divides only; default off)")


def _add_jobs_flag(sub):
    sub.add_argument("--jobs", type=_positive_int, default=None,
                     help="worker processes (default: all cores); "
                          "results do not depend on this")


def _system_from(args):
    return build_system(Case(args.system), args.f3_min2 == "on")


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def cmd_verify(args) -> int:
    try:
        cert = load_certificate(args.cert)
    except (OSError, CertificateFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = _system_from(args)
    report = verify_certificate(system, cert)
    if args.format == "json":
        _emit_json({
            "verdict": report.verdict,
            "failure_reason": report.failure_reason,
            "derived_slope": None if report.derived_slope is None
            else format_rational(report.derived_slope),
            "derived_constant": None if report.derived_constant is None
            else format_rational(report.derived_constant),
            "residuals": {var.name: format_rational(value)
                          for var, value in report.residuals.items()},
        })
    else:
        print(f"verdict: {report.verdict}")
        if report.passed:
            print(f"derived: {render_bound(report.derived_slope, report.derived_constant)}")
            nonzero = [(var, value) for var, value in report.residuals.items() if value]
            if nonzero:
                print("nonzero residuals: "
                      + ", ".join(f"{var.name} = {format_rational(value)}"
                                  for var, value in nonzero))
        else:
            print(f"reason: {report.failure_reason}")
    return 0 if report.passed else 1


def cmd_optimize(args) -> int:
    system = _system_from(args)
    try:
        bound = best_constant(system, args.slope)
    except UnboundedSlopeError as exc:
        print(f"unbounded: {exc}", file=sys.stderr)
        return 1
    if args.out:
        save_certificate(bound.certificate, args.out)
        # prove the on-disk artifact, not just the in-memory object
        report = verify_certificate(system, load_certificate(args.out))
        if not report.passed:
            print(f"error: saved certificate failed verification: "
                  f"{report.failure_reason}", file=sys.stderr)
            return 1
    if args.format == "json":
        _emit_json({
            "slope": format_rational(bound.slope),
            "constant": format_rational(bound.constant),
            "bound": render_bound(bound.slope, bound.constant),
            "witness": {var.name: format_rational(value)
                        for var, value in bound.witness.items()},
            "certificate": certificate_to_dict(bound.certificate),
        })
    else:
        print(format_rational(bound.constant))
    return 0


def cmd_frontier(args) -> int:
    system = _system_from(args)
    try:
        slopes = [parse_rational(part.strip())
                  for part in args.slopes.split(",") if part.strip()]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    writer = _csv_writer()
    writer.writerow(["slope", "constant", "certificate_path"])
    for row in frontier(system, slopes):
        slope_text = format_rational(row.slope)
        if row.constant is None:
            writer.writerow([slope_text, "unbounded", ""])
            continue
        path = ""
        if args.out:
            name = f"slope_{row.slope.numerator}_{row.slope.denominator}.json"
            path = os.path.join(args.out, name)
            save_certificate(row.certificate, path)
        writer.writerow([slope_text, format_rational(row.constant), path])
    return 0


def cmd_lemmas(args) -> int:
    if args.which == "1":
        violations = lemma1_scan(args.max, jobs=args.jobs)
        if args.format == "json":
            _emit_json({"violations": [
                {"a": v.a, "b": v.b, "p": v.p, "bound": format_rational(v.bound)}
                for v in violations]})
        elif args.format == "csv":
            writer = _csv_writer()
            writer.writerow(["a", "b", "p", "bound"])
            for v in violations:
                writer.writerow([v.a, v.b, v.p, format_rational(v.bound)])
        else:
            print(f"{len(violations)} violations")
            for v in violations:
                print(f"a={v.a} b={v.b} p={v.p} bound={format_rational(v.bound)}")
        return 1 if violations else 0

    solutions = lemma2_scan(args.max, jobs=args.jobs)
    violations = lemma2_violations(solutions)
    if args.format == "json":
        _emit_json({"solutions": [
            {"p": s.p, "q": s.q, "r": s.r, "p_is_odd_prime": s.p_is_odd_prime}
            for s in solutions]})
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["p", "q", "r", "p_is_odd_prime"])
        for s in solutions:
            writer.writerow([s.p, s.q, s.r, str(s.p_is_odd_prime).lower()])
    else:
        if violations:
            print(f"{len(violations)} odd-prime p solutions")
        else:
            print("no odd-prime p solution")
        print(f"incidental solutions: {len(solutions)}")
        for s in solutions:
            print(f"p={s.p} q={s.q} r={s.r}")
    return 1 if violations else 0


def cmd_census(args) -> int:
    counts = bucket_census(args.max, jobs=args.jobs)
    if args.format == "json":
        _emit_json({bucket: {str(residue): counts[(bucket, residue)]
                             for residue in RESIDUES}
                    for bucket in BUCKETS})
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["bucket", "residue", "count"])
        for bucket, residue in CELLS:
            writer.writerow([bucket, residue, counts[(bucket, residue)]])
    else:
        for bucket, residue in CELLS:
            print(f"{bucket} residue {residue}: {counts[(bucket, residue)]}")
    return 0


def cmd_classify(args) -> int:
    try:
        info = classify_prime(args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit_json({"p": info.prime, "residue": info.residue,
                    "sigma": info.sigma, "factors": list(info.factors),
                    "bucket": info.bucket})
    else:
        print(f"p = {info.prime}")
        print(f"p^2 + p + 1 = {info.sigma} = {' * '.join(map(str, info.factors))}")
        print(f"bucket = {info.bucket}")
        print(f"residue = {info.residue}")
    return 0


def cmd_scan(args) -> int:
    system = _system_from(args)
    try:
        result = integer_scan(system, args.slope, args.box, jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit_json({
            "minimum": None if result.minimum is None
            else format_rational(result.minimum),
            "witness": None if result.witness is None
            else {var.name: result.witness[var] for var in Var},
        })
    elif result.minimum is None:
        print("no feasible point in box")
    else:
        print(f"minimum: {format_rational(result.minimum)}")
        print("witness: " + " ".join(f"{var.name}={result.witness[var]}"
                                     for var in Var))
    return 0


def cmd_describe(args) -> int:
    print(describe_system(_system_from(args)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opnbounds",
        description="Exact-arithmetic bounds on the prime factorization "
                    "shape of odd perfect numbers")
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify", help="check a certificate file against a system")
    _add_system_flags(verify)
    verify.add_argument("--cert", required=True, help="certificate JSON path")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.set_defaults(func=cmd_verify)

    optimize = commands.add_parser(
        "optimize", help="best provable constant for a slope, with certificate")
    _add_system_flags(optimize)
    optimize.add_argument("--slope", required=True, type=_rational)
    optimize.add_argument("--out", help="write the dual certificate here")
    optimize.add_argument("--format", choices=["text", "json"], default="text")
    optimize.set_defaults(func=cmd_optimize)

    front = commands.add_parser(
        "frontier",
        help="best constants for several slopes; CSV slope,constant,certificate_path")
    _add_system_flags(front)
    front.add_argument("--slopes", default="",
                       help="comma-separated slopes, e.g. 2,8/3")
    front.add_argument("--out", help="directory for the row certificates")
    front.set_defaults(func=cmd_frontier)

    lemmas = commands.add_parser(
        "lemmas", help="check a supporting lemma: 1 by a polynomial sieve "
                       "over p^2+p+1, 2 by its Pell recurrence")
    lemmas.add_argument("--which", required=True, choices=["1", "2"])
    lemmas.add_argument("--max", required=True, type=_positive_int,
                        help="scan bound (primes for 1, p for 2)")
    _add_jobs_flag(lemmas)
    lemmas.add_argument("--format", choices=["text", "csv", "json"],
                        default="text")
    lemmas.set_defaults(func=cmd_lemmas)

    census = commands.add_parser(
        "census", help="bucket x residue counts of odd primes above 3")
    census.add_argument("--max", required=True, type=_positive_int)
    _add_jobs_flag(census)
    census.add_argument("--format", choices=["text", "csv", "json"],
                        default="text")
    census.set_defaults(func=cmd_census)

    classify = commands.add_parser(
        "classify", help="bucket and residue of one odd prime above 3")
    classify.add_argument("p", type=int)
    classify.add_argument("--format", choices=["text", "json"], default="text")
    classify.set_defaults(func=cmd_classify)

    scan = commands.add_parser(
        "scan", help="exact integer minimum of Omega - slope*omega over a box")
    _add_system_flags(scan)
    scan.add_argument("--slope", required=True, type=_rational)
    scan.add_argument("--box", required=True, type=_positive_int,
                      help="free variables range over 0..box")
    _add_jobs_flag(scan)
    scan.add_argument("--format", choices=["text", "json"], default="text")
    scan.set_defaults(func=cmd_scan)

    describe = commands.add_parser(
        "describe", help="print the constraint table of a system")
    _add_system_flags(describe)
    describe.set_defaults(func=cmd_describe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
