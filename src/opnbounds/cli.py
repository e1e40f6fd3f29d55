"""Command-line front end.

Every command is deterministic: the same flags produce byte-identical
output. Rationals print as n/d strings, never as decimals. Exit codes:
0 success or pass, 1 domain failure (failed verification, unbounded slope,
lemma violations), 2 usage, parse or output errors. A write to stdout
that fails, as on a full disk or a closed pipe, exits 2 with one line
"error: cannot write output: ..." on stderr.

A handler imports the modules it runs when it runs, and build_parser
gives arguments only to the subcommand named first, so a process loads
only what its subcommand uses. A process runs the CLI through run, which
freezes the heap (gc.freeze) when main returns, so the collections of
interpreter teardown skip every object left; main itself never freezes.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys


def _int(text: str, message: str) -> int:
    """int(text); text that is no integer fails with message, and one int()
    refuses for another reason (CPython's 4300-digit limit) with that
    reason, which names no digit of text."""
    try:
        return int(text)
    except ValueError as exc:
        reason = message if str(exc).startswith("invalid literal") else str(exc)
        raise argparse.ArgumentTypeError(reason) from None


def _integer(text: str) -> int:
    return _int(text, f"invalid int value: {text!r}")


def _positive_int(text: str) -> int:
    value = _int(text, f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _rational(text: str):
    from .rationals import parse_rational
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _slope_list(text: str) -> list:
    """The slopes of a comma-separated list; blank entries are skipped."""
    from .rationals import parse_rational
    return [parse_rational(part.strip()) for part in text.split(",") if part.strip()]


def _system_from(args):
    from .model import Case, build_system
    return build_system(Case(args.system), args.f3_min2 == "on")


def _error(message, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


class _OutputError(Exception):
    """The OSError of a failed write to stdout; str() gives its message."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and usage on stdout are written by _emit,
    so a failed write raises _OutputError; argparse's own write swallows
    the OSError. Subparsers take this class too."""

    def _print_message(self, message, file=None):
        # sys.stdout is None when fd 1 was closed at start-up
        if file is None or file is not sys.stdout:
            return super()._print_message(message, file)
        _emit("text", message.splitlines())


def _emit(fmt: str, text, payload=None, header=(), rows=()) -> None:
    """Print one result: payload as JSON, header and rows as CSV (booleans
    spelled as in JSON), or else the text lines. Fractions are spelled n/d
    in all three. A failed write raises _OutputError."""
    try:
        if fmt == "json":
            import json

            from .rationals import format_rational
            print(json.dumps(payload, indent=2, ensure_ascii=False, default=format_rational))
        elif fmt == "csv":
            import csv
            import json
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([json.dumps(cell) if isinstance(cell, bool) else cell
                              for cell in row] for row in rows)
        else:
            for line in text:
                print(line)
    except OSError as exc:
        raise _OutputError(exc) from exc


def cmd_verify(args) -> int:
    from .certificates import CertificateFormatError, load_certificate, verify_certificate
    from .model import render_bound
    from .rationals import format_rational
    try:
        cert = load_certificate(args.cert)
    except (OSError, CertificateFormatError) as exc:
        return _error(exc)
    report = verify_certificate(_system_from(args), cert)
    text = [f"verdict: {report.verdict}"]
    if report.passed:
        text.append(f"derived: {render_bound(report.derived_slope, report.derived_constant)}")
        nonzero = [f"{var.name} = {format_rational(value)}"
                   for var, value in report.residuals.items() if value]
        if nonzero:
            text.append("nonzero residuals: " + ", ".join(nonzero))
    else:
        text.append(f"reason: {report.failure_reason}")
    _emit(args.format, text, {
        "verdict": report.verdict,
        "failure_reason": report.failure_reason,
        "derived_slope": report.derived_slope,
        "derived_constant": report.derived_constant,
        "residuals": {var.name: value for var, value in report.residuals.items()},
    })
    return 0 if report.passed else 1


def cmd_optimize(args) -> int:
    from .certificates import (certificate_to_dict, load_certificate, save_certificate,
                               verify_certificate)
    from .lp import UnboundedSlopeError, best_constant
    from .model import render_bound
    from .rationals import format_rational
    system = _system_from(args)
    try:
        bound = best_constant(system, args.slope)
    except UnboundedSlopeError as exc:
        print(f"unbounded: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            save_certificate(bound.certificate, args.out)
            # prove the on-disk artifact, not just the in-memory object
            report = verify_certificate(system, load_certificate(args.out))
        except OSError as exc:
            return _error(exc)
        if not report.passed:
            return _error(f"saved certificate failed verification: "
                          f"{report.failure_reason}", 1)
    _emit(args.format, [format_rational(bound.constant)], {
        "slope": bound.slope,
        "constant": bound.constant,
        "bound": render_bound(bound.slope, bound.constant),
        "witness": {var.name: value for var, value in bound.witness.items()},
        "certificate": certificate_to_dict(bound.certificate),
    })
    return 0


def cmd_frontier(args) -> int:
    from .certificates import save_certificate
    from .lp import frontier
    system = _system_from(args)
    try:
        slopes = _slope_list(args.slopes)
    except ValueError as exc:
        return _error(f"argument --slopes: {exc}")
    rows = []
    try:
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        for row in frontier(system, slopes):
            constant, path = row.constant, ""
            if constant is None:
                constant = "unbounded"
            elif args.out:
                name = f"slope_{row.slope.numerator}_{row.slope.denominator}.json"
                path = os.path.join(args.out, name)
                save_certificate(row.certificate, path)
            rows.append((row.slope, constant, path))
    except OSError as exc:
        return _error(exc)
    _emit("csv", (), header=("slope", "constant", "certificate_path"), rows=rows)
    return 0


def cmd_lemmas(args) -> int:
    from .lemmas import lemma1_scan, lemma2_scan
    try:
        found = (lemma1_scan(args.max, jobs=args.jobs) if args.which == "1"
                 else lemma2_scan(args.max))
    except ValueError as exc:
        return _error(exc)
    if args.which == "1":
        key, header = "violations", ("a", "b", "p", "bound")
        rows = [(v.a, v.b, v.p, v.bound) for v in found]
        failures = len(rows)
        text, shown = [f"{failures} violations"], header
    else:
        key, header = "solutions", ("p", "q", "r", "p_is_odd_prime")
        rows = [(s.p, s.q, s.r, s.p_is_odd_prime) for s in found]
        failures = sum(row[3] for row in rows)
        text = [f"{failures} odd-prime p solutions" if failures
                else "no odd-prime p solution", f"incidental solutions: {len(rows)}"]
        shown = header[:3]  # the text lines leave out p_is_odd_prime
    text += [" ".join(f"{name}={value}" for name, value in zip(shown, row))
             for row in rows]
    _emit(args.format, text, {key: [dict(zip(header, row)) for row in rows]},
          header, rows)
    return 1 if failures else 0


def cmd_census(args) -> int:
    from .lemmas import BUCKETS, CELLS, RESIDUES, bucket_census
    try:
        counts = bucket_census(args.max, jobs=args.jobs)
    except ValueError as exc:
        return _error(exc)
    rows = [(bucket, residue, counts[(bucket, residue)]) for bucket, residue in CELLS]
    _emit(args.format,
          [f"{bucket} residue {residue}: {count}" for bucket, residue, count in rows],
          {bucket: {str(residue): counts[(bucket, residue)] for residue in RESIDUES}
           for bucket in BUCKETS},
          ("bucket", "residue", "count"), rows)
    return 0


def cmd_classify(args) -> int:
    from .lemmas import classify_prime
    try:
        info = classify_prime(args.p)
    except ValueError as exc:
        return _error(exc)
    _emit(args.format, [
        f"p = {info.prime}",
        f"p^2 + p + 1 = {info.sigma} = {' * '.join(map(str, info.factors))}",
        f"bucket = {info.bucket}",
        f"residue = {info.residue}",
    ], {"p": info.prime, "residue": info.residue, "sigma": info.sigma,
        "factors": list(info.factors), "bucket": info.bucket})
    return 0


def cmd_scan(args) -> int:
    from .enumeration import integer_scan
    from .model import Var
    from .rationals import format_rational
    try:
        result = integer_scan(_system_from(args), args.slope, args.box, jobs=args.jobs)
    except ValueError as exc:
        return _error(exc)
    if result.minimum is None:
        witness, text = None, ["no feasible point in box"]
    else:
        witness = {var.name: result.witness[var] for var in Var}
        text = [f"minimum: {format_rational(result.minimum)}",
                "witness: " + " ".join(f"{name}={value}"
                                       for name, value in witness.items())]
    _emit(args.format, text, {"minimum": result.minimum, "witness": witness})
    return 0


def cmd_describe(args) -> int:
    from .model import describe_system
    _emit("text", [describe_system(_system_from(args))])
    return 0


# argument specs: (name, add_argument keywords)
_SYSTEM = (
    ("--system", dict(required=True, choices=["three_coprime", "three_divides"],
                      help="which case of the 3 | N split to build")),
    ("--f3-min2", dict(choices=["on", "off"], default="off",
                       help="include the extra constraint f3 >= 2 "
                            "(three_divides only; default off)")),
)
_JOBS = ("--jobs", dict(type=_positive_int, default=None,
                        help="worker processes (default: all usable cores); "
                             "results do not depend on this"))
_SLOPE = ("--slope", dict(required=True, type=_rational))
_FORMAT = ("--format", dict(choices=["text", "json"], default="text"))
_FORMAT_CSV = ("--format", dict(choices=["text", "csv", "json"], default="text"))


# subcommands in help order: (name, handler, help, arguments in order)
_COMMANDS = (
    ("verify", cmd_verify, "check a certificate file against a system", (
        *_SYSTEM,
        ("--cert", dict(required=True, help="certificate JSON path")),
        _FORMAT)),
    ("optimize", cmd_optimize, "best provable constant for a slope, with certificate", (
        *_SYSTEM, _SLOPE,
        ("--out", dict(help="write the dual certificate here")),
        _FORMAT)),
    ("frontier", cmd_frontier,
     "best constants for several slopes; CSV slope,constant,certificate_path", (
         *_SYSTEM,
         ("--slopes", dict(default="", help="comma-separated slopes, e.g. 2,8/3")),
         ("--out", dict(help="directory for the row certificates")))),
    ("lemmas", cmd_lemmas, "check a supporting lemma: 1 by a walk over the "
                           "primes that can divide two p^2+p+1, 2 by its Pell recurrence", (
        ("--which", dict(required=True, choices=["1", "2"])),
        ("--max", dict(required=True, type=_positive_int,
                       help="scan bound (primes for 1, p for 2)")),
        _JOBS, _FORMAT_CSV)),
    ("census", cmd_census, "bucket x residue counts of odd primes above 3", (
        ("--max", dict(required=True, type=_positive_int)),
        _JOBS, _FORMAT_CSV)),
    ("classify", cmd_classify, "bucket and residue of one odd prime above 3", (
        ("p", dict(type=_integer)),
        _FORMAT)),
    ("scan", cmd_scan, "exact integer minimum of Omega - slope*omega over a box", (
        *_SYSTEM, _SLOPE,
        ("--box", dict(required=True, type=_positive_int,
                       help="free variables range over 0..box")),
        _JOBS, _FORMAT)),
    ("describe", cmd_describe, "print the constraint table of a system", _SYSTEM),
)


def _parses(parse, text: str) -> bool:
    try:
        parse(text)
    except (ValueError, argparse.ArgumentTypeError):
        return False
    return True


# flags whose value may start with "-", with the parse the value must pass
_SIGNED = {"--slope": _rational, "--slopes": _slope_list}


def _join_signed_values(argv: list) -> list:
    """argv with "--slope -5/6" spelled "--slope=-5/6", and likewise for
    --slopes, where the command takes the flag and the next token parses.

    argparse reads a token such as "-5/6" as an option and stops with
    "expected one argument"; joining it to its flag keeps it a value. Any
    other token is left as it is, so every other usage error is too.
    """
    taken = {flag for name, _, _, arguments in _COMMANDS if argv and name == argv[0]
             for flag, _ in arguments if flag in _SIGNED}
    out, i = [], 0
    while i < len(argv) and argv[i] != "--":
        token, value = argv[i], argv[i + 1] if i + 1 < len(argv) else ""
        if token in taken and value.startswith("-") and _parses(_SIGNED[token], value):
            token, i = f"{token}={value}", i + 1
        out.append(token)
        i += 1
    return out + argv[i:]


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, where only the subcommand named command has its
    arguments, or every one when command names none. A parse that starts
    with command reads no other subcommand's arguments, so its help, errors
    and result are those of the parser with every subcommand built."""
    named = any(name == command for name, _, _, _ in _COMMANDS)
    parser = _Parser(
        prog="opnbounds",
        description="Exact-arithmetic bounds on the prime factorization "
                    "shape of odd perfect numbers")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in _COMMANDS:
        sub = commands.add_parser(name, help=help_text)
        if name == command or not named:
            for flag, options in arguments:
                sub.add_argument(flag, **options)
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(_join_signed_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def run(argv=None) -> int:
    """main(argv) for a process that exits when this returns.

    stdout is flushed here, so a write that fails, in _emit or in this
    flush, exits 2 with one error line; fd 1 then points at os.devnull, so
    the interpreter's own exit flush of what is left stays silent. Any
    other exception propagates. Last, gc.freeze() moves every object the
    GC tracks to the permanent generation, which the collections of
    interpreter teardown skip.
    """
    try:
        code = main(argv)
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError as exc:
            raise _OutputError(exc) from exc
    except _OutputError as exc:
        code = _error(f"cannot write output: {exc}")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
