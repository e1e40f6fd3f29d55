"""Seeded inputs, command lists and output checks for the three workloads.

A workload is a list of `opnbounds` CLI commands that one client runs one
after another (a closed loop with a single client). Each command carries a
check that reads its exit code and stdout and returns None when the output
is right, or a message naming what is wrong. The seed fixes every generated
input; the program receives only the generated command lines.

Why these workloads:

- lp_frontier: two long `frontier` sweeps; almost all simplex, lp and
  certificates, no primes. Slopes fall on both sides of the breakpoint at 2
  and past both tips, so solves end optimal and unbounded.
- box_crosscheck: `optimize`, `verify` and `scan --jobs 1` per slope; many
  short cold processes, with enumeration taking most of the time and the
  worker pool never started.
- nt_scans: census, both lemma scans at `--jobs 2` and `classify` on seeded
  primes; primes, lemmas and the worker pool, no LP.
"""
from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable, Optional

from opnbounds.certificates import load_certificate, verify_certificate
from opnbounds.enumeration import is_feasible
from opnbounds.model import Case, Var, build_system, describe_system

NAMES = ("lp_frontier", "box_crosscheck", "nt_scans")

COPRIME = Case.THREE_COPRIME
DIVIDES = Case.THREE_DIVIDES
# steepest supported slope per system; the paper's bounds sit exactly there
TIP = {COPRIME: Fraction(8, 3), DIVIDES: Fraction(21, 8)}
PAPER_CONSTANT = {COPRIME: Fraction(-7, 3), DIVIDES: Fraction(-39, 8)}

CENSUS_REFERENCE = Path(__file__).resolve().parent / "census_reference.json"

Check = Callable[[int, str], Optional[str]]


@dataclass
class Command:
    kind: str          # stage name, used for per-stage timings
    argv: list         # arguments after `python -m opnbounds`
    check: Check


@dataclass
class Workload:
    name: str
    seed: int
    inputs: dict
    commands: list
    # command lines whose stdout must not depend on --jobs
    determinism: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        text = json.dumps(self.inputs, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def judge(command: Command, returncode: int, stdout: str) -> Optional[str]:
    """The command's check; output too malformed to parse is a failure too."""
    try:
        return command.check(returncode, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def closed_form(case: Case, slope: Fraction) -> Optional[Fraction]:
    """Best constant for a slope, or None past the tip: the two-piece
    frontier min(1-a, 3-2a) (coprime) and min(1-2a, 3-3a) (divides)."""
    if slope > TIP[case]:
        return None
    if case is COPRIME:
        return min(1 - slope, 3 - 2 * slope)
    return min(1 - 2 * slope, 3 - 3 * slope)


def all_slopes(max_den: int = 48, top: int = 3) -> list:
    """Every distinct k/d in [0, top] with d <= max_den, ascending."""
    return sorted({Fraction(k, d) for d in range(1, max_den + 1)
                   for k in range(top * d + 1)})


def with_jobs(argv: list, jobs: int) -> list:
    """The same command line with --jobs set to the given count."""
    out = list(argv)
    if "--jobs" in out:
        out[out.index("--jobs") + 1] = str(jobs)
    return out


def setup_command() -> Command:
    """The no-op every run times for setup_s: interpreter start, import,
    argument parsing and one small system build."""
    want = describe_system(build_system(DIVIDES)) + "\n"

    def check(rc, out):
        return exit_problem(rc) or (None if out == want else "describe output differs")
    return Command("describe", ["describe", "--system", DIVIDES.value], check)


def build(name: str, seed: int, smoke: bool, workdir: Path,
          census_reference: Optional[dict] = None) -> Workload:
    """The workload's commands for a seed. smoke shrinks every size so a
    pass takes about a second. census_reference replaces the pinned counts
    (the self-test corrupts one cell this way)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "lp_frontier":
        return _lp_frontier(rng, seed, smoke, workdir)
    if name == "box_crosscheck":
        return _box_crosscheck(rng, seed, smoke, workdir)
    if name == "nt_scans":
        if census_reference is None:
            census_reference = json.loads(CENSUS_REFERENCE.read_text())["counts"]
        return _nt_scans(rng, seed, smoke, census_reference)
    raise ValueError(f"unknown workload: {name}")


# ---------------------------------------------------------------- lp_frontier

def _lp_frontier(rng, seed, smoke, workdir) -> Workload:
    slopes = all_slopes()
    regions = (  # (low, high, count full, count smoke), high inclusive
        (Fraction(0), Fraction(2), 30, 2),
        (Fraction(2), TIP[DIVIDES], 14, 2),
        (TIP[DIVIDES], TIP[COPRIME], 4, 1),
        (TIP[COPRIME], Fraction(3), 10, 1),
    )
    chosen = []
    for low, high, full, small in regions:
        pool = [a for a in slopes if (low < a or low == 0) and a <= high]
        chosen += rng.sample(pool, small if smoke else full)
    chosen.sort()
    commands = [Command("frontier",
                        ["frontier", "--system", case.value,
                         "--slopes", ",".join(map(str, chosen)),
                         "--out", str(workdir / case.value)],
                        _check_frontier(case, chosen, workdir / case.value))
                for case in (COPRIME, DIVIDES)]
    inputs = {"slopes": [str(a) for a in chosen]}
    return Workload("lp_frontier", seed, inputs, commands)


def _check_certificate(case, path, slope, constant) -> Optional[str]:
    try:
        cert = load_certificate(path)
    except (OSError, ValueError) as exc:
        return f"certificate {path}: {exc}"
    if cert.claimed_slope != slope or cert.claimed_constant != constant:
        return f"certificate {path} claims {cert.claimed_slope}, {cert.claimed_constant}"
    report = verify_certificate(build_system(case), cert)
    if not report.passed:
        return f"certificate {path} fails: {report.failure_reason}"
    return None


def _check_frontier(case, slopes, outdir) -> Check:
    def check(rc, out):
        if rc != 0:
            return exit_problem(rc)
        rows = list(csv.reader(out.splitlines()))
        if rows[:1] != [["slope", "constant", "certificate_path"]]:
            return "frontier header differs"
        if len(rows) - 1 != len(slopes):
            return f"frontier printed {len(rows) - 1} rows for {len(slopes)} slopes"
        for slope, row in zip(slopes, rows[1:]):
            want = closed_form(case, slope)
            if want is None:
                if row != [str(slope), "unbounded", ""]:
                    return f"{case.value} slope {slope}: want unbounded, got {row}"
                continue
            path = str(outdir / f"slope_{slope.numerator}_{slope.denominator}.json")
            if row != [str(slope), str(want), path]:
                return f"{case.value} slope {slope}: want {want}, got {row}"
            problem = _check_certificate(case, path, slope, want)
            if problem:
                return problem
        return None
    return check


# ------------------------------------------------------------- box_crosscheck

def _box_crosscheck(rng, seed, smoke, workdir) -> Workload:
    boxes = {DIVIDES: 4 if smoke else 9, COPRIME: 10 if smoke else 40}
    slopes = all_slopes()
    commands = []
    inputs = {}
    for case in (DIVIDES, COPRIME):
        seeded = rng.sample([a for a in slopes if a < TIP[case]], 1)
        inputs[case.value] = {"box": boxes[case],
                              "slopes": [str(a) for a in seeded + [TIP[case]]]}
        for slope in seeded + [TIP[case]]:
            want = closed_form(case, slope)
            cert = workdir / f"{case.value}_{slope.numerator}_{slope.denominator}.json"
            system = ["--system", case.value]
            commands += [
                Command("optimize",
                        ["optimize", *system, "--slope", str(slope), "--out", str(cert)],
                        _check_optimize(case, slope, want, cert)),
                Command("verify", ["verify", *system, "--cert", str(cert)], _check_verify),
                Command("scan",
                        ["scan", *system, "--slope", str(slope),
                         "--box", str(boxes[case]), "--jobs", "1"],
                        _check_scan(case, slope, want)),
            ]
    determinism = [["scan", "--system", DIVIDES.value, "--slope", "21/8",
                    "--box", "5", "--jobs", "1"],
                   ["scan", "--system", COPRIME.value, "--slope", "8/3",
                    "--box", "12", "--jobs", "1"]]
    return Workload("box_crosscheck", seed, inputs, commands, determinism)


def _check_optimize(case, slope, want, cert) -> Check:
    def check(rc, out):
        if rc != 0:
            return exit_problem(rc)
        if out != f"{want}\n":
            return f"optimize {case.value} {slope}: want {want}, got {out.strip()!r}"
        return _check_certificate(case, cert, slope, want)
    return check


def _check_verify(rc, out):
    if rc != 0:
        return exit_problem(rc)
    return None if out.startswith("verdict: pass\n") else "verify did not pass"


def _check_scan(case, slope, lp_constant) -> Check:
    """The integer minimum is never below the LP constant, and meets it at
    the paper slopes; the witness must be feasible and attain the minimum."""
    def check(rc, out):
        if rc != 0:
            return exit_problem(rc)
        lines = out.splitlines()
        if len(lines) != 2 or not lines[0].startswith("minimum: "):
            return f"scan output malformed: {out[:80]!r}"
        minimum = Fraction(lines[0][len("minimum: "):])
        if minimum < lp_constant:
            return f"scan {case.value} {slope}: {minimum} below LP {lp_constant}"
        if slope == TIP[case] and minimum != PAPER_CONSTANT[case]:
            return f"scan {case.value} {slope}: want {PAPER_CONSTANT[case]}, got {minimum}"
        point = {Var[k]: int(v) for k, v in
                 (part.split("=") for part in lines[1][len("witness: "):].split())}
        if not is_feasible(build_system(case), point):
            return f"scan {case.value} {slope}: witness infeasible"
        if point[Var.Omega] - slope * point[Var.omega] != minimum:
            return f"scan {case.value} {slope}: witness does not attain {minimum}"
        return None
    return check


# ------------------------------------------------------------------- nt_scans

def _nt_scans(rng, seed, smoke, census_reference) -> Workload:
    sizes = ({"census": 20000, "lemma1": 2000, "lemma2": 100000, "classify": 2}
             if smoke else
             {"census": 400000, "lemma1": 15000, "lemma2": 4000000, "classify": 5})
    # below 1e9 Brent rho on p^2+p+1 stays within milliseconds
    primes = []
    while len(primes) < sizes["classify"]:
        p = rng.randrange(10**8, 10**9)
        if _is_prime_trial(p) and p not in primes:
            primes.append(p)
    jobs = ["--jobs", "2"]
    reference = census_reference[str(sizes["census"])]
    commands = [
        Command("census", ["census", "--max", str(sizes["census"]), *jobs],
                _check_census(reference)),
        Command("lemma1", ["lemmas", "--which", "1", "--max", str(sizes["lemma1"]), *jobs],
                _check_lemma1),
        Command("lemma2", ["lemmas", "--which", "2", "--max", str(sizes["lemma2"]), *jobs],
                _check_lemma2(sizes["lemma2"])),
    ] + [Command("classify", ["classify", str(p)], _check_classify(p)) for p in primes]
    determinism = [["census", "--max", "20000", "--jobs", "1"],
                   ["lemmas", "--which", "1", "--max", "2000", "--jobs", "1"],
                   ["lemmas", "--which", "2", "--max", "100000", "--jobs", "1"]]
    inputs = dict(sizes, primes=primes)
    return Workload("nt_scans", seed, inputs, commands, determinism)


def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _check_census(reference: dict) -> Check:
    def check(rc, out):
        if rc != 0:
            return exit_problem(rc)
        got = dict(line.rsplit(": ", 1) for line in out.splitlines())
        for cell, count in reference.items():
            if got.get(cell) != str(count):
                return f"census {cell}: want {count}, got {got.get(cell)}"
        return None if len(got) == len(reference) else "census has extra cells"
    return check


def _check_lemma1(rc, out):
    if rc != 0:
        return exit_problem(rc)
    return None if out == "0 violations\n" else f"lemma 1: {out.splitlines()[0]}"


def pell_solutions(max_p: int) -> list:
    """p of every solution up to max_p by p_{k+1} = 4 p_k - p_{k-1} + 1
    from (2, 9)."""
    out = []
    a, b = 2, 9
    while a <= max_p:
        out.append(a)
        a, b = b, 4 * b - a + 1
    return out


def _check_lemma2(max_p: int) -> Check:
    want = pell_solutions(max_p)

    def check(rc, out):
        if rc != 0:
            return exit_problem(rc)
        lines = out.splitlines()
        if lines[:2] != ["no odd-prime p solution", f"incidental solutions: {len(want)}"]:
            return f"lemma 2 header: {lines[:2]}"
        got = []
        for line in lines[2:]:
            p, q, r = (int(part.split("=")[1]) for part in line.split())
            if r != p * p + p + 1 or q * q + q + 1 != 3 * r:
                return f"lemma 2: {line} is not a solution"
            got.append(p)
        return None if got == want else f"lemma 2: p values {got}, want {want}"
    return check


def _check_classify(p: int) -> Check:
    sigma = p * p + p + 1

    def check(rc, out):
        if rc != 0:
            return exit_problem(rc)
        lines = out.splitlines()
        head = f"p^2 + p + 1 = {sigma} = "
        if len(lines) != 4 or lines[0] != f"p = {p}" or not lines[1].startswith(head):
            return f"classify {p}: output malformed"
        factors = [int(f) for f in lines[1][len(head):].split(" * ")]
        product = 1
        for f in factors:
            product *= f
        if product != sigma or factors != sorted(factors) or factors[0] < 2:
            return f"classify {p}: factors {factors} do not give {sigma}"
        bucket = ("S1", "S2", "S3plus")[min(len(factors), 3) - 1]
        if lines[2:] != [f"bucket = {bucket}", f"residue = {p % 3}"]:
            return f"classify {p}: {lines[2:]}"
        return None
    return check


def exit_problem(rc: int) -> Optional[str]:
    return None if rc == 0 else f"exit code {rc}"
