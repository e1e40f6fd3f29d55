"""Append one benchmark entry for a source tree to a BENCH_*.json file.

    python3 tests/bench.py SRC --label parent --reps 11 --out BENCH_21.json

SRC is a src/ directory holding an opnbounds package. The entry holds the
label, the commit of SRC's checkout (`git describe --always --dirty`, null
outside git), the usable cores (the CPU affinity set where the platform
reports one, else the core count) and the Python version, and two parts:

- processes: per command of time_processes.commands(), the median wall
  seconds and the median child CPU seconds of REPS `python -m opnbounds`
  processes under SRC, run through time_processes.timed after one
  unrecorded warm-up run;
- functions: one in-process pass, traced by perfbench/tracing.py's
  Tracer, which records calls, seconds and self seconds for every function
  in its TARGETS. The pass runs frontier on both systems over the 2137
  slopes k/d in [0, 3] with d <= 48, bucket_census(4*10^6),
  lemma1_scan(10^6), lemma2_scan(4*10^6), integer_scan at 8/3 with box 40
  and at 21/8 with box 9, classify_prime(999999937) and sieve(4*10^6).

The file holds a JSON list of entries; a missing file starts a new list.
Like time_processes.py, pytest does not collect this file.
"""
import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

from time_processes import commands, timed

ROOT = Path(__file__).resolve().parent.parent
SLOPES = sorted({Fraction(k, d) for d in range(1, 49) for k in range(3 * d + 1)})


def commit(src: Path):
    """git describe of the checkout holding src, or None outside git."""
    proc = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty",
                           "--abbrev=40"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def process_medians(src: Path, reps: int) -> tuple:
    """({command: median wall seconds}, {command: median CPU seconds}) of
    time_processes' commands under src."""
    walls, cpus = {}, {}
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        for label, argv in commands(work):
            timed(src, argv, work)
            runs = [timed(src, argv, work) for _ in range(reps)]
            walls[label] = median(wall for wall, _ in runs)
            cpus[label] = median(cpu for _, cpu in runs)
    return walls, cpus


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity set where the
    platform reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def traced_pass(src: Path) -> dict:
    """{function: {calls, s, self_s}} of the in-process pass, with opnbounds
    imported from src."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import tracing
    modules = {layer: importlib.import_module(f"opnbounds.{layer}") for layer in tracing.LAYERS}
    if not Path(modules["lemmas"].__file__).resolve().is_relative_to(src):
        sys.exit(f"error: opnbounds was not imported from {src}")
    model, lp, lemmas = modules["model"], modules["lp"], modules["lemmas"]
    coprime = model.build_system(model.Case.THREE_COPRIME, False)
    divides = model.build_system(model.Case.THREE_DIVIDES, False)
    # attributes are looked up at call time, so each call goes through the
    # wrapper that Tracer.install put in place
    steps = [
        lambda: lp.frontier(coprime, SLOPES),
        lambda: lp.frontier(divides, SLOPES),
        lambda: lemmas.bucket_census(4 * 10**6),
        lambda: lemmas.lemma1_scan(10**6),
        lambda: lemmas.lemma2_scan(4 * 10**6),
        lambda: modules["enumeration"].integer_scan(coprime, Fraction(8, 3), 40),
        lambda: modules["enumeration"].integer_scan(divides, Fraction(21, 8), 9),
        lambda: lemmas.classify_prime(999999937),
        lambda: modules["primes"].sieve(4 * 10**6),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        start = perf_counter()
        for step in steps:
            step()
        seconds = perf_counter() - start
    finally:
        tracer.active = False
        tracer.uninstall()
    summary = tracer.summary(seconds)["functions"]
    functions = {}
    for layer, names in tracing.TARGETS.items():
        for name in names:
            entry = summary.get(f"{layer}.{name}", {"calls": 0, "s": 0.0, "self_s": 0.0})
            functions[f"{layer}.{name}"] = {key: entry[key] for key in ("calls", "s", "self_s")}
    return functions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, metavar="SRC")
    parser.add_argument("--label", required=True)
    parser.add_argument("--reps", type=int, default=11)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "opnbounds" / "__main__.py").is_file():
        sys.exit(f"error: no opnbounds package under {src}")
    if args.reps < 1:
        sys.exit("error: --reps must be at least 1")
    walls, cpus = process_medians(src, args.reps)
    functions = traced_pass(src)
    entry = {"label": args.label, "commit": commit(src), "usable_cores": usable_cores(),
             "python": platform.python_version(), "reps": args.reps,
             "processes_median_s": walls, "processes_median_cpu_s": cpus,
             "functions": functions}
    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    args.out.write_text(json.dumps([*entries, entry], indent=2) + "\n")


if __name__ == "__main__":
    main()
