"""Append one benchmark entry to a BENCH_*.json file: for one source tree,
or for a parent tree and a change tree run in alternation.

    python3 tests/bench.py SRC --label parent --reps 11 --out BENCH_21.json
    python3 tests/bench.py PARENT_SRC CHANGE_SRC --reps 11 --out BENCH_33.json

Each SRC is a src/ directory holding an opnbounds package. An entry holds
the commit of each tree's checkout (`git describe --always --dirty`, null
outside git), the usable cores (the CPU affinity set where the platform
reports one, else the core count), the Python version and REPS, and two
parts:

- processes: per command of time_processes.commands(), `python -m
  opnbounds` processes under each tree, timed by time_processes.timed
  after one unrecorded warm-up run per tree;
- functions: the in-process pass, traced by perfbench/tracing.py's
  Tracer, which records calls, seconds and self seconds for every function
  in its TARGETS. The pass runs frontier on both systems over the 2137
  slopes k/d in [0, 3] with d <= 48, bucket_census(4*10^6),
  lemma1_scan(10^6), lemma2_scan(4*10^6), integer_scan at 8/3 with box 40
  and at 21/8 with box 9, classify_prime(999999937) and sieve(4*10^6).

With one SRC the entry has its --label, the medians of REPS runs per
command (wall and child CPU seconds) and one traced pass in this process.
With two, it is a paired entry: first each tree's bytecode caches are
written the same way (compileall), then the process runs alternate
parent, change, change, parent, ... for REPS pairs per command, and the
traced pass runs REPS rounds, each in a fresh interpreter per tree, in the
same alternation. Each row stores the parent's and the change's median and
in how many pairs the change was lower.

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

from time_processes import alternate, clean_env, commands, timed

ROOT = Path(__file__).resolve().parent.parent
# a fresh interpreter's traced pass: argv is this directory and the tree
TRACED = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
          "import bench; print(json.dumps(bench.traced_pass(Path(sys.argv[2]))))")
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


def paired(parent: list, change: list) -> dict:
    """Both medians of paired samples and in how many pairs the change's
    was lower."""
    return {"parent": median(parent), "change": median(change),
            "change_wins": sum(c < p for p, c in zip(parent, change))}


def paired_processes(trees: tuple, reps: int) -> dict:
    """{command: {wall_s, cpu_s}} of time_processes' commands, each a
    paired row over reps alternating pairs."""
    rows = {}
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        for label, argv in commands(work):
            runs = alternate(trees, argv, work, reps)
            rows[label] = {key: paired(*([run[k] for run in side] for side in runs))
                           for k, key in enumerate(("wall_s", "cpu_s"))}
    return rows


def fresh_traced_pass(src: Path) -> dict:
    """traced_pass(src) in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", TRACED, str(ROOT / "tests"), str(src)],
                          env=clean_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: the traced pass under {src} exited {proc.returncode}: "
                 f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def paired_functions(trees: tuple, reps: int) -> dict:
    """{function: {calls, s, self_s}}: the calls of each tree's last round
    and paired rows of seconds over reps alternating rounds."""
    passes = ([], [])
    for rnd in range(reps):
        for side in ((0, 1) if rnd % 2 == 0 else (1, 0)):
            passes[side].append(fresh_traced_pass(trees[side]))
    return {name: {"calls": [side[-1][name]["calls"] for side in passes],
                   **{key: paired(*([run[name][key] for run in side] for side in passes))
                      for key in ("s", "self_s")}}
            for name in passes[0][0]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, nargs="+", metavar="SRC",
                        help="one tree, or a parent tree and a change tree")
    parser.add_argument("--label", help="the entry's label (one tree only)")
    parser.add_argument("--reps", type=int, default=11)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    trees = tuple(src.resolve() for src in args.src)
    if len(trees) > 2:
        sys.exit("error: give one SRC, or a parent SRC and a change SRC")
    if (len(trees) == 1) != (args.label is not None):
        sys.exit("error: --label goes with one SRC, and only with one")
    for src in trees:
        if not (src / "opnbounds" / "__main__.py").is_file():
            sys.exit(f"error: no opnbounds package under {src}")
    if args.reps < 1:
        sys.exit("error: --reps must be at least 1")
    head = {"usable_cores": usable_cores(), "python": platform.python_version(),
            "reps": args.reps}
    if len(trees) == 1:
        walls, cpus = process_medians(trees[0], args.reps)
        entry = {"label": args.label, "commit": commit(trees[0]), **head,
                 "processes_median_s": walls, "processes_median_cpu_s": cpus,
                 "functions": traced_pass(trees[0])}
    else:
        for src in trees:
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                           env=clean_env(), check=True)
        entry = {"label": "paired", "parent": commit(trees[0]), "change": commit(trees[1]),
                 **head, "processes": paired_processes(trees, args.reps),
                 "functions": paired_functions(trees, args.reps)}
    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    args.out.write_text(json.dumps([*entries, entry], indent=2) + "\n")


if __name__ == "__main__":
    main()
