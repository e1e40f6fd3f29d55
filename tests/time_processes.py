"""Time whole `python -m opnbounds` processes under two source trees.

    python3 tests/time_processes.py OLD_SRC NEW_SRC --reps 21

OLD_SRC and NEW_SRC are src/ directories, each holding an opnbounds
package. Every README subcommand runs at the sizes of perfbench's workloads:
describe; optimize, verify and scan at the steepest slopes 8/3 and 21/8
(scan at the boxes 40 and 9, --jobs 1); frontier over 58 slopes k/19 in
[0, 3] on both systems; census --max 400000, lemmas 1 at 15000 and 2 at
4*10^6, each --jobs 2; classify of a prime below 10^9. A first row, floor,
times `python -c "import gc; gc.freeze()"`, the interpreter alone: a CLI
process freezes its heap at exit too, so `-c pass` would sit above it.
Each rep runs a command once per tree, in a fresh process with PYTHONPATH
set to that tree and no other PYTHON* variable, and the tree that goes
first alternates.
One unrecorded warm-up run per command and tree writes the bytecode caches
first. Prints per command the median wall time under each tree, the
difference and in how many reps NEW_SRC was faster, then the same for the
child's CPU time: user plus system from os.wait4. A command that exits non-zero stops the run.
"""
import argparse
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

CERTIFICATES = Path(__file__).resolve().parent.parent / "certificates"
MODULE = ("-m", "opnbounds")
FLOOR = ["-c", "import gc; gc.freeze()"]
FRONTIER_SLOPES = ",".join(str(Fraction(k, 19)) for k in range(58))


def commands(work: Path) -> list:
    """(label, argv) for every timed command; --out paths lie under work."""
    systems = (("three_coprime", "8/3", "40", "paper_no3.json"),
               ("three_divides", "21/8", "9", "paper_with3.json"))
    out = [("describe", ["describe", "--system", "three_divides"])]
    for system, slope, box, cert in systems:
        where = ["--system", system]
        out += [
            (f"optimize {slope}", ["optimize", *where, "--slope", slope,
                                   "--out", str(work / f"{system}.json")]),
            (f"verify {slope}", ["verify", *where, "--cert", str(CERTIFICATES / cert)]),
            (f"scan {slope}", ["scan", *where, "--slope", slope, "--box", box,
                               "--jobs", "1"]),
        ]
    out += [(f"frontier {system}", ["frontier", "--system", system, "--slopes",
                                    FRONTIER_SLOPES, "--out", str(work / system)])
            for system, _, _, _ in systems]
    jobs = ["--jobs", "2"]
    return out + [
        ("census", ["census", "--max", "400000", *jobs]),
        ("lemmas 1", ["lemmas", "--which", "1", "--max", "15000", *jobs]),
        ("lemmas 2", ["lemmas", "--which", "2", "--max", "4000000", *jobs]),
        ("classify", ["classify", "999999937"]),
    ]


def timed(src: Path, argv: list, work: Path, launch=MODULE) -> tuple:
    """(wall seconds, CPU seconds) of one `python -m opnbounds argv` process
    under src, or of `python argv` for launch=(); the CPU is the child's
    user plus system time."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(src), PYTHONIOENCODING="utf-8")
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *launch, *argv], env=env, cwd=work,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} under {src} exited {proc.returncode}: "
                 f"{err.decode(errors='replace').strip()}")
    return seconds, usage.ru_utime + usage.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, metavar="OLD_SRC")
    parser.add_argument("new", type=Path, metavar="NEW_SRC")
    parser.add_argument("--reps", type=int, default=21)
    args = parser.parse_args()
    if args.reps < 1:
        sys.exit("error: --reps must be at least 1")
    trees = (args.old.resolve(), args.new.resolve())
    for src in trees:
        if not (src / "opnbounds" / "__main__.py").is_file():
            sys.exit(f"error: no opnbounds package under {src}")
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        print(f"{'command':<24}{'old ms':>9}{'new ms':>9}{'diff ms':>9}{'new wins':>10}"
              f"{'old cpu':>9}{'new cpu':>9}{'diff':>9}{'new wins':>10}")
        rows = [("floor", FLOOR, ()), *((label, argv, MODULE) for label, argv in commands(work))]
        for label, argv, launch in rows:
            for src in trees:
                timed(src, argv, work, launch)
            runs = ([], [])  # (wall, cpu) per rep and tree
            for rep in range(args.reps):
                for side in ((0, 1) if rep % 2 == 0 else (1, 0)):
                    runs[side].append(timed(trees[side], argv, work, launch))
            line = f"{label:<24}"
            for k in (0, 1):  # wall, then CPU
                old, new = ([run[k] for run in side] for side in runs)
                wins = sum(n < o for o, n in zip(old, new))
                old_ms, new_ms = median(old) * 1000, median(new) * 1000
                line += (f"{old_ms:9.1f}{new_ms:9.1f}{new_ms - old_ms:+9.1f}"
                         f"{f'{wins}/{args.reps}':>10}")
            print(line, flush=True)


if __name__ == "__main__":
    main()
