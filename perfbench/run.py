"""Seeded end-to-end and per-layer benchmark for opnbounds.

    python3 perfbench/run.py --workload lp_frontier --seed 1 --seconds 38 --trace 0

Runs from the root of a source tree; the package is not installed, so every
command is `python -m opnbounds ...` with PYTHONPATH set to this tree's
src/. A run times a no-op `describe` (setup_s), checks that census, lemmas
and scan print the same at --jobs 1 and 2, then repeats the workload's
command list for --seconds, one client running one command at a time, with
one more `describe` before each pass. Every command's output is checked;
failed/attempted counts the commands with a wrong output or exit code.

Times are medians over the passes. wall_ref and cpu_ref divide a pass's wall
and child CPU time by the median of reference_seconds(), a fixed job timed
beside every command: on a shared host the raw times swing by a third from
minute to minute and the quotient does not. The raw seconds are printed too.

With --trace 1 the same inputs are instead replayed in this process at
jobs=1, once plain and once with spans around each module's public
functions, and the per-layer metrics come from the traced pass. The spans
go to .perfbench/ in the tree.

--workload all runs the three workloads in turn. --smoke shrinks every size
for a quick check; perfbench/selftest.py uses it.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))
try:
    from opnbounds import cli
except ImportError as exc:
    sys.exit(f"error: no opnbounds source under {SRC}: {exc}")

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import NAMES, exit_problem, judge, setup_command, with_jobs  # noqa: E402

SETUP_RUNS = 3
COMMAND_TIMEOUT = 120.0  # seconds; no command here takes a tenth of it
# census size for the jobs=1 against jobs=2 scaling probe
SCALING_CENSUS = {False: 100000, True: 20000}
# spans shorter than this are counted in the function table but not written
SPAN_FLOOR_S = 1e-3


@dataclass
class Ledger:
    """Commands attempted and failed, with the first failure messages."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")


@dataclass
class CommandRun:
    returncode: int
    stdout: str
    wall: float
    cpu: float        # user + system of the child and the workers it waited for


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    by_kind: dict = field(default_factory=dict)

    def add(self, kind: str, run: CommandRun) -> None:
        self.wall += run.wall
        self.cpu += run.cpu
        self.by_kind[kind] = self.by_kind.get(kind, 0.0) + run.wall


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python job that belongs to the benchmark:
    exact rational elimination of a 9x9 system three times and an integer
    loop, about 15 ms on a 2.1 GHz Xeon. No change to opnbounds moves it,
    while the slow swings in speed of a shared host move it and the commands
    alike, so times divided by it stay steady from run to run."""
    start = perf_counter()
    n = 9
    for _ in range(3):
        rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] + [Fraction(i + 1)]
                for i in range(n)]
        for c in range(n):
            pivot = rows[c][c]
            rows[c] = [v / pivot for v in rows[c]]
            for r in range(n):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    total = 0
    for i in range(60000):
        total += i * i % 7
    return perf_counter() - start


class Bench:
    """One workload's run: its commands, scratch directory and ledger."""

    def __init__(self, workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.ledger = Ledger()
        self.peak_rss_kb = 0
        self.setup_walls = []
        self.references = []
        # children import this tree's source only, and never run under -O
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONIOENCODING"] = "utf-8"  # output holds Ω and ≥

    def run_cli(self, argv: list) -> CommandRun:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "opnbounds", *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return CommandRun(proc.returncode, out_path.read_text(encoding="utf-8"), wall,
                          usage.ru_utime + usage.ru_stime)

    def setup(self, runs: int) -> None:
        """Time the no-op command; the walls collect in setup_walls."""
        command = setup_command()
        for _ in range(runs):
            run = self.run_cli(command.argv)
            self.ledger.record("describe", judge(command, run.returncode, run.stdout))
            self.setup_walls.append(run.wall)

    def check_determinism(self) -> None:
        for argv in self.workload.determinism:
            one = self.run_cli(argv)
            two = self.run_cli(with_jobs(argv, 2))
            self.ledger.record(" ".join(argv), exit_problem(one.returncode))
            self.ledger.record(" ".join(with_jobs(argv, 2)),
                               exit_problem(two.returncode) or
                               (None if one.stdout == two.stdout
                                else "stdout differs from --jobs 1"))

    def _fresh_workdir(self) -> None:
        work = self.scratch / "work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)

    def cli_pass(self, jobs=None) -> Pass:
        self._fresh_workdir()
        result = Pass()
        for command in self.workload.commands:
            argv = command.argv if jobs is None else with_jobs(command.argv, jobs)
            # sampled beside every command, so it sees the same host speed
            self.references.append(reference_seconds())
            run = self.run_cli(argv)
            self.ledger.record(command.kind, judge(command, run.returncode, run.stdout))
            result.add(command.kind, run)
        return result

    def inprocess_pass(self, tracer=None) -> float:
        """Replay the commands through opnbounds.cli.main at jobs=1; the
        summed wall time of the calls, checks excluded."""
        self._fresh_workdir()
        wall = 0.0
        for index, command in enumerate(self.workload.commands):
            out = io.StringIO()
            if tracer is not None:
                tracer.request = index
                tracer.active = True
            start = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    returncode = cli.main(with_jobs(command.argv, 1))
            finally:
                wall += perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            self.ledger.record(command.kind, judge(command, returncode, out.getvalue()))
        return wall


def _until(seconds: float, step) -> list:
    """Call step() repeatedly, at least once, and stop before the next call
    would end past the deadline (judged by the last call's duration)."""
    results = []
    start = perf_counter()
    while True:
        began = perf_counter()
        results.append(step())
        last = perf_counter() - began
        if perf_counter() - start + last > seconds:
            return results


def end_to_end(bench: Bench, seconds: float) -> tuple:
    """End-to-end metrics, plus per-stage figures that only this workload has."""
    bench.setup(SETUP_RUNS)
    bench.check_determinism()

    def step():
        # one more set-up sample per pass spreads them over the whole run,
        # so a slow spell on a shared host does not decide setup_s alone
        bench.setup(1)
        return bench.cli_pass()

    passes = _until(seconds, step)
    wall, cpu = median(p.wall for p in passes), median(p.cpu for p in passes)
    reference = median(bench.references)
    metrics = {
        "wall_ref": (wall / reference, "ref"),
        "cpu_ref": (cpu / reference, "ref"),
        "setup_s": (median(bench.setup_walls), "s"),
        "peak_rss_mb": (bench.peak_rss_kb / 1024, "MB"),
    }
    stages = {"wall_s": (wall, "s"), "cpu_s": (cpu, "s"), "reference_s": (reference, "s")}
    stages.update((f"{kind}_s", (median(p.by_kind[kind] for p in passes), "s"))
                  for kind in passes[0].by_kind)
    if "frontier_s" in stages:
        solved = 2 * len(bench.workload.inputs["slopes"])
        stages["frontier_slopes_per_s"] = (solved / stages["frontier_s"][0], "1/s")
    stages["passes"] = (len(passes), "count")
    return metrics, stages, {"pass_walls_s": [p.wall for p in passes],
                             "setup_walls_s": bench.setup_walls,
                             "reference_s": bench.references}


def per_layer(bench: Bench, seconds: float, smoke: bool) -> tuple:
    """Per-layer metrics from the median traced in-process pass."""
    bench.setup(SETUP_RUNS)
    bench.check_determinism()

    def loop():
        cli_wall = bench.cli_pass(jobs=1).wall
        plain = bench.inprocess_pass()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = bench.inprocess_pass(tracer)
        finally:
            tracer.uninstall()
        # keep the aggregate, not the (up to a million) spans of every round
        return cli_wall, plain, traced, tracer.summary(traced), tracer.export(SPAN_FLOOR_S)

    rounds = _until(seconds, loop)
    plain = median(r[1] for r in rounds)
    _, _, traced, summary, spans = sorted(rounds, key=lambda r: r[2])[(len(rounds) - 1) // 2]
    metrics = tracing.layer_metrics(summary, traced)
    metrics["cli.overhead_s"] = (median(r[0] for r in rounds) - plain, "s")
    metrics["trace.overhead_ratio"] = (median(r[2] for r in rounds) / plain, "ratio")
    metrics.update(tracing.probe_workers(SCALING_CENSUS[smoke]))
    trace = {
        "wall_s": traced,
        "layers_self_s": summary["layers"],
        "functions": {name: {k: v for k, v in entry.items() if k != "durations"}
                      for name, entry in summary["functions"].items()},
        "span_floor_s": SPAN_FLOOR_S,
        "spans": spans,
    }
    return metrics, {"rounds": (len(rounds), "count")}, trace


def git_state() -> tuple:
    """(commit, dirty) of the tree, or (None, None) outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None, None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain",
                                                  "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def environment() -> dict:
    commit, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "optimize": sys.flags.optimize,
        "commit": commit,
        "dirty": dirty,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 census_reference=None) -> dict:
    """Build the seeded workload, measure it, and return the full record."""
    scratch = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(name, seed, smoke, scratch / "work", census_reference)
    bench = Bench(workload, scratch)
    record = {"workload": name, "seed": seed, "inputs_digest": workload.digest,
              "smoke": smoke, "trace": trace, "environment": environment()}
    if trace:
        metrics, info, spans = per_layer(bench, seconds, smoke)
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(spans))
        samples = {}
    else:
        metrics, info, samples = end_to_end(bench, seconds)
    ledger = bench.ledger
    info["fail_ratio"] = (ledger.failed / ledger.attempted, "ratio")
    record.update(attempted=ledger.attempted, failed=ledger.failed,
                  problems=ledger.problems[:20], metrics=metrics, info=info,
                  samples=samples, inputs=workload.inputs)
    shutil.rmtree(scratch / "work", ignore_errors=True)
    return record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; it strips the package's soundness asserts",
              file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
               for name in names]

    metrics = {}
    for record in records:
        name = record["workload"]
        prefix = f"{name}." if args.workload == "all" else ""
        print(f"{name}: seed {record['seed']}, inputs {record['inputs_digest']}, "
              f"environment {json.dumps(record['environment'])}")
        for problem in record["problems"]:
            print(f"{name}: FAIL {problem}")
        for key, (value, unit) in {**record["metrics"], **record["info"]}.items():
            print(f"{name}: {key} = {value:.6g} {unit}")
        for key, (value, unit) in record["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        path = OUT / f"result-{name}-seed{record['seed']}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
