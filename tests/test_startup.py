"""A CLI process imports no pool, pickle, json, csv or dataclasses module: a
scan forks its workers only when it fans out to more than one, with at most
one per usable core, and the output modules load only for the format that
needs them. Every child a fan-out forks is reaped before run_chunks returns
or raises."""
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import opnbounds
from opnbounds import workers
from opnbounds.enumeration import integer_scan
from opnbounds.lemmas import bucket_census, classify_prime, lemma1_scan
from opnbounds.model import Case, build_system
from opnbounds.workers import effective_jobs, run_chunks

SRC = Path(opnbounds.__file__).resolve().parents[1]
_LAZY = ("multiprocessing", "pickle", "json", "csv", "dataclasses")
_PROBE = f"import opnbounds.cli, sys; print(sorted(set({_LAZY!r}) & set(sys.modules)))"


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_import_leaves_out_multiprocessing_and_dataclasses():
    proc = _python("-c", _PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_run_chunks_pool_returns_the_serial_list(monkeypatch):
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)  # a fork even on one core
    primes = [5, 7, 11, 13, 17, 19, 23]
    assert run_chunks(classify_prime, primes, 2) == run_chunks(classify_prime, primes, 1)
    _no_child_left()


def test_pool_is_never_larger_than_the_cores(monkeypatch):
    """A --jobs past the core count forks one worker per core but the
    caller's own: on two cores, one child per scan."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)
    assert bucket_census(5000, jobs=64) == bucket_census(5000, jobs=1)
    assert len(forks) == 1
    assert lemma1_scan(600, jobs=64) == lemma1_scan(600, jobs=1)
    assert len(forks) == 2
    no3 = build_system(Case.THREE_COPRIME)
    assert integer_scan(no3, Fraction(8, 3), 4, jobs=64) == integer_scan(no3, Fraction(8, 3), 4)
    assert len(forks) == 3
    _no_child_left()


def test_jobs_are_capped_at_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert (effective_jobs(None, 10), effective_jobs(2, 10)) == (1, 1)
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without one
    assert (effective_jobs(None, 10), effective_jobs(2, 10), effective_jobs(2, 1)) == (2, 2, 1)


def test_without_fork_the_chunks_run_serially(monkeypatch):
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)
    monkeypatch.delattr(os, "fork")
    pids = run_chunks(lambda chunk: os.getpid(), [0, 1, 2], 2)
    assert pids == [os.getpid()] * 3


def _bad_chunk(chunk):
    if chunk == 1:
        raise ValueError(f"chunk {chunk} is bad")
    return chunk


def test_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)
    # chunk 1 is the child's share
    with pytest.raises(ValueError, match=r"^chunk 1 is bad$"):
        run_chunks(_bad_chunk, [0, 1, 2, 3], 2)
    _no_child_left()

    class Unpicklable(Exception):  # a local class does not pickle
        pass

    def raise_local(chunk):
        if chunk == 1:
            raise Unpicklable("mine")
        return chunk

    with pytest.raises(RuntimeError, match=r"^Unpicklable: mine$"):
        run_chunks(raise_local, [0, 1], 2)
    _no_child_left()


def test_killed_worker_raises_runtime_error(monkeypatch):
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)

    def die(chunk):
        if chunk == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return chunk

    with pytest.raises(RuntimeError, match=r"ended without sending its result "
                                           r"\(exit status -9\)"):
        run_chunks(die, [0, 1], 2)
    _no_child_left()


def test_error_in_the_callers_share_kills_the_workers(monkeypatch):
    """An interrupt during the caller's own share does not wait for the
    children: they are killed and reaped before it propagates."""
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)

    def interrupted(chunk):
        if chunk == 0:
            raise KeyboardInterrupt
        time.sleep(60)
        return chunk

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_chunks(interrupted, [0, 1], 2)
    assert time.monotonic() - start < 30
    _no_child_left()


@pytest.mark.parametrize("argv", [("census", "--max", "20000"),
                                  ("lemmas", "--which", "1", "--max", "2000")])
def test_fan_out_exits_cleanly_under_dev_mode(argv):
    """-X dev -W error turns an unclosed pipe (ResourceWarning) into an
    error, and a child that flushed the parent's stdout buffer would print
    the output twice."""
    serial = _python("-m", "opnbounds", *argv, "--jobs", "1")
    forked = _python("-X", "dev", "-W", "error", "-m", "opnbounds", *argv, "--jobs", "2")
    assert (forked.returncode, forked.stderr) == (0, "")
    assert forked.stdout == serial.stdout
    assert serial.returncode == 0 and serial.stdout
