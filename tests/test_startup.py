"""A CLI process imports neither the pool module nor dataclasses: the pool
comes in only when a scan fans out to more than one worker, and then with
at most one worker per core."""
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import opnbounds
from opnbounds.enumeration import integer_scan
from opnbounds.lemmas import bucket_census, classify_prime, lemma1_scan
from opnbounds.model import Case, build_system
from opnbounds.workers import run_chunks

_PROBE = ("import opnbounds.cli, sys; "
          "print(sorted({'multiprocessing', 'dataclasses'} & set(sys.modules)))")


def test_cli_import_leaves_out_multiprocessing_and_dataclasses():
    src = Path(opnbounds.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_run_chunks_pool_returns_the_serial_list(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one core
    primes = [5, 7, 11, 13, 17, 19, 23]
    assert run_chunks(classify_prime, primes, 2) == run_chunks(classify_prime, primes, 1)


def test_pool_is_never_larger_than_the_cores(monkeypatch):
    """A --jobs past the core count asks for one worker per core; the pool
    here maps serially, so no process starts."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return [fn(chunk) for chunk in chunks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert bucket_census(5000, jobs=64) == bucket_census(5000, jobs=1)
    assert lemma1_scan(600, jobs=64) == lemma1_scan(600, jobs=1)
    no3 = build_system(Case.THREE_COPRIME)
    assert integer_scan(no3, Fraction(8, 3), 4, jobs=64) == integer_scan(no3, Fraction(8, 3), 4)
    assert sizes == [2, 2, 2]
