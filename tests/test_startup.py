"""A CLI process imports neither the pool module nor dataclasses: the pool
comes in only when a scan fans out to more than one worker."""
import os
import subprocess
import sys
from pathlib import Path

import opnbounds
from opnbounds.lemmas import classify_prime
from opnbounds.workers import run_chunks

_PROBE = ("import opnbounds.cli, sys; "
          "print(sorted({'multiprocessing', 'dataclasses'} & set(sys.modules)))")


def test_cli_import_leaves_out_multiprocessing_and_dataclasses():
    src = Path(opnbounds.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_run_chunks_pool_returns_the_serial_list():
    primes = [5, 7, 11, 13, 17, 19, 23]
    assert run_chunks(classify_prime, primes, 2) == run_chunks(classify_prime, primes, 1)
