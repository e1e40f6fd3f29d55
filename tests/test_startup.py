"""A CLI process imports only the package modules its subcommand runs, and
no pool, pickle, json, csv or dataclasses module: every scan runs in the
calling process at any --jobs, and the output modules load only for the
format that needs them. A plain command line is read without argparse, so
neither it nor gettext and locale load; help and usage errors load them."""
import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import opnbounds
from opnbounds.enumeration import integer_scan
from opnbounds.lemmas import bucket_census, classify_prime, lemma1_scan
from opnbounds.model import Case, build_system
from opnbounds.workers import run_chunks

SRC = Path(opnbounds.__file__).resolve().parents[1]
# the parser's modules, which only a line that is not plain loads
_PARSER = {"argparse", "gettext", "locale"}
_LAZY = ("multiprocessing", "pickle", "json", "csv", "dataclasses", *sorted(_PARSER))
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


# runs `python -m opnbounds` with the arguments after -c, then prints the
# loaded modules on stderr
_FOOTPRINT = ("import atexit, runpy, sys\n"
              "atexit.register(lambda: print(sorted(sys.modules), file=sys.stderr))\n"
              "runpy.run_module('opnbounds', run_name='__main__', alter_sys=True)")


def _modules(*names) -> set:
    return {f"opnbounds.{name}" for name in names}


# every layer module but workers, which no package module imports
_LAYERS = _modules("cli", "model", "linexpr", "rationals", "simplex", "lp", "certificates",
                   "enumeration", "primes", "lemmas")
_NO_SCANS = _modules("lemmas", "primes", "enumeration")
# per command, modules its process must not load
_LEFT_OUT = {
    **dict.fromkeys(("classify", "census", "lemmas"), {
        *_modules("model", "linexpr", "rationals", "lp", "simplex", "certificates",
                  "enumeration"), "fractions", "decimal"}),
    "verify": _NO_SCANS,
    # the simplex copies no tableau with copy, and certificates and the CSV
    # are written without json
    "optimize": {*_NO_SCANS, "copy"},
    "frontier": {*_NO_SCANS, "copy", "json"},
    "describe": _modules("lp", "simplex", "certificates", "lemmas", "primes"),
}
_CERT = str(SRC.parent / "certificates" / "paper_no3.json")


def _loaded(*argv) -> set:
    proc = _python("-c", _FOOTPRINT, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("argv", [
    ("classify", "7"),
    ("census", "--max", "1000", "--jobs", "1"),
    ("lemmas", "--which", "2", "--max", "100"),
    ("optimize", "--system", "three_coprime", "--slope", "8/3"),
    ("verify", "--system", "three_coprime", "--cert", _CERT),
    ("frontier", "--system", "three_coprime", "--slopes", "2,8/3,3", "--out", "certs"),
    ("describe", "--system", "three_coprime"),
], ids=lambda argv: argv[0])
def test_subcommand_imports_only_what_it_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where frontier writes its --out directory
    assert _loaded(*argv) & (_LEFT_OUT[argv[0]] | _PARSER) == set()


@pytest.mark.parametrize("argv, code, stream, text", [
    (("--help",), 0, "stdout", "usage: opnbounds [-h]"),
    (("census", "--max", "0"), 2, "stderr", "error: argument --max: must be positive: 0\n"),
    # at --max 5 the one S2 count, of 7, would be 0
    (("census", "--max", "5", "--max", "7"), 0, "stdout", "S2 residue 1: 1\n"),
], ids=["help", "usage error", "repeated flag"])
def test_a_line_that_is_not_plain_loads_the_parser(argv, code, stream, text):
    """Help, a value its type refuses and a flag given twice go to argparse,
    which prints the help or error, or reads the last value."""
    proc = _python("-c", _FOOTPRINT, *argv)
    *printed, modules = proc.stderr.splitlines(keepends=True)
    out = proc.stdout if stream == "stdout" else "".join(printed)
    assert proc.returncode == code
    assert text in out
    assert _PARSER <= set(ast.literal_eval(modules))


@pytest.mark.parametrize("argv", [
    ("census", "--max", "20000", "--jobs", "2"),
    ("lemmas", "--which", "1", "--max", "2000", "--jobs", "2"),
], ids=lambda argv: argv[0])
def test_fanned_out_scans_load_neither_pickle_nor_fractions(argv):
    # lemma 1 builds its Fraction bounds only for a violation, and the line
    # is plain
    assert _loaded(*argv) & {"pickle", "fractions", *_PARSER} == set()


def test_package_import_loads_no_submodule():
    proc = _python("-c", "import opnbounds, sys; "
                         "print(sorted(m for m in sys.modules if m.startswith('opnbounds')))")
    assert (proc.returncode, proc.stdout) == (0, "['opnbounds']\n")


def test_importing_cli_from_the_package_loads_every_layer():
    """The benchmark's tracer reads every layer module from sys.modules
    after `from opnbounds import cli`; it imports opnbounds.workers
    itself."""
    proc = _python("-c", "from opnbounds import cli; import sys; "
                         "print(sorted(m for m in sys.modules if m.startswith('opnbounds.')))")
    assert proc.returncode == 0, proc.stderr
    assert set(ast.literal_eval(proc.stdout)) == _LAYERS


def test_every_exported_name_is_its_modules_object():
    for name in opnbounds.__all__:
        value = getattr(opnbounds, name)
        assert value.__module__.startswith("opnbounds."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        opnbounds.no_such_name


def test_run_chunks_pool_returns_the_serial_list():
    primes = [5, 7, 11, 13, 17, 19, 23]
    assert run_chunks(classify_prime, primes, 2) == run_chunks(classify_prime, primes, 1)
    _no_child_left()


def test_no_scan_forks(monkeypatch):
    """The census at any jobs, lemma 1 and the integer scan run without
    forking."""
    def no_fork():
        raise AssertionError("a scan forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert bucket_census(5000, jobs=64) == bucket_census(5000, jobs=1)
    assert lemma1_scan(600) == []
    no3 = build_system(Case.THREE_COPRIME)
    assert integer_scan(no3, Fraction(8, 3), 4).minimum == Fraction(-7, 3)


def _bad_chunk(chunk):
    if chunk == 1:
        raise ValueError(f"chunk {chunk} is bad")
    return chunk


def test_worker_exception_reaches_the_caller():
    with pytest.raises(ValueError, match=r"^chunk 1 is bad$"):
        run_chunks(_bad_chunk, [0, 1, 2, 3], 2)


@pytest.mark.parametrize("argv", [("census", "--max", "20000"),
                                  ("lemmas", "--which", "1", "--max", "2000")])
def test_scans_exit_cleanly_under_dev_mode(argv):
    """-X dev -W error turns any ResourceWarning into an error, and --jobs 2,
    which the CLI accepts and ignores, prints what --jobs 1 does."""
    serial = _python("-m", "opnbounds", *argv, "--jobs", "1")
    two = _python("-X", "dev", "-W", "error", "-m", "opnbounds", *argv, "--jobs", "2")
    assert (two.returncode, two.stderr) == (0, "")
    assert two.stdout == serial.stdout
    assert serial.returncode == 0 and serial.stdout
