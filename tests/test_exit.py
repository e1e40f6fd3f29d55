"""How a `python -m opnbounds` process ends: its exit code and output match
an in-process cli.main call, a failed write to stdout exits 2 with one
error line, and only cli.run, the process entry point, freezes the heap."""
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opnbounds import cli, workers

SRC = Path(cli.__file__).resolve().parents[1]
ROOT = SRC.parent
CERT_A = str(ROOT / "certificates" / "paper_no3.json")
DESCRIBE = ["describe", "--system", "three_coprime"]


def _process(argv, stdout=subprocess.PIPE, unbuffered=False, **kwargs):
    """`python -m opnbounds argv` with this tree's source, UTF-8 stdio and
    stdout buffered unless unbuffered is set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "opnbounds", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, cwd=str(ROOT), timeout=120,
                          **kwargs)


def _raised_claim(tmp_path) -> str:
    data = json.loads(Path(CERT_A).read_text())
    data["claimed_constant"] = "0"
    path = tmp_path / "raised.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("argv, code", [
    (DESCRIBE, 0),
    (["classify", "7"], 0),
    (["census", "--max", "1000", "--jobs", "2"], 0),
    (["lemmas", "--which", "1", "--max", "2000", "--jobs", "2"], 0),
    (["frontier", "--system", "three_divides", "--slopes", "2,21/8,3"], 0),
    (["optimize", "--system", "three_coprime", "--slope", "3"], 1),
    (["verify", "--system", "three_coprime", "--cert", "RAISED"], 1),
    (["classify", "4"], 2),
    (["census", "--max", "0"], 2),
    ([], 2),
], ids=lambda value: " ".join(value) or "no-arguments" if isinstance(value, list) else None)
def test_process_and_main_agree(capsys, tmp_path, argv, code):
    argv = [_raised_claim(tmp_path) if arg == "RAISED" else arg for arg in argv]
    expected = (cli.main(argv), *capsys.readouterr())
    proc = _process(argv)
    got = (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"))
    assert got == expected
    assert expected[0] == code


def _closed_pipe_run(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        return _process(argv, stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [DESCRIBE, ["lemmas", "--which", "2", "--max", str(10**400)]],
                         ids=["describe", "lemmas-2"])
def test_closed_pipe_exits_2_with_one_line(argv, unbuffered):
    proc = _closed_pipe_run(argv, unbuffered)
    assert (proc.returncode, proc.stderr) == (
        2, b"error: cannot write output: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_device_exits_2_with_one_line(unbuffered):
    with open("/dev/full", "wb") as full:
        proc = _process(DESCRIBE, stdout=full, unbuffered=unbuffered)
    assert (proc.returncode, proc.stderr) == (
        2, b"error: cannot write output: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["census", "--help"]], ids=["help", "census-help"])
def test_help_to_full_device_exits_2_with_one_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = _process(argv, stdout=full, unbuffered=unbuffered)
    assert (proc.returncode, proc.stderr) == (
        2, b"error: cannot write output: [Errno 28] No space left on device\n")


def test_stdout_closed_at_start_exits_0():
    """With fd 1 closed before start-up, sys.stdout is None and print writes
    nothing; run's final flush must not fail on it."""
    proc = _process(DESCRIBE, stdout=None, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_fork_error_is_no_output_error(monkeypatch):
    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(workers, "usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(OSError, match="Resource temporarily unavailable"):
        cli.run(["census", "--max", "1000", "--jobs", "2"])


def test_run_freezes_the_heap(capsys):
    before = gc.get_freeze_count()
    try:
        assert cli.run(DESCRIBE) == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert "omega_lower" in capsys.readouterr().out


def test_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert cli.main(DESCRIBE) == 0
    assert gc.get_freeze_count() == before


def test_entry_points_name_run():
    main_py = (SRC / "opnbounds" / "__main__.py").read_text()
    assert "sys.exit(run())" in main_py
    # read as text: CPython 3.10 has no tomllib
    assert 'opnbounds = "opnbounds.cli:run"' in (ROOT / "pyproject.toml").read_text()
