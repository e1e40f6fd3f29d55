"""CLI output bytes and certificate file bytes are pinned by one sha256.

The digest covers every slope k/d in [-1, 4] with d <= 12 on the three
system settings: `frontier --out` (stdout, stderr, exit code and every
certificate file), `optimize --format json` per slope, and `verify` text on
three tampered certificates. Any change to a constant, a witness, a
multiplier, a failure reason or the spelling of a rational changes it.
"""
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from opnbounds.cli import main

FIXTURE = Path(__file__).resolve().parent.parent / "certificates" / "paper_no3.json"

SETTINGS = (("three_coprime", "off"), ("three_divides", "off"), ("three_divides", "on"))
SLOPES = sorted({Fraction(k, d) for d in range(1, 13) for k in range(-d, 4 * d + 1)})

# each edit reaches the combination and fails a different later check
TAMPERS = (
    ("doubled", {"multipliers": {"omega_lower": "2"}}),
    ("dropped", {"multipliers": {"s1_s22_upper": "0"}}),
    ("raised", {"claimed_constant": "-2"}),
)

DIGEST = "d52c2abead39d5650153c65da20343104465ce461510cc92aa716d46602b050c"


def _record(digest, capsys, argv, outdir=None):
    code = main(argv)
    captured = capsys.readouterr()
    digest.update(json.dumps([argv, code, captured.out, captured.err]).encode())
    for path in sorted(Path(outdir).iterdir()) if outdir else ():
        digest.update(path.name.encode() + b"\0" + path.read_bytes())


def _tampered(tmp_path, name, edit):
    data = json.loads(FIXTURE.read_text())
    for key, value in edit.items():
        if isinstance(value, dict):
            data[key].update(value)
        else:
            data[key] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data, indent=2))
    return path.name


def test_cli_and_certificate_bytes_match_the_pinned_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # frontier prints the relative --out paths
    digest = hashlib.sha256()
    slopes = ",".join(map(str, SLOPES))
    for system, f3 in SETTINGS:
        out = f"{system}_{f3}"
        _record(digest, capsys,
                ["frontier", "--system", system, "--f3-min2", f3,
                 f"--slopes={slopes}", "--out", out], out)
        for slope in SLOPES:
            _record(digest, capsys, ["optimize", "--system", system, "--f3-min2", f3,
                                     f"--slope={slope}", "--format", "json"])
    for name, edit in TAMPERS:
        _record(digest, capsys, ["verify", "--system", "three_coprime",
                                 "--cert", _tampered(tmp_path, name, edit)])
    assert digest.hexdigest() == DIGEST
