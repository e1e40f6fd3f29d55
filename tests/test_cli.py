import argparse
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnbounds import cli, enumeration, lemmas, lp
from opnbounds.certificates import certificate_from_dict, load_certificate, verify_certificate
from opnbounds.cli import build_parser, main
from opnbounds.lemmas import Lemma1Violation, Lemma2Solution
from opnbounds.model import Case, build_system
from time_processes import commands

FIXTURES = Path(__file__).resolve().parent.parent / "certificates"
CERT_A = str(FIXTURES / "paper_no3.json")
CERT_B = str(FIXTURES / "paper_with3.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_text(capsys):
    code, out, err = run(capsys, "verify", "--system", "three_coprime",
                         "--cert", CERT_A)
    assert code == 0
    assert out == ("verdict: pass\n"
                   "derived: Ω ≥ 8/3·ω - 7/3\n"
                   "nonzero residuals: s22 = -2/9, f3 = -1\n")
    assert err == ""


def test_verify_pass_with3(capsys):
    code, out, _ = run(capsys, "verify", "--system", "three_divides",
                       "--cert", CERT_B)
    assert code == 0
    assert "Ω ≥ 21/8·ω - 39/8" in out


def test_verify_wrong_system_fails(capsys):
    code, out, _ = run(capsys, "verify", "--system", "three_divides",
                       "--cert", CERT_A)
    assert code == 1
    assert "verdict: fail" in out
    assert "system mismatch" in out


def test_verify_raised_claim_fails(capsys, tmp_path):
    data = json.loads(Path(CERT_A).read_text())
    data["claimed_constant"] = "0"
    bad = tmp_path / "raised.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--system", "three_coprime",
                       "--cert", str(bad))
    assert code == 1
    assert "constant shortfall" in out


def test_verify_parse_error_exits_2(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, err = run(capsys, "verify", "--system", "three_coprime",
                       "--cert", str(broken))
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "verify", "--system", "three_coprime",
                       "--cert", str(tmp_path / "missing.json"))
    assert code == 2


def test_verify_undecodable_certificate_exits_2(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    assert run(capsys, "verify", "--system", "three_coprime", "--cert", str(path)) == (
        2, "", "error: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte\n")


@pytest.mark.parametrize("text, reason", [
    ("[" * 100000, "maximum recursion depth exceeded"),
    ("9" * 5000, "Exceeds the limit (4300 digits)"),
    ('{"system": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits)"),
], ids=["nested-arrays", "long-integer", "long-integer-field"])
def test_verify_json_the_decoder_refuses_exits_2(capsys, tmp_path, text, reason):
    # json raises these as RecursionError and a plain ValueError, not as
    # JSONDecodeError; each once ended in a traceback and exit 1
    path = tmp_path / "refused.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--system", "three_coprime", "--cert", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid JSON: {reason}") and err.count("\n") == 1


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--system", "three_coprime",
                       "--cert", CERT_A, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["derived_slope"] == "8/3"
    assert payload["derived_constant"] == "-7/3"
    assert payload["residuals"]["s22"] == "-2/9"
    assert payload["residuals"]["e"] == "0"


def test_optimize_text_and_saved_cert(capsys, tmp_path):
    out_path = tmp_path / "dual.json"
    code, out, _ = run(capsys, "optimize", "--system", "three_divides",
                       "--slope", "21/8", "--out", str(out_path))
    assert code == 0
    assert out == "-39/8\n"
    saved = load_certificate(out_path)
    report = verify_certificate(build_system(Case.THREE_DIVIDES), saved)
    assert report.passed and report.derived_constant.numerator == -39


def test_optimize_unbounded_exit_1(capsys):
    code, out, err = run(capsys, "optimize", "--system", "three_coprime",
                         "--slope", "100")
    assert code == 1
    assert out == ""
    assert "slope 100 not supported" in err


def test_optimize_json(capsys):
    code, out, _ = run(capsys, "optimize", "--system", "three_coprime",
                       "--slope", "8/3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["constant"] == "-7/3"
    assert payload["bound"] == "Ω ≥ 8/3·ω - 7/3"
    assert payload["witness"]["Omega"] == "3"
    cert = certificate_from_dict(payload["certificate"])
    assert verify_certificate(build_system(Case.THREE_COPRIME), cert).passed


def test_optimize_unwritable_out_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "dual.json"
    code, out, err = run(capsys, "optimize", "--system", "three_coprime",
                         "--slope", "8/3", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] ") and str(path) in err
    assert err.count("\n") == 1


def test_optimize_out_that_reads_back_no_certificate_exits_2(capsys):
    # /dev/null takes the write and reads back empty, like verify --cert /dev/null
    code, out, err = run(capsys, "optimize", "--system", "three_coprime",
                         "--slope", "1", "--out", "/dev/null")
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: Expecting value: line 1 column 1 (char 0)\n"


def test_optimize_f3_min2_flag(capsys):
    code, out, _ = run(capsys, "optimize", "--system", "three_divides",
                       "--f3-min2", "on", "--slope", "21/8")
    assert code == 0
    assert out == "-39/8\n"


def test_frontier_csv_frozen(capsys):
    code, out, _ = run(capsys, "frontier", "--system", "three_coprime",
                       "--slopes", "2,8/3,100")
    assert code == 0
    assert out == ("slope,constant,certificate_path\n"
                   "2,-1,\n"
                   "8/3,-7/3,\n"
                   "100,unbounded,\n")


def test_frontier_writes_certificates(capsys, tmp_path):
    out_dir = tmp_path / "certs"
    code, out, _ = run(capsys, "frontier", "--system", "three_coprime",
                       "--slopes", "2,8/3", "--out", str(out_dir))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "slope,constant,certificate_path"
    system = build_system(Case.THREE_COPRIME)
    for line in lines[1:]:
        _, _, path = line.split(",")
        assert verify_certificate(system, load_certificate(path)).passed


# frontier --out certificate files, byte for byte
FRONTIER_CERTIFICATES = {
    ("three_divides", "slope_0_1.json"): """\
{
  "system": "three_divides",
  "include_f3_min2": true,
  "multipliers": {
    "special_exists": "1",
    "omega_lower": "1",
    "t_f4": "1",
    "f3_min2": "1"
  },
  "claimed_slope": "0",
  "claimed_constant": "3"
}
""",
    ("three_divides", "slope_2_1.json"): """\
{
  "system": "three_divides",
  "include_f3_min2": true,
  "multipliers": {
    "special_exists": "1",
    "omega_lower": "1",
    "t_f4": "1",
    "omega_with3": "2",
    "f3_min2": "1"
  },
  "claimed_slope": "2",
  "claimed_constant": "-1"
}
""",
    ("three_divides", "slope_9_4.json"): """\
{
  "system": "three_divides",
  "include_f3_min2": true,
  "multipliers": {
    "special_exists": "7/8",
    "s_breakdown": "1/4",
    "s2_breakdown": "1/4",
    "s3_breakdown": "1/4",
    "omega_lower": "1",
    "s1_upper": "1/8",
    "f3_lower": "3/8",
    "mod3_count": "1/8",
    "t_f4": "7/8",
    "omega_with3": "9/4",
    "f3_min2": "5/8"
  },
  "claimed_slope": "9/4",
  "claimed_constant": "-5/2"
}
""",
    ("three_divides", "slope_21_8.json"): """\
{
  "system": "three_divides",
  "include_f3_min2": true,
  "multipliers": {
    "special_exists": "3/4",
    "s_breakdown": "5/8",
    "s2_breakdown": "5/8",
    "s3_breakdown": "5/8",
    "omega_lower": "1",
    "s1_s22_upper": "1/8",
    "s1_upper": "1/4",
    "f3_lower": "1",
    "mod3_count": "1/4",
    "t_f4": "3/4",
    "omega_with3": "21/8"
  },
  "claimed_slope": "21/8",
  "claimed_constant": "-39/8"
}
""",
    ("three_coprime", "slope_5_2.json"): """\
{
  "system": "three_coprime",
  "include_f3_min2": false,
  "multipliers": {
    "special_exists": "2/3",
    "s_breakdown": "1/2",
    "s2_breakdown": "5/6",
    "s3_breakdown": "1",
    "omega_lower": "1",
    "s1_s22_upper": "1/6",
    "mod3_count": "1/3",
    "t_f4": "2/3",
    "omega_no3": "5/2",
    "f3_zero": "1",
    "s21_zero": "-4/3",
    "s31_zero": "-7/6"
  },
  "claimed_slope": "5/2",
  "claimed_constant": "-2"
}
""",
    ("three_coprime", "slope_8_3.json"): """\
{
  "system": "three_coprime",
  "include_f3_min2": false,
  "multipliers": {
    "special_exists": "7/9",
    "s_breakdown": "2/3",
    "s2_breakdown": "8/9",
    "s3_breakdown": "2/3",
    "omega_lower": "1",
    "s1_s22_upper": "4/9",
    "mod3_count": "2/9",
    "t_f4": "7/9",
    "omega_no3": "8/3",
    "f3_zero": "1",
    "s21_zero": "-14/9",
    "s31_zero": "-10/9"
  },
  "claimed_slope": "8/3",
  "claimed_constant": "-7/3"
}
""",
}


def test_frontier_certificates_frozen(capsys, tmp_path):
    for system, f3_min2, slopes in (("three_divides", "on", "0,2,9/4,21/8"),
                                    ("three_coprime", "off", "5/2,8/3")):
        out_dir = tmp_path / system
        code, _, _ = run(capsys, "frontier", "--system", system, "--f3-min2", f3_min2,
                         "--slopes", slopes, "--out", str(out_dir))
        assert code == 0
        written = {(system, path.name): path.read_bytes().decode()
                   for path in out_dir.iterdir()}
        want = {key: text for key, text in FRONTIER_CERTIFICATES.items()
                if key[0] == system}
        assert written == want


def test_frontier_unwritable_out_exits_2(capsys, tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    code, out, err = run(capsys, "frontier", "--system", "three_coprime",
                         "--slopes", "2", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 17] ") and str(path) in err
    assert err.count("\n") == 1


def test_frontier_empty_slopes(capsys):
    code, out, _ = run(capsys, "frontier", "--system", "three_coprime")
    assert code == 0
    assert out == "slope,constant,certificate_path\n"


def test_frontier_bad_slope_exits_2(capsys):
    code, _, err = run(capsys, "frontier", "--system", "three_coprime",
                       "--slopes", "2,banana")
    assert code == 2
    assert err == "error: argument --slopes: not a rational: 'banana'\n"


def test_frontier_huge_slope_names_its_flag(capsys, monkeypatch):
    # CPython refuses int strings past 4300 digits; the error names --slopes
    # and the sweep never starts
    def no_sweep(*args):
        raise AssertionError("frontier ran")

    monkeypatch.setattr(lp, "frontier", no_sweep)
    code, out, err = run(capsys, "frontier", "--system", "three_coprime",
                         "--slopes", "2," + "1" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith("error: argument --slopes: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, extra", [("optimize", ()), ("scan", ("--box", "2"))])
def test_huge_slope_names_its_flag_and_the_limit(capsys, command, extra):
    # the usage lines come first; the one error line names --slope and
    # CPython's limit and echoes none of the 5000 digits
    code, out, err = run(capsys, command, "--system", "three_coprime", *extra,
                         "--slope", "1" * 5000)
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [f"opnbounds {command}: error: argument --slope: Exceeds the limit "
                      "(4300 digits) for integer string conversion: value has 5000 "
                      "digits; use sys.set_int_max_str_digits() to increase the limit"]
    assert "1" * 100 not in err


_HUGE = "1" * 5000


@pytest.mark.parametrize("argv, name", [
    (("classify", _HUGE), "p"),
    (("census", "--max", _HUGE), "--max"),
    (("lemmas", "--which", "1", "--max", _HUGE), "--max"),
    (("census", "--max", "5", "--jobs", _HUGE), "--jobs"),
    (("scan", "--system", "three_coprime", "--slope", "2", "--box", _HUGE), "--box"),
], ids=["classify", "census", "lemmas", "jobs", "scan"])
def test_huge_integer_names_its_argument_and_the_limit(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [f"opnbounds {argv[0]}: error: argument {name}: Exceeds the limit "
                      "(4300 digits) for integer string conversion: value has 5000 "
                      "digits; use sys.set_int_max_str_digits() to increase the limit"]
    assert "1" * 100 not in err


@pytest.mark.parametrize("argv, error", [
    (("classify", "x7"), "argument p: invalid int value: 'x7'"),
    (("census", "--max", "2.5"), "argument --max: not an integer: '2.5'"),
    (("census", "--max", "0"), "argument --max: must be positive: 0"),
    (("census", "--max", "5", "--jobs", "-1"), "argument --jobs: must be positive: -1"),
])
def test_bad_integer_keeps_its_message(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"opnbounds {argv[0]}: error: {error}\n")


def test_lemmas_one_clean(capsys):
    code, out, _ = run(capsys, "lemmas", "--which", "1", "--max", "200",
                       "--jobs", "1")
    assert code == 0
    assert out == "0 violations\n"


def test_lemmas_two_text_and_csv(capsys):
    code, out, _ = run(capsys, "lemmas", "--which", "2", "--max", "100",
                       "--jobs", "1")
    assert code == 0
    assert out == ("no odd-prime p solution\n"
                   "incidental solutions: 3\n"
                   "p=2 q=4 r=7\n"
                   "p=9 q=16 r=91\n"
                   "p=35 q=61 r=1261\n")
    code, out, _ = run(capsys, "lemmas", "--which", "2", "--max", "100",
                       "--jobs", "1", "--format", "csv")
    assert code == 0
    assert out == ("p,q,r,p_is_odd_prime\n"
                   "2,4,7,false\n"
                   "9,16,91,false\n"
                   "35,61,1261,false\n")


def test_lemmas_json(capsys):
    code, out, _ = run(capsys, "lemmas", "--which", "1", "--max", "100",
                       "--jobs", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"violations": []}


def test_census_csv_frozen(capsys):
    code, out, _ = run(capsys, "census", "--max", "20", "--jobs", "1",
                       "--format", "csv")
    assert code == 0
    assert out == ("bucket,residue,count\n"
                   "S1,1,0\n"
                   "S1,2,2\n"
                   "S2,1,3\n"
                   "S2,2,1\n"
                   "S3plus,1,0\n"
                   "S3plus,2,0\n")


def test_census_text_and_json(capsys):
    code, out, _ = run(capsys, "census", "--max", "20", "--jobs", "1")
    assert code == 0
    assert "S1 residue 1: 0" in out
    code, out, _ = run(capsys, "census", "--max", "20", "--jobs", "1",
                       "--format", "json")
    assert json.loads(out)["S2"]["1"] == 3


def test_classify_text_frozen(capsys):
    code, out, _ = run(capsys, "classify", "37")
    assert code == 0
    assert out == ("p = 37\n"
                   "p^2 + p + 1 = 1407 = 3 * 7 * 67\n"
                   "bucket = S3plus\n"
                   "residue = 1\n")


def test_classify_rejects_non_prime(capsys):
    code, _, err = run(capsys, "classify", "9")
    assert code == 2
    assert "error:" in err


def test_classify_past_psi_13_exits_2_at_once(capsys, monkeypatch):
    def no_work(n):
        raise AssertionError("classify started on a p past its range")

    monkeypatch.setattr(lemmas, "is_prime", no_work)
    monkeypatch.setattr(lemmas, "factorize", no_work)
    code, out, err = run(capsys, "classify", "84120263456641765763")
    assert (code, out) == (2, "")
    assert err == ("error: p^2+p+1 = 7076218724014820074141733840607200737933 is not "
                   "below psi_13 = 3317044064679887385961981, the proven range of is_prime\n")


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "11", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"p": 11, "residue": 2, "sigma": 133,
                               "factors": [7, 19], "bucket": "S2"}


def test_scan_text(capsys):
    code, out, _ = run(capsys, "scan", "--system", "three_coprime",
                       "--slope", "8/3", "--box", "4", "--jobs", "1")
    assert code == 0
    assert out.startswith("minimum: -7/3\n")
    assert "witness: e=1 s=1 t=0 s1=1" in out


def test_scan_infeasible_box(capsys):
    code, out, _ = run(capsys, "scan", "--system", "three_divides",
                       "--f3-min2", "on", "--slope", "2", "--box", "1",
                       "--jobs", "1")
    assert code == 0
    assert out == "no feasible point in box\n"


def test_scan_box_past_the_cap_exits_2(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(enumeration, "_scan_chunk", no_scan)
    for system, box, cap in (("three_divides", 61, 60), ("three_coprime", 2001, 2000)):
        code, out, err = run(capsys, "scan", "--system", system, "--slope", "21/8",
                             "--box", str(box))
        assert code == 2
        assert out == ""
        assert err == (f"error: box {box} is larger than {cap}, "
                       f"the largest scan box for {system}\n")


def test_census_and_lemma1_past_their_caps_exit_2(capsys, monkeypatch):
    def no_sieve(*args):
        raise AssertionError("the scan sieved")

    monkeypatch.setattr(lemmas, "odd_prime_flags", no_sieve)
    monkeypatch.setattr(lemmas, "_lemma2_chunk", no_sieve)
    for argv, cap, scan in ((["census"], 8 * 10**6, "census"),
                            (["lemmas", "--which", "1"], 10**7, "lemma 1")):
        code, out, err = run(capsys, *argv, "--max", str(cap + 1))
        assert (code, out) == (2, "")
        assert err == f"error: max {cap + 1} is larger than {cap}, the largest {scan} max\n"
    # lemma 2's cap has 1201 digits, so its line names it as a power
    assert run(capsys, "lemmas", "--which", "2", "--max", str(10**1200 + 1)) == (
        2, "", "error: max is larger than 10^1200, the largest lemma 2 max\n")


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--system", "three_divides",
                       "--slope", "21/8", "--box", "4", "--jobs", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimum"] == "-39/8"
    assert payload["witness"]["e"] == 1


def test_describe_rows(capsys):
    code, out, _ = run(capsys, "describe", "--system", "three_coprime")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 14
    assert "omega_lower | Eq. 9 | Ω - e - f3 - 2s - f4 ≥ 0" in lines
    code, out, _ = run(capsys, "describe", "--system", "three_divides",
                       "--f3-min2", "on")
    assert len(out.splitlines()) == 12


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "optimize", "--system", "three_coprime",
               "--slope", "2.5")[0] == 2
    assert run(capsys, "census", "--max", "0")[0] == 2
    assert run(capsys, "lemmas", "--which", "3", "--max", "10")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "optimize", "--slope", "2")[0] == 2  # --system missing


def test_negative_slope_as_its_own_token(capsys):
    for command, flag, value, rest in (
            ("optimize", "--slope", "-5/6", ()),
            ("scan", "--slope", "-5/6", ("--box", "3", "--jobs", "1")),
            ("frontier", "--slopes", "-1,2", ())):
        spaced = run(capsys, command, "--system", "three_coprime", flag, value, *rest)
        joined = run(capsys, command, "--system", "three_coprime", f"{flag}={value}", *rest)
        assert spaced == joined and spaced[0] == 0
    assert run(capsys, "optimize", "--system", "three_coprime", "--slope", "-5/6") == \
        (0, "11/6\n", "")
    # a token that is no slope is still read as an option
    for argv in (("optimize", "--system", "three_coprime", "--slope", "--format", "json"),
                 ("optimize", "--system", "three_coprime", "--slope", "-1,2"),
                 ("frontier", "--system", "three_coprime", "--slopes", "-1,x")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {argv[3]}: expected one argument\n")


def _full_parser_run(capsys, argv):
    """Exit code, stdout and stderr of a parse by the parser that gives
    every subcommand its arguments."""
    try:
        cli.build_parser().parse_args(cli._join_signed_values(list(argv)))
    except SystemExit as exc:
        code = int(exc.code or 0)
    else:
        raise AssertionError(f"{argv} parsed")
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# every help screen and a usage error of each kind
USAGE_CORPUS = [
    ["--help"], *([name, "--help"] for name, *_ in cli._COMMANDS), [], ["nonsense"],
    ["census", "--max", "5", "--bogus"], ["optimize", "--slope", "2"],
    ["describe", "--system", "bogus"], ["lemmas", "--which", "3", "--max", "10"],
    ["classify"], ["-h", "census"],
]


@pytest.mark.parametrize("argv", USAGE_CORPUS, ids=" ".join)
def test_usage_output_matches_the_full_parser(capsys, argv):
    """A line that is not plain goes to the parser of every subcommand,
    which prints its help and errors, whatever subcommand it names."""
    assert run(capsys, *argv) == _full_parser_run(capsys, argv)


# sha256 of main's exit code, stdout and stderr for each USAGE_CORPUS line
# at COLUMNS=80, recorded under CPython 3.11.7
USAGE_DIGEST = "5ce6dc6acc009279be24d108e2e98b39070b2b9e2cf60b94adbf48ea9b0c3543"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help and usage wording differs between Python versions")
def test_help_and_usage_bytes_match_the_pinned_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    digest = hashlib.sha256()
    for argv in USAGE_CORPUS:
        digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
    assert digest.hexdigest() == USAGE_DIGEST


def _full_parser_vars(argv):
    """vars() of the full parser's namespace for argv, or None where it exits."""
    try:
        return vars(build_parser().parse_args(cli._join_signed_values(argv)))
    except SystemExit:
        return None


_FLAGS = sorted({flag for *_, arguments in cli._COMMANDS for flag, _ in arguments
                 if flag.startswith("-")})
_CHOICES = sorted({choice for *_, arguments in cli._COMMANDS
                   for _, options in arguments for choice in options.get("choices", ())})
# tokens from anywhere: names, flags and their prefixes, help, "--", flag=value
_NOISE = sorted({*(name for name, *_ in cli._COMMANDS), *_FLAGS, "-h", "--help", "--",
                 *(flag[:end] for flag in _FLAGS for end in range(2, len(flag))),
                 "--format=json", "--max=7", "--slope=8/3", "--system=three_coprime"})
_VALUES = ["0", "1", "-1", "1" * 4400, "8/3", "-5/6", "1/0", "2,8/3", "", "x", "-x",
           "certificates/paper_no3.json", "out dir", *_CHOICES]
# per type, values it accepts
_FITTING = {"_positive_int": ["1", "7", "40"], "_rational": ["8/3", "21/8", "2"],
            "_integer": ["7", "11", "999999937"], None: ["a.json", "2,8/3", ""]}


@st.composite
def _command_lines(draw):
    """A subcommand with its required arguments (or, one time in four,
    without), then more of its arguments, a flag perhaps twice, in any
    order. Each value fits its argument or, one time in four, is any value
    or token; one line in four gets a token from anywhere at any place."""
    name, _, _, arguments = draw(st.sampled_from(cli._COMMANDS))
    required = [arg for arg in arguments if arg[1].get("required", not arg[0].startswith("-"))]
    picked = draw(st.permutations([*(required if draw(st.integers(0, 3)) else ()),
                                   *draw(st.lists(st.sampled_from(arguments), max_size=3))]))
    argv = [name]
    for flag, options in picked:
        fits = options.get("choices") or _FITTING[getattr(options.get("type"), "__name__", None)]
        value = draw(st.sampled_from(fits if draw(st.integers(0, 3)) else _VALUES + _NOISE))
        argv += [flag, value] if flag.startswith("-") else [value]
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_NOISE + _VALUES)))
    return argv


@settings(deadline=None, max_examples=400)
@given(argv=_command_lines())
def test_a_plain_parse_equals_the_full_parsers(argv):
    """Where _plain_args reads a line, argparse reads the same namespace
    from it; every other line goes to argparse itself."""
    args = cli._plain_args(argv)
    if args is not None:
        assert vars(args) == _full_parser_vars(argv)


def test_every_timed_command_line_is_plain(tmp_path):
    for label, argv in commands(tmp_path):
        args = cli._plain_args(argv)
        assert args is not None, label
        assert vars(args) == _full_parser_vars(argv), label


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "frontier", "--help")[0] == 0


def test_byte_determinism(capsys):
    first = run(capsys, "frontier", "--system", "three_divides",
                "--slopes", "21/8,2")
    second = run(capsys, "frontier", "--system", "three_divides",
                 "--slopes", "21/8,2")
    assert first == second
    one = run(capsys, "census", "--max", "300", "--jobs", "1", "--format", "json")
    two = run(capsys, "census", "--max", "300", "--jobs", "2", "--format", "json")
    assert one == two


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "opnbounds", "describe", "--system", "three_coprime"],
        capture_output=True, text=True, cwd=str(FIXTURES.parent))
    assert proc.returncode == 0
    assert "omega_lower" in proc.stdout


# exact stdout, stderr and exit code for each (command, format) pair
FROZEN = {
    "verify-text-fail": (
        ["verify", "--system", "three_divides", "--cert", CERT_A], 1,
        "verdict: fail\n"
        "reason: system mismatch: certificate targets three_coprime, system is three_divides\n",
        ""),
    "verify-json-pass": (
        ["verify", "--system", "three_coprime", "--cert", CERT_A, "--format", "json"], 0,
        '{\n  "verdict": "pass",\n  "failure_reason": null,\n  "derived_slope": "8/3",\n'
        '  "derived_constant": "-7/3",\n  "residuals": {\n    "e": "0",\n    "s": "0",\n'
        '    "t": "0",\n    "s1": "0",\n    "s2": "0",\n    "s3": "0",\n    "s21": "0",\n'
        '    "s22": "-2/9",\n    "s31": "0",\n    "s32": "0",\n    "f3": "-1",\n'
        '    "f4": "0"\n  }\n}\n',
        ""),
    "verify-json-fail": (
        ["verify", "--system", "three_divides", "--cert", CERT_A, "--format", "json"], 1,
        '{\n  "verdict": "fail",\n  "failure_reason": "system mismatch: certificate targets '
        'three_coprime, system is three_divides",\n  "derived_slope": null,\n'
        '  "derived_constant": null,\n  "residuals": {}\n}\n',
        ""),
    "optimize-text": (
        ["optimize", "--system", "three_coprime", "--slope", "8/3"], 0, "-7/3\n", ""),
    "optimize-json": (
        ["optimize", "--system", "three_coprime", "--slope", "2", "--format", "json"], 0,
        '{\n  "slope": "2",\n  "constant": "-1",\n  "bound": "Ω ≥ 2ω - 1",\n'
        '  "witness": {\n    "e": "1",\n    "s": "1/3",\n    "t": "0",\n    "s1": "0",\n'
        '    "s2": "0",\n    "s3": "1/3",\n    "s21": "0",\n    "s22": "0",\n'
        '    "s31": "0",\n    "s32": "1/3",\n    "f3": "0",\n    "f4": "0",\n'
        '    "Omega": "5/3",\n    "omega": "4/3"\n  },\n  "certificate": {\n'
        '    "system": "three_coprime",\n    "include_f3_min2": false,\n'
        '    "multipliers": {\n      "special_exists": "1",\n      "omega_lower": "1",\n'
        '      "t_f4": "1",\n      "omega_no3": "2",\n      "f3_zero": "1"\n    },\n'
        '    "claimed_slope": "2",\n    "claimed_constant": "-1"\n  }\n}\n',
        ""),
    "optimize-json-unbounded": (
        ["optimize", "--system", "three_coprime", "--slope", "3", "--format", "json"], 1,
        "", "unbounded: slope 3 not supported by system\n"),
    "lemmas-1-csv": (
        ["lemmas", "--which", "1", "--max", "200", "--jobs", "1", "--format", "csv"], 0,
        "a,b,p,bound\n", ""),
    "lemmas-1-json": (
        ["lemmas", "--which", "1", "--max", "200", "--jobs", "1", "--format", "json"], 0,
        '{\n  "violations": []\n}\n', ""),
    "lemmas-2-json": (
        ["lemmas", "--which", "2", "--max", "100", "--jobs", "1", "--format", "json"], 0,
        '{\n  "solutions": [\n    {\n      "p": 2,\n      "q": 4,\n      "r": 7,\n'
        '      "p_is_odd_prime": false\n    },\n    {\n      "p": 9,\n      "q": 16,\n'
        '      "r": 91,\n      "p_is_odd_prime": false\n    },\n    {\n      "p": 35,\n'
        '      "q": 61,\n      "r": 1261,\n      "p_is_odd_prime": false\n    }\n  ]\n}\n',
        ""),
    "census-text": (
        ["census", "--max", "20", "--jobs", "1"], 0,
        "S1 residue 1: 0\nS1 residue 2: 2\nS2 residue 1: 3\nS2 residue 2: 1\n"
        "S3plus residue 1: 0\nS3plus residue 2: 0\n",
        ""),
    "census-json": (
        ["census", "--max", "20", "--jobs", "1", "--format", "json"], 0,
        '{\n  "S1": {\n    "1": 0,\n    "2": 2\n  },\n  "S2": {\n    "1": 3,\n    "2": 1\n'
        '  },\n  "S3plus": {\n    "1": 0,\n    "2": 0\n  }\n}\n',
        ""),
    "classify-json": (
        ["classify", "11", "--format", "json"], 0,
        '{\n  "p": 11,\n  "residue": 2,\n  "sigma": 133,\n  "factors": [\n    7,\n'
        '    19\n  ],\n  "bucket": "S2"\n}\n',
        ""),
    "scan-text": (
        ["scan", "--system", "three_coprime", "--slope", "8/3", "--box", "4", "--jobs", "1"],
        0,
        "minimum: -7/3\nwitness: e=1 s=1 t=0 s1=1 s2=0 s3=0 s21=0 s22=0 s31=0 s32=0 "
        "f3=0 f4=0 Omega=3 omega=2\n",
        ""),
    "scan-json": (
        ["scan", "--system", "three_coprime", "--slope", "8/3", "--box", "4", "--jobs", "1",
         "--format", "json"], 0,
        '{\n  "minimum": "-7/3",\n  "witness": {\n    "e": 1,\n    "s": 1,\n    "t": 0,\n'
        '    "s1": 1,\n    "s2": 0,\n    "s3": 0,\n    "s21": 0,\n    "s22": 0,\n'
        '    "s31": 0,\n    "s32": 0,\n    "f3": 0,\n    "f4": 0,\n    "Omega": 3,\n'
        '    "omega": 2\n  }\n}\n',
        ""),
    "scan-json-infeasible": (
        ["scan", "--system", "three_divides", "--f3-min2", "on", "--slope", "2", "--box", "1",
         "--jobs", "1", "--format", "json"], 0,
        '{\n  "minimum": null,\n  "witness": null\n}\n', ""),
}


@pytest.mark.parametrize("name", list(FROZEN))
def test_output_frozen(capsys, name):
    argv, code, out, err = FROZEN[name]
    assert run(capsys, *argv) == (code, out, err)


def test_optimize_out_frozen(capsys, tmp_path):
    want = FRONTIER_CERTIFICATES[("three_divides", "slope_21_8.json")]
    args = ["optimize", "--system", "three_divides", "--f3-min2", "on", "--slope", "21/8"]
    _, plain_json, _ = run(capsys, *args, "--format", "json")
    for fmt, out in (("text", "-39/8\n"), ("json", plain_json)):
        path = tmp_path / f"{fmt}.json"
        assert run(capsys, *args, "--format", fmt, "--out", str(path)) == (0, out, "")
        assert path.read_bytes().decode() == want


def test_lemma_rows_frozen(capsys, monkeypatch):
    """The row layout of lemma 1 violations and odd-prime lemma 2
    solutions, which no real scan produces."""
    monkeypatch.setattr(lemmas, "lemma1_scan", lambda limit: [
        Lemma1Violation(5, 11, 7, Fraction(17, 5)), Lemma1Violation(7, 13, 3, Fraction(7))])
    base = ["lemmas", "--which", "1", "--max", "20"]
    assert run(capsys, *base) == (
        1, "2 violations\na=5 b=11 p=7 bound=17/5\na=7 b=13 p=3 bound=7\n", "")
    assert run(capsys, *base, "--format", "csv") == (
        1, "a,b,p,bound\n5,11,7,17/5\n7,13,3,7\n", "")
    assert run(capsys, *base, "--format", "json") == (
        1, '{\n  "violations": [\n    {\n      "a": 5,\n      "b": 11,\n      "p": 7,\n'
           '      "bound": "17/5"\n    },\n    {\n      "a": 7,\n      "b": 13,\n'
           '      "p": 3,\n      "bound": "7"\n    }\n  ]\n}\n', "")

    monkeypatch.setattr(lemmas, "lemma2_scan", lambda limit: [
        Lemma2Solution(2, 4, 7), Lemma2Solution(5, 9, 31)])
    base = ["lemmas", "--which", "2", "--max", "20"]
    assert run(capsys, *base) == (
        1, "1 odd-prime p solutions\nincidental solutions: 2\np=2 q=4 r=7\np=5 q=9 r=31\n", "")
    assert run(capsys, *base, "--format", "csv") == (
        1, "p,q,r,p_is_odd_prime\n2,4,7,false\n5,9,31,true\n", "")
    assert run(capsys, *base, "--format", "json") == (
        1, '{\n  "solutions": [\n    {\n      "p": 2,\n      "q": 4,\n      "r": 7,\n'
           '      "p_is_odd_prime": false\n    },\n    {\n      "p": 5,\n      "q": 9,\n'
           '      "r": 31,\n      "p_is_odd_prime": true\n    }\n  ]\n}\n', "")


_SYSTEM = ((["--system"], "system", None, ["three_coprime", "three_divides"], None, True,
            "which case of the 3 | N split to build"),
           (["--f3-min2"], "f3_min2", None, ["on", "off"], "off", False,
            "include the extra constraint f3 >= 2 (three_divides only; default off)"))
_JOBS = (["--jobs"], "jobs", "_positive_int", None, None, False,
         "accepted and ignored: the scan runs in this process")
_HELP = (["-h", "--help"], "help", None, None, argparse.SUPPRESS, False,
         "show this help message and exit")


def _format(*choices):
    return (["--format"], "format", None, list(choices), "text", False, None)


# per subcommand, in order: help, then each argument as
# (option strings, dest, type name, choices, default, required, help)
PARSER_SHAPE = {
    "verify": ("check a certificate file against a system", [
        _HELP, *_SYSTEM,
        (["--cert"], "cert", None, None, None, True, "certificate JSON path"),
        _format("text", "json")]),
    "optimize": ("best provable constant for a slope, with certificate", [
        _HELP, *_SYSTEM,
        (["--slope"], "slope", "_rational", None, None, True, None),
        (["--out"], "out", None, None, None, False, "write the dual certificate here"),
        _format("text", "json")]),
    "frontier": ("best constants for several slopes; CSV slope,constant,certificate_path", [
        _HELP, *_SYSTEM,
        (["--slopes"], "slopes", None, None, "", False, "comma-separated slopes, e.g. 2,8/3"),
        (["--out"], "out", None, None, None, False, "directory for the row certificates")]),
    "lemmas": ("check a supporting lemma: 1 by a walk over the primes that can divide "
               "two p^2+p+1, 2 by its Pell recurrence", [
        _HELP,
        (["--which"], "which", None, ["1", "2"], None, True, None),
        (["--max"], "max", "_positive_int", None, None, True,
         "scan bound (primes for 1, p for 2)"),
        _JOBS, _format("text", "csv", "json")]),
    "census": ("bucket x residue counts of odd primes above 3", [
        _HELP,
        (["--max"], "max", "_positive_int", None, None, True, None),
        _JOBS, _format("text", "csv", "json")]),
    "classify": ("bucket and residue of one odd prime above 3", [
        _HELP,
        ([], "p", "_integer", None, None, True, None),
        _format("text", "json")]),
    "scan": ("exact integer minimum of Omega - slope*omega over a box", [
        _HELP, *_SYSTEM,
        (["--slope"], "slope", "_rational", None, None, True, None),
        (["--box"], "box", "_positive_int", None, None, True,
         "free variables range over 0..box"),
        _JOBS, _format("text", "json")]),
    "describe": ("print the constraint table of a system", [_HELP, *_SYSTEM]),
}


def test_parser_frozen():
    parser = build_parser()
    assert (parser.prog, parser.description) == (
        "opnbounds", "Exact-arithmetic bounds on the prime factorization "
                     "shape of odd perfect numbers")
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert commands.required
    shape = {}
    for choice in commands._choices_actions:
        sub = commands.choices[choice.dest]
        shape[choice.dest] = (choice.help, [
            (a.option_strings, a.dest, getattr(a.type, "__name__", None), a.choices,
             a.default, a.required, a.help) for a in sub._actions])
    assert list(shape) == list(PARSER_SHAPE)
    for name, want in PARSER_SHAPE.items():
        assert shape[name] == want, name
