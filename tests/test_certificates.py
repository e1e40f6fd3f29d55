import json
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnbounds.certificates import (Certificate, CertificateFormatError,
                                    certificate_from_dict, certificate_to_dict,
                                    load_certificate, save_certificate,
                                    verify_certificate)
from opnbounds.lp import best_constant, frontier
from opnbounds.model import Case, Var, build_system

import certificate_fraction_oracle as oracle

FIXTURES = Path(__file__).resolve().parent.parent / "certificates"

NO3 = build_system(Case.THREE_COPRIME)
WITH3 = build_system(Case.THREE_DIVIDES)


def fixture_a():
    return load_certificate(FIXTURES / "paper_no3.json")


def fixture_b():
    return load_certificate(FIXTURES / "paper_with3.json")


def test_fixture_a_passes_with_frozen_residuals():
    report = verify_certificate(NO3, fixture_a())
    assert report.passed and report.verdict == "pass"
    assert report.derived_slope == Fraction(8, 3)
    assert report.derived_constant == Fraction(-7, 3)
    expected = {v: Fraction(0) for v in Var if v not in (Var.Omega, Var.omega)}
    expected[Var.s22] = Fraction(-2, 9)
    expected[Var.f3] = Fraction(-1)
    assert report.residuals == expected


def test_fixture_b_passes_with_frozen_residuals():
    report = verify_certificate(WITH3, fixture_b())
    assert report.passed
    assert report.derived_slope == Fraction(21, 8)
    assert report.derived_constant == Fraction(-39, 8)
    expected = {v: Fraction(0) for v in Var if v not in (Var.Omega, Var.omega)}
    expected[Var.s32] = Fraction(-1, 8)
    assert report.residuals == expected


def test_fixture_b_passes_against_f3_min2_system_too():
    # the sharper system has every constraint the certificate references
    report = verify_certificate(build_system(Case.THREE_DIVIDES, True), fixture_b())
    assert report.passed
    assert report.derived_constant == Fraction(-39, 8)


def test_certificate_cannot_use_a_row_its_header_lacks():
    sharp = build_system(Case.THREE_DIVIDES, True)
    bound = best_constant(sharp, Fraction(0))
    assert bound.constant == 3 and "f3_min2" in bound.certificate.multipliers
    assert verify_certificate(sharp, bound.certificate).passed
    # relabelled as unconditional it would claim Omega >= 3 without f3 >= 2
    relabelled = bound.certificate._replace(include_f3_min2=False)
    report = verify_certificate(sharp, relabelled)
    assert not report.passed
    assert report.failure_reason == \
        "constraint outside the certificate's own system: f3_min2"


def test_scaling_invariance():
    cert = fixture_a()
    for factor in (Fraction(3), Fraction(1, 7), Fraction(5, 2)):
        scaled = Certificate(cert.case, cert.include_f3_min2,
                             {k: v * factor for k, v in cert.multipliers.items()},
                             cert.claimed_slope, cert.claimed_constant)
        report = verify_certificate(NO3, scaled)
        assert report.passed
        assert report.derived_constant == Fraction(-7, 3)
        assert report.residuals == verify_certificate(NO3, cert).residuals


def test_claimed_constant_monotonicity():
    cert = fixture_a()

    def with_claim(b):
        return Certificate(cert.case, cert.include_f3_min2, cert.multipliers,
                           cert.claimed_slope, b)

    assert verify_certificate(NO3, with_claim(Fraction(-3))).passed
    report = verify_certificate(NO3, with_claim(Fraction(0)))
    assert not report.passed
    assert "constant shortfall" in report.failure_reason


def test_system_mismatch():
    report = verify_certificate(WITH3, fixture_a())
    assert not report.passed
    assert "system mismatch" in report.failure_reason


def test_unknown_constraint():
    cert = fixture_b()
    bad = Certificate(cert.case, cert.include_f3_min2,
                      dict(cert.multipliers, f3_min2=Fraction(1)),
                      cert.claimed_slope, cert.claimed_constant)
    # f3_min2 exists only in the sharpened system
    report = verify_certificate(WITH3, bad)
    assert not report.passed
    assert report.failure_reason == "unknown constraint: f3_min2"


def test_illegal_multiplier_sign():
    cert = Certificate(Case.THREE_COPRIME, False,
                       {"omega_lower": Fraction(-1)}, Fraction(0), Fraction(0))
    report = verify_certificate(NO3, cert)
    assert not report.passed
    assert report.failure_reason == "illegal multiplier sign: omega_lower"
    # equality rows may go negative; fixture A itself does
    assert fixture_a().multipliers["s21_zero"] < 0


def test_no_omega_contribution():
    cert = Certificate(Case.THREE_COPRIME, False,
                       {"omega_no3": Fraction(1)}, Fraction(-1), Fraction(1))
    report = verify_certificate(NO3, cert)
    assert not report.passed
    assert report.failure_reason == "no Omega contribution"


def test_slope_mismatch_and_positive_residual():
    cert = fixture_a()
    wrong_slope = Certificate(cert.case, False, cert.multipliers,
                              Fraction(3), cert.claimed_constant)
    report = verify_certificate(NO3, wrong_slope)
    assert not report.passed
    assert "slope mismatch" in report.failure_reason

    # dropping the mod3_count row leaves a positive s21 coefficient
    # (omega_lower alone gives none; the zero-fixing rows supply it)
    chopped = dict(cert.multipliers)
    chopped["s21_zero"] = Fraction(1)
    broken = Certificate(cert.case, False, chopped, cert.claimed_slope,
                         cert.claimed_constant)
    report = verify_certificate(NO3, broken)
    assert not report.passed
    assert report.failure_reason.startswith("positive residual")


def test_non_rational_multiplier_raises_type_error_naming_it():
    cert = fixture_a()
    for name, bad in (("omega_lower", 1.0), ("s21_zero", Decimal("-1")),
                      ("omega_lower", "1/2"), ("omega_lower", -0.5)):
        tampered = cert._replace(multipliers=dict(cert.multipliers, **{name: bad}))
        with pytest.raises(TypeError, match=f"^{re.escape(f'multiplier {bad!r}')} is not a rational number$"):
            verify_certificate(NO3, tampered)


SETTINGS = {"three_coprime": NO3, "three_divides": WITH3,
            "f3_min2": build_system(Case.THREE_DIVIDES, True)}
SWEEP = sorted({Fraction(k, d) for d in range(1, 9) for k in range(-d, 4 * d + 1)})


def _assert_same_report(system, cert):
    got = verify_certificate(system, cert)
    want = oracle.verify_certificate(system, cert)
    assert got == want, cert
    assert type(got.derived_slope) is type(want.derived_slope)
    assert type(got.derived_constant) is type(want.derived_constant)
    assert list(got.residuals) == list(want.residuals)
    assert all(type(value) is Fraction for value in got.residuals.values())
    return got


def _tampered(cert):
    """The certificate with one edit each: a multiplier doubled, negated or
    dropped, the claimed slope or constant moved, the other case, the f3 >= 2
    flag flipped, or a row name no system has."""
    for name, m in cert.multipliers.items():
        for changed in (2 * m, -m):
            yield cert._replace(multipliers=dict(cert.multipliers, **{name: changed}))
        yield cert._replace(multipliers={k: v for k, v in cert.multipliers.items()
                                         if k != name})
    for delta in (Fraction(1, 7), Fraction(-1, 7)):
        yield cert._replace(claimed_slope=cert.claimed_slope + delta)
        yield cert._replace(claimed_constant=cert.claimed_constant + delta)
    other = Case.THREE_DIVIDES if cert.case is Case.THREE_COPRIME else Case.THREE_COPRIME
    yield cert._replace(case=other)
    yield cert._replace(include_f3_min2=not cert.include_f3_min2)
    yield cert._replace(multipliers=dict(cert.multipliers, no_such_row=Fraction(1)))


@pytest.mark.parametrize("setting", SETTINGS)
def test_integer_verifier_matches_fraction_oracle(setting):
    """Every report field over a frontier sweep, and over tampered copies of
    every third certificate checked against all three systems, equals the
    Fraction verifier's."""
    system = SETTINGS[setting]
    certs = [row.certificate for row in frontier(system, SWEEP) if row.certificate]
    assert len(certs) > len(SWEEP) // 2
    reasons = set()
    for cert in certs:
        assert _assert_same_report(system, cert).passed
    for cert in certs[::3]:
        for bad in _tampered(cert):
            for target in SETTINGS.values():
                reasons.add(str(_assert_same_report(target, bad).failure_reason).split(":")[0])
    assert {"slope mismatch", "positive residual", "constant shortfall", "system mismatch",
            "unknown constraint", "illegal multiplier sign"} <= reasons


def test_round_trip(tmp_path):
    cert = fixture_a()
    path = tmp_path / "copy.json"
    save_certificate(cert, path)
    assert load_certificate(path) == cert
    # and the wire form is exactly the schema fields
    data = json.loads(path.read_text())
    assert set(data) == {"system", "include_f3_min2", "multipliers",
                         "claimed_slope", "claimed_constant"}
    assert data["multipliers"]["s31_zero"] == "-10/9"


def _assert_saved_as_json(cert, path):
    save_certificate(cert, path)
    want = json.dumps(certificate_to_dict(cert), indent=2, ensure_ascii=False) + "\n"
    assert path.read_bytes() == want.encode("utf-8"), cert


# the output digest's slopes: every k/d in [-1, 4] with d <= 12
DIGEST_SLOPES = sorted({Fraction(k, d) for d in range(1, 13) for k in range(-d, 4 * d + 1)})


@pytest.mark.parametrize("setting", SETTINGS)
def test_saved_certificates_are_json_bytes(setting, tmp_path):
    """save_certificate writes json.dump's indent=2 bytes for every
    certificate of a frontier sweep, without json."""
    rows = frontier(SETTINGS[setting], DIGEST_SLOPES)
    certs = [row.certificate for row in rows if row.certificate]
    assert len(certs) > len(DIGEST_SLOPES) // 2
    for cert in certs:
        _assert_saved_as_json(cert, tmp_path / "cert.json")
    _assert_saved_as_json(certs[0]._replace(multipliers={}), tmp_path / "empty.json")
    _assert_saved_as_json(certs[0]._replace(include_f3_min2=True), tmp_path / "f3.json")


# names with what json escapes and what it writes as it is
_NAME_CHARS = st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f",
                                         "é", "Ω", "\u2028", "\u2029", "\U0001f600"]),
                        st.characters(blacklist_categories=("Cs",)))


@settings(deadline=None, max_examples=200)
@given(names=st.dictionaries(st.text(_NAME_CHARS, max_size=8),
                             st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)),
                             max_size=4))
def test_hand_built_names_are_saved_as_json_bytes(names, tmp_path_factory):
    cert = Certificate(Case.THREE_DIVIDES, True, names, Fraction(21, 8), Fraction(-39, 8))
    _assert_saved_as_json(cert, tmp_path_factory.mktemp("names") / "cert.json")


def _write(tmp_path, payload: str) -> Path:
    path = tmp_path / "cert.json"
    path.write_text(payload, encoding="utf-8")
    return path


def test_load_rejects_malformed_files(tmp_path):
    good = certificate_to_dict(fixture_a())

    variants = []
    zero_den = dict(good, multipliers=dict(good["multipliers"], t_f4="7/0"))
    variants.append(json.dumps(zero_den))
    unknown_field = dict(good, extra="1")
    variants.append(json.dumps(unknown_field))
    missing_field = {k: v for k, v in good.items() if k != "claimed_slope"}
    variants.append(json.dumps(missing_field))
    bad_case = dict(good, system="three_unknown")
    variants.append(json.dumps(bad_case))
    non_bool = dict(good, include_f3_min2="false")
    variants.append(json.dumps(non_bool))
    decimal = dict(good, claimed_slope="2.5")
    variants.append(json.dumps(decimal))
    numeric_multiplier = dict(good, multipliers=dict(good["multipliers"], t_f4=0.5))
    variants.append(json.dumps(numeric_multiplier))
    variants.append("{not json")
    variants.append(json.dumps(["a", "list"]))
    # duplicate constraint id inside multipliers
    variants.append(json.dumps(good).replace(
        '"t_f4": "7/9"', '"t_f4": "7/9", "t_f4": "1"'))

    for payload in variants:
        with pytest.raises(CertificateFormatError):
            load_certificate(_write(tmp_path, payload))


def test_load_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "cert.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(CertificateFormatError, match="not UTF-8"):
        load_certificate(path)


def test_from_dict_accepts_plain_dict():
    cert = certificate_from_dict(certificate_to_dict(fixture_b()))
    assert cert == fixture_b()
    assert cert.multipliers["omega_with3"] == Fraction(21, 8)


def test_soundness_on_sampled_feasible_points():
    """A passing certificate really does bound Omega - a*omega at feasible
    points; sampled over small integer boxes for both fixtures."""
    from opnbounds.enumeration import is_feasible
    from itertools import product

    for system, cert in ((NO3, fixture_a()), (WITH3, fixture_b())):
        report = verify_certificate(system, cert)
        assert report.passed
        count = 0
        for e, s1, s22, s32, t, f4 in product(range(3), repeat=6):
            point = {v: Fraction(0) for v in Var}
            if system.case is Case.THREE_DIVIDES:
                point[Var.f3] = Fraction(2)
            point[Var.e] = Fraction(e)
            point[Var.s1] = Fraction(s1)
            point[Var.s22] = Fraction(s22)
            point[Var.s32] = Fraction(s32)
            point[Var.t] = Fraction(t)
            point[Var.f4] = Fraction(f4)
            point[Var.s2] = point[Var.s21] + point[Var.s22]
            point[Var.s3] = point[Var.s31] + point[Var.s32]
            point[Var.s] = point[Var.s1] + point[Var.s2] + point[Var.s3]
            bump = 1 if system.case is Case.THREE_COPRIME else 2
            point[Var.omega] = point[Var.s] + point[Var.t] + bump
            point[Var.Omega] = (point[Var.e] + point[Var.f3]
                                + 2 * point[Var.s] + point[Var.f4])
            if not is_feasible(system, point):
                continue
            count += 1
            assert (point[Var.Omega] - cert.claimed_slope * point[Var.omega]
                    >= cert.claimed_constant)
        assert count > 20  # the sample actually hit feasible points
