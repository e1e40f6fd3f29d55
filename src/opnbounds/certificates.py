"""Linear-combination certificates and their verification.

A certificate claims Omega >= slope * omega + constant over one case system
by listing one rational multiplier per constraint. Verification recomputes
the weighted sum exactly: multipliers on inequalities must be nonnegative
(equalities may be signed), the combined Omega coefficient must be positive,
and after normalizing it to 1 every other variable's coefficient (the
residual) must be nonpositive. Then Omega - slope*omega + residual-terms +
constant >= 0 holds at every feasible point, which proves the claim whenever
the derived constant is at least the claimed one. Every multiplier must
also name a row of the system the certificate's own header declares, so a
certificate cannot lean on an assumption (such as f3 >= 2) it does not state.

The combination runs on integer rows. Row i is its integer form over a
scale s_i (LinExpr.integer_form), so multiplier n_i/d_i weighs that form by
n_i/(d_i*s_i). With L the lcm of the d_i*s_i, every weight times L is an
int, and the integer sum is L times the combination. No Fraction is formed
until the report: the derived slope, constant and residuals are the summed
ints divided by the summed Omega coefficient, whose sign is the combined
Omega coefficient's. A multiplier that is not a numbers.Rational raises
TypeError naming it.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple

from .model import Case, ConstraintSystem, Relation, Var, build_system
from .rationals import as_rational, format_rational, parse_rational

_ZERO = Fraction(0)
_VARS = tuple(Var)
_RESIDUAL_VARS = tuple(v for v in _VARS if v is not Var.Omega and v is not Var.omega)
# a character that json.dumps escapes even with ensure_ascii=False
_ESCAPED = re.compile(r'["\\\x00-\x1f]')
_SCHEMA_FIELDS = ("system", "include_f3_min2", "multipliers",
                  "claimed_slope", "claimed_constant")


class CertificateFormatError(ValueError):
    """Raised when a certificate file does not match the schema."""


class Certificate(NamedTuple):
    case: Case
    include_f3_min2: bool
    multipliers: Mapping  # constraint name -> Fraction
    claimed_slope: Fraction
    claimed_constant: Fraction

    def system(self) -> ConstraintSystem:
        return build_system(self.case, self.include_f3_min2)


class VerificationReport(NamedTuple):
    passed: bool
    failure_reason: str | None
    derived_slope: Fraction | None
    derived_constant: Fraction | None
    # coefficient after normalization for every variable except Omega, omega;
    # empty when verification failed before the combination was formed
    residuals: dict

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def verify_certificate(system: ConstraintSystem, cert: Certificate) -> VerificationReport:
    """Check a certificate against a system; a bad certificate fails the
    report and never raises, but a multiplier that is not a
    numbers.Rational raises TypeError."""

    def fail(reason):
        return VerificationReport(False, reason, None, None, {})

    if cert.case is not system.case:
        return fail(f"system mismatch: certificate targets {cert.case.value}, "
                    f"system is {system.case.value}")
    by_name = system.mapping()
    own = (by_name if cert.include_f3_min2 == system.include_f3_min2
           else cert.system().mapping())
    for name in cert.multipliers:
        if name not in by_name:
            return fail(f"unknown constraint: {name}")
        if name not in own:
            return fail(f"constraint outside the certificate's own system: {name}")

    # (n_i, d_i * s_i, integer row) per nonzero multiplier; see the docstring
    weighted = []
    for name, m in cert.multipliers.items():
        m = as_rational(m, "multiplier")
        if by_name[name].relation is Relation.GE and m < 0:
            return fail(f"illegal multiplier sign: {name}")
        if m:
            s, terms, constant = by_name[name].body.integer_form()
            weighted.append((m.numerator, m.denominator * s, terms, constant))
    unit = lcm(*[den for _, den, _, _ in weighted])
    coeffs = dict.fromkeys(_VARS, 0)
    total_constant = 0
    for num, den, terms, constant in weighted:
        w = num * (unit // den)
        for var, c in terms:
            coeffs[var] += w * c
        total_constant += w * constant
    omega_coeff = coeffs[Var.Omega]
    if omega_coeff <= 0:
        return fail("no Omega contribution")

    derived_slope = Fraction(-coeffs[Var.omega], omega_coeff)
    derived_constant = Fraction(-total_constant, omega_coeff)
    residuals = {v: Fraction(coeffs[v], omega_coeff) if coeffs[v] else _ZERO
                 for v in _RESIDUAL_VARS}
    report = VerificationReport(True, None, derived_slope, derived_constant, residuals)

    if derived_slope != cert.claimed_slope:
        return report._replace(passed=False, failure_reason=(
            f"slope mismatch: derived {format_rational(derived_slope)}, "
            f"claimed {format_rational(cert.claimed_slope)}"))
    for var in _RESIDUAL_VARS:
        if coeffs[var] > 0:  # the residual's sign, since omega_coeff > 0
            return report._replace(passed=False,
                                   failure_reason=f"positive residual: {var.name}")
    if derived_constant < cert.claimed_constant:
        return report._replace(passed=False, failure_reason=(
            f"constant shortfall: derived {format_rational(derived_constant)}, "
            f"claimed {format_rational(cert.claimed_constant)}"))
    return report


def _strict_object(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise CertificateFormatError(f"duplicate key: {key}")
        out[key] = value
    return out


def certificate_from_dict(data: dict) -> Certificate:
    if not isinstance(data, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    for name in _SCHEMA_FIELDS:
        if name not in data:
            raise CertificateFormatError(f"missing field: {name}")
    for name in data:
        if name not in _SCHEMA_FIELDS:
            raise CertificateFormatError(f"unknown field: {name}")
    try:
        case = Case(data["system"])
    except ValueError:
        raise CertificateFormatError(f"unknown system: {data['system']!r}") from None
    if not isinstance(data["include_f3_min2"], bool):
        raise CertificateFormatError("include_f3_min2 must be a boolean")
    raw = data["multipliers"]
    if not isinstance(raw, dict):
        raise CertificateFormatError("multipliers must be an object")
    multipliers = {}
    for name, text in raw.items():
        if not isinstance(text, str):
            raise CertificateFormatError(f"multiplier for {name} must be a string")
        try:
            multipliers[name] = parse_rational(text)
        except ValueError as exc:
            raise CertificateFormatError(f"multiplier for {name}: {exc}") from None
    try:
        slope = parse_rational(data["claimed_slope"])
        constant = parse_rational(data["claimed_constant"])
    except (TypeError, ValueError) as exc:
        raise CertificateFormatError(f"claimed bound: {exc}") from None
    return Certificate(case, data["include_f3_min2"], multipliers, slope, constant)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "system": cert.case.value,
        "include_f3_min2": cert.include_f3_min2,
        "multipliers": {name: format_rational(m)
                        for name, m in cert.multipliers.items()},
        "claimed_slope": format_rational(cert.claimed_slope),
        "claimed_constant": format_rational(cert.claimed_constant),
    }


def load_certificate(path) -> Certificate:
    import json
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise CertificateFormatError(f"not UTF-8: {exc}") from None
    try:
        data = json.loads(text, object_pairs_hook=_strict_object)
    except CertificateFormatError:
        raise
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, or what the decoder raises past its nesting
        # depth or CPython's 4300-digit limit on an integer literal
        raise CertificateFormatError(f"invalid JSON: {exc}") from None
    return certificate_from_dict(data)


def _json_text(value, indent="") -> str:
    """value as json.dumps(value, indent=2, ensure_ascii=False) spells it
    at that indent, for the values certificate_to_dict holds: a string,
    a bool, or a dict of them. json is imported only for a string it
    escapes, which only a hand-built multiplier name can hold."""
    if type(value) is str:
        if _ESCAPED.search(value) is None:
            return f'"{value}"'
    elif value is True or value is False:
        return "true" if value else "false"
    elif type(value) is dict and value:
        inner = indent + "  "
        items = ",\n".join([f"{inner}{_json_text(key)}: {_json_text(item, inner)}"
                            for key, item in value.items()])
        return f"{{\n{items}\n{indent}}}"
    import json
    return json.dumps(value, ensure_ascii=False)


def save_certificate(cert: Certificate, path) -> None:
    """Write the certificate in json.dump's indent=2 layout, non-ASCII text
    as it is, and a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_json_text(certificate_to_dict(cert)) + "\n")
