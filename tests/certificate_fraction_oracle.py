"""The Fraction certificate verifier that opnbounds.certificates replaced,
kept as a test oracle: the weighted sum is formed by the public
linexpr.combine and normalized by a second combine, with weight one over
its Omega coefficient, every coefficient a Fraction. The integer
combination must give the same report, field by field. API matches
opnbounds.certificates.verify_certificate.
"""
from __future__ import annotations

from fractions import Fraction

from opnbounds.certificates import VerificationReport
from opnbounds.linexpr import combine
from opnbounds.model import Relation, Var
from opnbounds.rationals import format_rational


def verify_certificate(system, cert) -> VerificationReport:
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
    for name, multiplier in cert.multipliers.items():
        if by_name[name].relation is Relation.GE and multiplier < 0:
            return fail(f"illegal multiplier sign: {name}")

    total = combine((m, by_name[name].body) for name, m in cert.multipliers.items())
    omega_coeff = total.coeff(Var.Omega)
    if omega_coeff <= 0:
        return fail("no Omega contribution")
    normalized = combine([(Fraction(1) / omega_coeff, total)])

    derived_slope = -normalized.coeff(Var.omega)
    derived_constant = -normalized.constant
    residuals = {v: normalized.coeff(v) for v in Var
                 if v is not Var.Omega and v is not Var.omega}
    report = VerificationReport(True, None, derived_slope, derived_constant, residuals)

    if derived_slope != cert.claimed_slope:
        return report._replace(passed=False, failure_reason=(
            f"slope mismatch: derived {format_rational(derived_slope)}, "
            f"claimed {format_rational(cert.claimed_slope)}"))
    for var in Var:
        if var in residuals and residuals[var] > 0:
            return report._replace(passed=False,
                                   failure_reason=f"positive residual: {var.name}")
    if derived_constant < cert.claimed_constant:
        return report._replace(passed=False, failure_reason=(
            f"constant shortfall: derived {format_rational(derived_constant)}, "
            f"claimed {format_rational(cert.claimed_constant)}"))
    return report
