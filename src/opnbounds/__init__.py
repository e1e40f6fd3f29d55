"""Exact-arithmetic toolkit for bounds relating Omega(N) and omega(N), the
prime factor counts (with and without multiplicity) of an odd perfect number.

The pieces: a rational linear constraint system over the factorization shape
(model), multiplier certificates that prove bounds Omega >= a*omega + b
(certificates), an exact simplex solver that finds the best such bound for a
given slope (lp, simplex), an exact integer-minimum cross-check
(enumeration), and number-theory scans backing the supporting lemmas
(primes, lemmas).
"""

from .certificates import (Certificate, CertificateFormatError,
                           VerificationReport, certificate_from_dict,
                           certificate_to_dict, load_certificate,
                           save_certificate, verify_certificate)
from .enumeration import ScanResult, integer_scan, is_feasible
from .lemmas import (Lemma1Violation, Lemma2Solution, PrimeClass,
                     SharedPrimes, bucket_census, classify_prime,
                     lemma1_scan, lemma2_scan, lemma2_violations,
                     shared_primes)
from .linexpr import LinExpr, combine
from .lp import (FrontierRow, LPSolution, SlopeBound,
                 UnboundedSlopeError, best_constant, frontier, minimize)
from .model import (Case, Constraint, ConstraintSystem, Relation, Var,
                    build_system, describe_system, render_bound,
                    render_linexpr, var_display)
from .primes import factorize, is_prime, sieve
from .rationals import format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "Case", "Certificate", "CertificateFormatError", "Constraint",
    "ConstraintSystem", "FrontierRow", "Lemma1Violation", "Lemma2Solution",
    "LinExpr", "LPSolution", "PrimeClass",
    "Relation", "ScanResult", "SharedPrimes", "SlopeBound",
    "UnboundedSlopeError", "Var", "VerificationReport", "best_constant",
    "bucket_census", "build_system", "certificate_from_dict",
    "certificate_to_dict", "classify_prime", "combine", "describe_system",
    "factorize", "format_rational", "frontier", "integer_scan", "is_feasible",
    "is_prime", "lemma1_scan", "lemma2_scan", "lemma2_violations",
    "load_certificate", "minimize", "parse_rational",
    "render_bound", "render_linexpr", "save_certificate", "shared_primes",
    "sieve", "var_display", "verify_certificate",
]
