"""Exact-arithmetic toolkit for bounds relating Omega(N) and omega(N), the
prime factor counts (with and without multiplicity) of an odd perfect number.

The pieces: a rational linear constraint system over the factorization shape
(model), multiplier certificates that prove bounds Omega >= a*omega + b
(certificates), an exact simplex solver that finds the best such bound for a
given slope (lp, simplex), an exact integer-minimum cross-check
(enumeration), and number-theory scans backing the supporting lemmas
(primes, lemmas).

Importing the package loads none of them: the first access to a name the
package does not hold yet imports the whole public API below, so a CLI
process loads only the modules its subcommand runs.
"""

from importlib import import_module

# module -> the public names it defines
_API = {
    "certificates": ("Certificate", "CertificateFormatError", "VerificationReport",
                     "certificate_from_dict", "certificate_to_dict", "load_certificate",
                     "save_certificate", "verify_certificate"),
    "enumeration": ("ScanResult", "integer_scan", "is_feasible"),
    "lemmas": ("Lemma1Violation", "Lemma2Solution", "PrimeClass", "SharedPrimes",
               "bucket_census", "classify_prime", "lemma1_scan", "lemma2_scan",
               "lemma2_violations", "shared_primes"),
    "linexpr": ("LinExpr", "combine"),
    "lp": ("LPSolution", "SlopeBound", "UnboundedSlopeError", "best_constant",
           "frontier", "minimize"),
    "model": ("Case", "Constraint", "ConstraintSystem", "Relation", "Var",
              "build_system", "describe_system", "render_bound", "render_linexpr",
              "var_display"),
    "primes": ("factorize", "is_prime", "sieve"),
    "rationals": ("format_rational", "parse_rational"),
}

__version__ = "0.1.0"

__all__ = sorted(name for names in _API.values() for name in names)


def __getattr__(name: str):
    """Import every module of the API and bind its names here, then give
    name. The load is whole, not per name: code that reads one name (such
    as `from opnbounds import cli`, whose hasattr lands here) finds every
    layer module in sys.modules afterwards."""
    for module, names in _API.items():
        source = import_module(f".{module}", __name__)
        globals().update((each, getattr(source, each)) for each in names)
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
