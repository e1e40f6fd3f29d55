"""Regenerate census_reference.json, the pinned expected output of
`opnbounds census` used by the benchmark's checks.

The counts come from sympy's primerange and factorint, which share no code
with opnbounds, so a wrong census in the package cannot also be written
into the reference. sympy is needed only here, never by the benchmark.

    python3 perfbench/make_census_reference.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import sympy

SIZES = (20000, 400000)
OUT = Path(__file__).resolve().parent / "census_reference.json"


def census(limit: int) -> dict:
    counts = {f"{bucket} residue {residue}": 0
              for bucket in ("S1", "S2", "S3plus") for residue in (1, 2)}
    for p in sympy.primerange(5, limit + 1):
        k = sum(sympy.factorint(p * p + p + 1).values())
        bucket = ("S1", "S2", "S3plus")[min(k, 3) - 1]
        counts[f"{bucket} residue {p % 3}"] += 1
    return counts


def main() -> int:
    reference = {
        "provenance": {
            "oracle": f"sympy {sympy.__version__}: primerange(5, max + 1) and "
                      "factorint(p*p + p + 1), exponents summed",
            "python": sys.version.split()[0],
            "script": "perfbench/make_census_reference.py",
        },
        "counts": {str(limit): census(limit) for limit in SIZES},
    }
    OUT.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
