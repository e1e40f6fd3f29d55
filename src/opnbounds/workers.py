"""A serial map over chunks, kept for the benchmark's tracer.

No scan in this package calls it: each scan calls its chunk function
directly. Only perfbench/tracing.py still imports run_chunks, to time it
beside the scans; the benchmark change that retires that probe removes
this module too.
"""
from __future__ import annotations


def run_chunks(fn, chunks: list, jobs: int | None = None) -> list:
    """[fn(chunk) for chunk in chunks]. jobs is accepted and ignored: every
    chunk runs in the calling process."""
    return [fn(chunk) for chunk in chunks]
