"""The one map the scans run their chunks through.

A scan splits its input into chunks, maps a pure function over them in this
process and merges the results in chunk order. A test can replace run_chunks
to show that a scan refuses its input before doing any work.
"""
from __future__ import annotations


def run_chunks(fn, chunks: list, jobs: int | None = None) -> list:
    """[fn(chunk) for chunk in chunks]. jobs is accepted and ignored: every
    chunk runs in the calling process."""
    return [fn(chunk) for chunk in chunks]
