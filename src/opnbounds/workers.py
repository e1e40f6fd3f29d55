"""Deterministic fan-out helper for the embarrassingly parallel scans.

A scan splits its input into chunks, maps a pure top-level function over
them (serially, or on a process pool when jobs > 1, with at most one
worker per core), and merges in chunk order, so the worker count never
changes any result. The pool module is imported only when a scan runs on
more than one worker, so a process that never fans out does not pay for it.
"""
from __future__ import annotations

import os


def effective_jobs(jobs: int | None, work: int) -> int:
    """The worker count for work items: jobs (all cores when None), clamped
    to [1, min(cores, work)], so no pool is larger than the machine."""
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be at least 1")
    cores = os.cpu_count() or 1
    return max(1, min(jobs or cores, cores, work))


def run_chunks(fn, chunks: list, jobs: int | None) -> list:
    """[fn(chunk) for chunk in chunks], possibly on a process pool.

    fn must be a picklable module-level function and pure; results come back
    in chunk order regardless of completion order.
    """
    jobs = effective_jobs(jobs, len(chunks))
    if jobs == 1:
        return [fn(chunk) for chunk in chunks]
    import multiprocessing
    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.map(fn, chunks)
