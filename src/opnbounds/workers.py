"""Deterministic fan-out helper for the embarrassingly parallel scans.

A scan splits its input into chunks, maps a pure function over them and
merges in chunk order, so the worker count never changes any result. With
jobs > 1 workers, at most one per usable core, the calling process forks
jobs - 1 children. Child k inherits the function and the chunks, so nothing
is pickled on the way in; it maps chunks[k::jobs], pickles its result list,
or the exception it raised, into its own pipe and ends with os._exit, so it
runs no exit handler and flushes no copy of the parent's stdio buffers. The
parent maps share 0, chunks[0::jobs], itself, reads every pipe to the end,
reaps every child, and kills and reaps the children when it stops early, so
no worker outlives the call. Where os.fork does not exist the chunks run
serially. pickle is imported only on the fork path, so a process that never
fans out does not pay for it.
"""
from __future__ import annotations

import os


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity set where the
    platform reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def effective_jobs(jobs: int | None, work: int) -> int:
    """The worker count for work items: jobs (all usable cores when None),
    clamped to [1, min(usable cores, work)], so no fan-out is larger than the
    cores this process may run on."""
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be at least 1")
    cores = usable_cores()
    return max(1, min(jobs or cores, cores, work))


def run_chunks(fn, chunks: list, jobs: int | None) -> list:
    """[fn(chunk) for chunk in chunks], with the chunks spread over forked
    workers.

    fn must be pure and its results picklable. A worker's exception is
    raised here with its type and message; a worker that dies before it
    sends its result raises RuntimeError naming its exit status.
    """
    jobs = effective_jobs(jobs, len(chunks))
    if jobs == 1 or not hasattr(os, "fork"):
        return [fn(chunk) for chunk in chunks]
    children = {}  # pid -> read end of its pipe, for every child not yet reaped
    try:
        for k in range(1, jobs):
            read, write = os.pipe()
            try:
                children[_fork(fn, chunks[k::jobs], write)] = read
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
        out = [None] * len(chunks)
        out[0::jobs] = [fn(chunk) for chunk in chunks[0::jobs]]
        for k, pid in enumerate(list(children), 1):
            # the pipe leaves children only once read to the end, so an
            # interrupt during the read still kills and reaps this child
            with open(children[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            os.close(children.pop(pid))
            out[k::jobs] = _result(data, os.waitpid(pid, 0)[1])
        return out
    finally:
        for pid, read in children.items():
            os.close(read)
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _fork(fn, chunks: list, write: int) -> int:
    """Fork a worker and return its pid. The worker maps fn over chunks,
    writes the pickled list, or the exception it raised, to the pipe end
    write, and ends the process without returning."""
    import pickle
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        try:
            payload, code = pickle.dumps([fn(chunk) for chunk in chunks]), 0
        except BaseException as exc:  # the parent raises it again
            payload = _pickled_error(exc)
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(code)


def _pickled_error(exc: BaseException) -> bytes:
    """exc pickled, or, when it does not survive a pickle round trip, a
    RuntimeError that names its type and message."""
    import pickle
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


def _result(data: bytes, status: int) -> list:
    """A reaped worker's result list from the bytes it wrote and its wait
    status; its exception is raised."""
    import pickle
    try:
        value = pickle.loads(data)
    except Exception:  # no payload, or one cut short
        raise RuntimeError(f"a worker ended without sending its result (exit "
                           f"status {os.waitstatus_to_exitcode(status)})") from None
    if isinstance(value, BaseException):
        raise value
    return value
