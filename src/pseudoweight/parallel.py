"""Forked workers for the study and the ``estimate`` job: how many CPUs
this process may use, and a map that runs shares of a list in children."""

import math
import os
import pickle

#: cgroup v2 CPU quota, ``max`` or ``QUOTA PERIOD`` in microseconds; inside
#: a container this is the container's own cgroup.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cpu_quota() -> float:
    """CPUs the cgroup quota in :data:`_CPU_MAX` pays for, rounded up;
    infinite when there is no quota or the file is absent or malformed."""
    try:
        with open(_CPU_MAX, encoding="ascii") as fh:
            quota, period = map(int, fh.read().split())
    except (OSError, ValueError):  # includes "max", which means no quota
        return math.inf
    if quota <= 0 or period <= 0:
        return math.inf
    return math.ceil(quota / period)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, capped by the
    cgroup CPU quota.  Forked workers are verified on Linux only, so other
    platforms (which lack ``os.sched_getaffinity``) count one and run
    serially."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), _cpu_quota())


def _outcome(fn, *args):
    """``(True, fn(*args))``, or ``(False, exc)`` when it raises ``exc``."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _fork(fn, *args):
    """Start ``fn(*args)`` in a forked child and return the function that
    waits for it.  The wait reaps the child and returns what ``fn``
    returned, or raises what it raised, pickled back through a pipe; a
    child that ends without a result raises :class:`ChildProcessError`
    naming its exit status.  Forked, not spawned: a spawned child would
    import numpy and ``scipy.special`` again, which takes longer than an
    ``estimate`` call."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if not pid:
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(_outcome(fn, *args), pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)

    def wait():
        try:
            with os.fdopen(read_end, "rb") as pipe:
                data = pipe.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status or not data:
            raise ChildProcessError(f"a forked worker ended with exit status {status}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    return wait


def _fork_map(fn, items, workers, here=True):
    """``[fn(item) for item in items]`` in up to ``workers`` shares: share
    k is ``items[k::workers]`` and runs in a forked child (:func:`_fork`),
    except the last, which this process runs when ``here`` or when it is
    the only share.  Every child is reaped before an error is raised, the
    first in share order."""
    workers = max(1, min(workers, len(items)))
    shares = [items[k::workers] for k in range(workers)]
    here = here or workers == 1
    waits, outcomes = [], []

    def run(share):
        return [fn(item) for item in share]

    try:
        for share in shares[:-1] if here else shares:
            waits.append(_fork(run, share))
        outcomes = [_outcome(run, shares[-1])] if here else []
    finally:
        outcomes = [_outcome(wait) for wait in waits] + outcomes
    results = [None] * len(items)
    for k, (ok, value) in enumerate(outcomes):
        if not ok:
            raise value
        results[k::workers] = value
    return results

