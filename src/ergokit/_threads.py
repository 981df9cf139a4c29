"""One thread policy: a large job runs in two independent halves, the first on a persistent
helper thread.  Small jobs stay serial: once a thread starts, glibc's malloc is slower for good."""

import os
from collections.abc import Callable

# Stack entries (length x d^2) from which a stacked eigh runs in halves: a split lost below
# 1k entries (a hand-off costs about 0.15 ms) and took 0.6-0.85x the time at 3-9k.
EIGH_SPLIT_ENTRIES = 1 << 13
_helper = []  # the ThreadPoolExecutor of one worker, once started
if hasattr(os, "register_at_fork"):  # a forked child has no helper thread
    os.register_at_fork(after_in_child=_helper.clear)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def in_halves(job: Callable[[slice], object], length: int, size: int, least: int) -> list:
    """[job(slice(0, length))], or [job(first half), job(second half)], the first on the
    helper thread, for ``length`` >= 2 parts of ``size`` >= ``least`` on two usable CPUs.
    A job must not call ``in_halves``: on the helper thread, it would wait on itself."""
    if length < 2 or size < least or _usable_cpus() < 2:
        return [job(slice(0, length))]
    if not _helper:
        from concurrent.futures import ThreadPoolExecutor

        _helper.append(ThreadPoolExecutor(1))
    first = _helper[0].submit(job, slice(0, length // 2))
    try:
        second = job(slice(length // 2, length))
    finally:
        first.exception()  # waits, so that no half outlives the call
    return [first.result(), second]
