"""One thread policy: on two usable CPUs a job of two or more parts runs in two halves, the first on
a daemon thread fed by ``_queue``, no thread pool to import; once started, it slowed no small op."""

import _queue
import os
import threading
from collections.abc import Callable, Iterator

# Stack entries (length x d^2) from which a stacked eigh runs in halves: a split lost below
# 1k entries (a hand-off costs about 0.15 ms) and took 0.6-0.85x the time at 3-9k.
EIGH_SPLIT_ENTRIES = 1 << 13
_helper = []  # the helper thread's inbox, once the thread has started
if hasattr(os, "register_at_fork"):  # a forked child has no helper thread
    os.register_at_fork(after_in_child=_helper.clear)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(inbox: _queue.SimpleQueue) -> None:
    while True:  # (job, part, reply) in; (job(part), None) or (None, its exception) out
        job, part, reply = inbox.get()
        try:
            reply.put((job(part), None))
        except BaseException as error:  # raised again in the calling thread
            reply.put((None, error))
        del job  # its arrays do not outlive the call


def in_halves(job: Callable[[slice], object], length: int, size: int, least: int) -> list:
    """[job(slice(0, length))], or [job(first half), job(second half)], the first on the
    helper thread, for ``length`` >= 2 parts of ``size`` >= ``least`` on two usable CPUs.
    A job must not call ``in_halves``: on the helper thread, it would wait on itself."""
    if length < 2 or size < least or _usable_cpus() < 2:
        return [job(slice(0, length))]
    if not _helper:
        _helper.append(_queue.SimpleQueue())
        threading.Thread(target=_serve, args=(_helper[0],), daemon=True).start()
    reply = _queue.SimpleQueue()
    _helper[0].put((job, slice(0, length // 2), reply))
    try:
        second = job(slice(length // 2, length))
    finally:
        first, error = reply.get()  # waits, so that no half outlives the call
    if error is not None:
        raise error
    return [first, second]


def claimed(job: Callable[[Iterator[int]], dict], count: int) -> dict:
    """The merged dicts of one call, or two over ``in_halves`` (no size rule), of ``job`` on an
    iterator that claims the next of the ``count`` parts, so the less busy CPU takes more."""
    todo = [None, None, *reversed(range(count))]  # list.pop is atomic, free-threaded too
    halves = in_halves(lambda _: job(iter(todo.pop, None)), count, 0, 0)
    return {k: v for half in halves for k, v in half.items()}
