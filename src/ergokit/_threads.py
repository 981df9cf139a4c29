"""One thread primitive, ``claimed``: on two usable CPUs a job of two or more parts runs as two
calls that claim the parts in turn, the first on a daemon thread fed by ``_queue``, no thread pool
to import.  The Monte Carlo blocks and the propagator's eigh chunks use it; once started, the
thread slowed no small op."""

import _queue
import os
import threading
from collections.abc import Callable, Iterator

_helper = []  # the helper thread's inbox, once the thread has started
if hasattr(os, "register_at_fork"):  # a forked child has no helper thread
    os.register_at_fork(after_in_child=_helper.clear)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(inbox: _queue.SimpleQueue) -> None:
    while True:  # (job, claims, reply) in; (job(claims), None) or (None, its exception) out
        job, claims, reply = inbox.get()
        try:
            reply.put((job(claims), None))
        except BaseException as error:  # raised again in the calling thread
            reply.put((None, error))
        del job, claims  # their arrays do not outlive the call


def claimed(job: Callable[[Iterator[int]], dict], count: int) -> dict:
    """The merged dicts of one call, or of two, the first on the helper thread, of ``job`` on an
    iterator that claims the next of the ``count`` parts, so the less busy CPU takes more.  Two
    calls need ``count`` >= 2 and two usable CPUs; an error in either is raised once both end.
    A job must not call ``claimed``: on the helper thread, it would wait on itself."""
    todo = [None, None, *reversed(range(count))]  # list.pop is atomic, free-threaded too
    if count < 2 or _usable_cpus() < 2:
        return job(iter(todo.pop, None))
    if not _helper:
        _helper.append(_queue.SimpleQueue())
        threading.Thread(target=_serve, args=(_helper[0],), daemon=True).start()
    reply = _queue.SimpleQueue()
    _helper[0].put((job, iter(todo.pop, None), reply))
    try:
        second = job(iter(todo.pop, None))
    finally:
        first, error = reply.get()  # waits, so that no call outlives ``claimed``
    if error is not None:
        raise error
    return {**first, **second}
