"""Shared fixtures."""

import os
import tempfile
import threading

import numpy as np
import pytest

from ergokit import _threads

# Hypothesis caches source constants in its storage directory even with
# database=None; keep that cache out of the working tree.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "ergokit-hypothesis")
)


class _Counts(dict):
    """Calls per solver name; ``matrices`` holds the matrices each name was given."""


@pytest.fixture
def eigensolver_calls(monkeypatch):
    """Counts of ``numpy.linalg.eigh``, ``eigvalsh`` and ``qr`` calls from here on, from any
    thread, and in ``.matrices`` the matrices they were given (a stack counts its length)."""
    calls = _Counts(eigh=0, eigvalsh=0, qr=0)
    calls.matrices = dict.fromkeys(calls, 0)
    lock = threading.Lock()
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            with lock:
                calls[_name] += 1
                calls.matrices[_name] += int(np.prod(np.shape(a)[:-2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs for the thread helper, whatever the machine has."""
    monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
