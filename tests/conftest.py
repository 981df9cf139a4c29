"""Shared fixtures."""

import os
import tempfile

import numpy as np
import pytest

# Hypothesis caches source constants in its storage directory even with
# database=None; keep that cache out of the working tree.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "ergokit-hypothesis")
)


@pytest.fixture
def eigensolver_calls(monkeypatch):
    """Counts of ``numpy.linalg.eigh``, ``eigvalsh`` and ``qr`` calls from here on."""
    calls = {"eigh": 0, "eigvalsh": 0, "qr": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
