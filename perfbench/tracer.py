"""Outside-in span tracing of ergokit, installed from the benchmark's own files.

``Tracer.install`` replaces, in every ergokit module namespace, each reference
to a public function of another ergokit module (and each ergokit module alias
such as ``cli.geo``) with a recording wrapper, so a span is recorded at every
call that crosses a layer boundary.  Layers are the modules; ``linalg`` is the
boundary layer made of ``numpy.linalg.eigh``/``eigvalsh``.  The functions named
in ``ALWAYS`` are also wrapped inside their own module, because per-layer
metrics count or time them wherever they are called.  ``json.dumps`` (called by
``cli._emit``) and ``json.load`` (the ``--input`` read path) get spans of their
own.  Classes are not wrapped: constructor work lands in the calling layer.

Spans are kept in memory as ``[name, start, end, parent, op_id, note]`` and
written out by the caller when the run ends; each top-level call (one CLI op)
starts a new ``op_id``, counting from 0.  ``uninstall`` restores every
replaced reference.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import types
from time import perf_counter

import numpy as np

LAYERS = ("quantum", "ergotropy", "geometric", "classical", "workbench", "sampling",
          "serialize", "cli")

# Recorded wherever they are called, including calls from inside their module.
ALWAYS = {
    "quantum.eigendecompose", "quantum.gibbs_state", "quantum.quantum_relative_entropy",
    "quantum.spectral_relative_entropy", "ergotropy.ergotropy_report",
    "ergotropy.unitary_min_probe", "geometric.ergotropy_geometric",
    "geometric.geometric_partition_function", "classical.stationarity_probe",
    "classical.joint_from_kernel", "workbench.evolve_unitary", "workbench.step_product",
    "workbench.sharpened_bound_report", "cli.main",
}

# Span note: the named argument, or the bytes of the arrays it holds.
NOTES = {
    "ergotropy.unitary_min_probe": "n_samples",
    "geometric.geometric_partition_function": "n_samples",
    "workbench.step_product": "n_steps",
    "classical.joint_from_kernel": "kernel",
}


def array_bytes(obj) -> int:
    """Bytes held by the ndarray fields of a dataclass instance (computed, not measured)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if dataclasses.is_dataclass(obj):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note_param = NOTES.get(name)
        signature = inspect.signature(fn) if note_param else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = None
            if note_param:
                value = signature.bind(*args, **kwargs).arguments.get(note_param)
                note = value if isinstance(value, int) else array_bytes(value)
            if not stack:  # a top-level call starts the next op
                self.op_id += 1
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, note])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end

        return traced

    def _replace(self, namespace: dict, key: str, value) -> None:
        self._saved.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {layer: sys.modules[f"ergokit.{layer}"] for layer in LAYERS}
        wrappers = {}  # id(original function) -> wrapper
        proxies = {}
        for layer, module in modules.items():
            proxy = types.ModuleType(module.__name__)
            proxy.__dict__.update(vars(module))
            for key, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not key.startswith("_")):
                    wrappers[id(value)] = self._wrap(f"{layer}.{key}", value)
                    proxy.__dict__[key] = wrappers[id(value)]
            proxies[id(module)] = proxy
        for layer, module in modules.items():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    own = value.__module__ == module.__name__
                    if not own or f"{layer}.{key}" in ALWAYS:
                        self._replace(namespace, key, wrappers[id(value)])
                elif id(value) in proxies and value is not module:
                    self._replace(namespace, key, proxies[id(value)])
        linalg = vars(np.linalg)
        for key in ("eigh", "eigvalsh"):
            self._replace(linalg, key, self._wrap(f"linalg.{key}", linalg[key]))
        self._replace(vars(json), "dumps", self._wrap("cli.json_dumps", json.dumps))
        self._replace(vars(json), "load", self._wrap("serialize.json_load", json.load))

    def uninstall(self) -> None:
        while self._saved:
            namespace, key, original = self._saved.pop()
            namespace[key] = original


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nearest_ancestor(spans: list[list], index: int, name: str) -> int:
    """Index of the closest enclosing span called ``name``, or -1."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return -1
