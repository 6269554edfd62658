"""In-memory span tracer for the benchmark's traced runs.

A span is ``[name, start, end, parent, iteration]``: monotonic-clock
seconds, the index of the enclosing span (None at the top) and the id of
the benchmark iteration it belongs to.  Spans stay in memory and are
written out once, when the run ends.

Layers are traced from outside the library: `Tracer.install` replaces a
library function by a wrapper in every ``reproflow`` module that holds a
reference to it (``reproflow.galerkin.advect`` as well as
``reproflow.fields.advect``), so calls between modules are seen too.
`Tracer.uninstall` puts the originals back.
"""

import contextlib
import functools
import importlib
import json
import os
import sys
import time

CLOCK = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on one host

# (module, attribute, span name).  `stokes._square_eigenbasis` is the
# eigensolver build inside `compute_eigenbasis`: a call to the latter
# without one was served from the cache.
TARGETS = [
    ("reproflow.fields", "advect", "fields.advect"),
    ("reproflow.fields", "trilinear", "fields.trilinear"),
    ("reproflow.stokes", "compute_eigenbasis", "stokes.compute_eigenbasis"),
    ("reproflow.stokes", "_square_eigenbasis", "stokes.eigsh"),
    ("reproflow.lift", "build_stream_function", "lift.build_stream_function"),
    ("reproflow.lift", "build_lift", "lift.build_lift"),
    ("reproflow.lift", "compute_forcing", "lift.compute_forcing"),
    ("reproflow.lift", "compute_beta", "lift.compute_beta"),
    ("reproflow.lift", "verify_smallness", "lift.verify_smallness"),
    ("reproflow.galerkin", "assemble_tensors", "galerkin.assemble_tensors"),
    ("reproflow.galerkin", "solve", "galerkin.solve"),
    ("reproflow.galerkin", "step", "galerkin.step"),
    ("reproflow.galerkin", "recover_pressure", "galerkin.recover_pressure"),
    ("reproflow.verification", "check_energy_inequality",
     "verification.check_energy_inequality"),
    ("reproflow.verification", "check_h1_bound", "verification.check_h1_bound"),
    ("reproflow.verification", "stability_experiment",
     "verification.stability_experiment"),
    ("reproflow.reproductive", "map_L", "reproductive.map_L"),
    ("reproflow.reproductive", "find_reproductive", "reproductive.find_reproductive"),
    ("reproflow.reproductive", "measure_contraction",
     "reproductive.measure_contraction"),
    ("reproflow.snapshots", "save_vector", "snapshots.save_vector"),
    ("reproflow.snapshots", "save_scalar", "snapshots.save_scalar"),
]

SNAPSHOT_SPANS = ("snapshots.save_vector", "snapshots.save_scalar")


def _npz_path(path):
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = []  # [name, value, iteration]
        self.iteration = None
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.iteration])
        self._stack.append(idx)
        self.spans[idx][1] = CLOCK()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = CLOCK()
        self._stack.pop()

    def count(self, name, value):
        self.counters.append([name, value, self.iteration])

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name in SNAPSHOT_SPANS:
                tracer.count("snapshots.bytes_written",
                             os.path.getsize(_npz_path(args[0])))
            return result
        return traced

    def install(self):
        for modname, attr, name in TARGETS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("reproflow"):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def adopt(self, spans, counters, parent):
        """Append spans exported by a child process under span `parent`."""
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            par = parent if par is None else par + base
            self.spans.append([name, start, end, par, self.iteration])
        for name, value, _ in counters:
            self.count(name, value)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def rollup(spans, iterations):
    """Per span name: calls, wall and self seconds over the given iterations.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of one iteration add up to the duration
    of its root span.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for idx, (name, start, end, parent, it) in enumerate(spans):
        if it not in iterations:
            continue
        row = out.setdefault(name, {"calls": 0, "wall": 0.0, "self": 0.0})
        row["calls"] += 1
        row["wall"] += end - start
        row["self"] += end - start - child[idx]
    return out

