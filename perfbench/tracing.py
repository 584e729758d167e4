"""Spans recorded from outside the solver.

The tracer swaps a wrapper in for a name in the namespace where callers
look it up (a module global or a class attribute), so the solver code is
untouched. ``cadmm.dnnsdp`` imports ``project_psd``, ``gram_solve`` and
the cone projections into its own namespace, so those are wrapped there,
not in ``cadmm.linalg`` or ``cadmm.cones``. Every swap is undone by
:meth:`Tracer.restore`.

Spans stay in memory as parallel lists (name id, start, end, parent) and
are written out once, at the end of a run.
"""

from __future__ import annotations

import time

import numpy as np

# (namespace attribute path, attribute, span name). The namespace is
# resolved against the imported ``cadmm`` package.
LAYER_HOOKS = (
    ("dnnsdp", "cadmm_step", "dnnsdp.cadmm_step"),
    ("dnnsdp", "dext_step", "dnnsdp.dext_step"),
    ("dnnsdp", "update_yI", "dnnsdp.update_yI"),
    ("dnnsdp", "update_Z", "dnnsdp.update_Z"),
    ("dnnsdp", "update_yE", "dnnsdp.update_yE"),
    ("dnnsdp", "update_S", "dnnsdp.update_S"),
    ("dnnsdp", "residuals", "dnnsdp.residuals"),
    ("dnnsdp", "tune_sigma", "dnnsdp.tune_sigma"),
    ("dnnsdp", "maybe_restart", "dnnsdp.maybe_restart"),
    ("dnnsdp", "cached_lambda_max", "dnnsdp.cached_lambda_max"),
    ("dnnsdp", "compute_delta", "engine.compute_delta"),
    ("dnnsdp", "update_tau", "engine.update_tau"),
    ("dnnsdp", "project_psd", "linalg.project_psd"),
    ("dnnsdp", "gram_solve", "linalg.gram_solve"),
    ("dnnsdp", "gram_factor", "linalg.gram_factor"),
    ("dnnsdp", "lambda_max_gram", "linalg.lambda_max_gram"),
    ("dnnsdp", "project_pattern_dual", "cones.project_pattern_dual"),
    ("dnnsdp", "project_pattern", "cones.project_pattern"),
    ("dnnsdp", "project_nonneg", "cones.project_nonneg"),
    ("linalg.SparseSymList", "apply", "linalg.apply"),
    ("linalg.SparseSymList", "adjoint", "linalg.adjoint"),
    ("io", "write_result", "io.write_result"),
    ("io", "emit_performance_profile", "io.emit_performance_profile"),
    ("io", "write_profile_csv", "io.write_profile_csv"),
)


class Tracer:
    """Span recorder. Use as a context manager around the traced work;
    leaving it restores every wrapped name."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self._stack: list = []
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, name: str):
        """Context manager recording one span opened by the benchmark."""
        return _Span(self, self._id(name))

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a recording wrapper."""
        original = owner.__dict__[attr]
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(idx, t0, time.perf_counter())

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def wrap_layers(self, cadmm_pkg) -> None:
        for path, attr, name in LAYER_HOOKS:
            owner = cadmm_pkg
            for part in path.split("."):
                owner = getattr(owner, part)
            self.wrap(owner, attr, name)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with per-span self time."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {"name_id": nid, "start": start, "end": end, "parent": parent,
                "dur": dur, "self": dur - child}

    def totals(self) -> dict:
        """``{name: (calls, inclusive seconds, self seconds)}``."""
        a = self.arrays()
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        incl = np.bincount(a["name_id"], weights=a["dur"], minlength=k)
        own = np.bincount(a["name_id"], weights=a["self"], minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def count(self, name: str, lo: int, hi: int) -> int:
        """Spans named ``name`` among span indices ``lo`` to ``hi - 1``."""
        nid = self._ids.get(name)
        return 0 if nid is None else self.name_id[lo:hi].count(nid)

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name_id=a["name_id"],
                            start=a["start"], end=a["end"], parent=a["parent"])


class _Span:
    __slots__ = ("tracer", "nid", "idx", "t0")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, time.perf_counter())
        return False
