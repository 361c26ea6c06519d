"""Span recorder for the traced benchmark run.

The benchmark wraps public functions of each pdmpkit module, and the
callables a model carries, in place.  Every wrapped call leaves one span:
(id, name, start, end, parent, work).  ``work`` is the number of points a
vectorized callable was handed, 1 otherwise.  Spans stay in per-thread
``array`` buffers until the run ends.  Nothing under ``src/`` is changed:
the wrappers are installed from here for the traced rounds only.

A span's parent is the innermost open span of its own thread.  Spans that a
worker thread opens with nothing open on that thread take the main thread's
innermost open span as parent: that is the ``estimate_density`` call which
handed the work to the pool.
"""

from __future__ import annotations

import array
import dataclasses
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "core", "models", "simulate", "semigroup", "chain", "verify")

# public functions wrapped in every module that binds them, by layer
MODULE_FUNCTIONS = {
    "cli": ("build_model",),
    "core": ("advance", "cocycle", "hitting_time", "hazard_integral"),
    "models": (
        "build_drift_redistribute", "build_cell_cycle", "build_kinetic_slab",
        "p1_apply", "p1_invariant", "cell_cycle_lift",
    ),
    "simulate": (
        "estimate_density", "simulate_path", "step", "sample_holding", "sample_from_density",
    ),
    "semigroup": (
        "transport_step", "trace_plus", "trace_minus", "jump_terms", "evolve", "resolvent_G",
    ),
    "chain": (
        "apply_R0", "apply_K", "invariant_of_K", "lift_invariant", "project_invariant",
        "k_stochasticity_defect",
    ),
    "verify": ("duhamel_oracle", "resolvent_duality", "restrict_density", "mc_vs_pde"),
}


def _points(arg):
    """Work counter: the row count of the (n, dim) point array at ``arg``."""
    def count(args):
        X = args[arg]
        return X.shape[0] if getattr(X, "ndim", 1) == 2 else 1
    return count


# grid methods wrapped on their class: span name -> (class name, method, work)
CLASS_METHODS = {
    "core.interpolate": ("InteriorGrid", "interpolate", _points(2)),
    "core.locate": ("InteriorGrid", "locate", _points(1)),
    "core.GridDensity": ("GridDensity", "__init__", None),
}

# callables a model carries: span name -> (attribute path, work)
MODEL_CALLABLES = {
    "models.phi": (("flow", "phi"), _points(1)),
    "models.jac": (("flow", "jac"), _points(1)),
    "models.hit_plus": (("flow", "hit_plus"), _points(0)),
    "models.hit_minus": (("flow", "hit_minus"), _points(0)),
    "models.rate": (("rate",), _points(0)),
    "models.cumulative_hazard": (("cumulative_hazard",), _points(0)),
    "models.inverse_hazard": (("inverse_hazard",), None),
    "models.sample": (("jump", "sample"), None),
    "models.p0": (("jump", "p0"), None),
    "models.p_partial": (("jump", "p_partial"), None),
    "models.backward_orbit": (("backward_orbit",), None),
    "models.in_state_space": (("in_state_space",), None),
}


# columns: span id, name id, start ns, end ns, parent id, work
_TYPECODES = ("i", "i", "q", "q", "i", "i")


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self, package):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._bufs: dict[int, tuple] = {}
        self._stacks: dict[int, list] = {}
        self._main = self._stack()
        self._patches = self._plan(package)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        tid = threading.get_ident()
        st = self._stacks.get(tid)
        if st is None:
            st = self._stacks.setdefault(tid, [])
            self._bufs.setdefault(tid, tuple(array.array(c) for c in _TYPECODES))
        return st

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self):
        st = self._stack()
        sid = next(self._ids)
        main = self._main
        parent = st[-1] if st else (main[-1] if main else -1)
        st.append(sid)
        return st, sid, parent

    def _close(self, st, sid, nid, t0, parent, work):
        t1 = perf_counter_ns()
        st.pop()
        b = self._bufs[threading.get_ident()]
        for column, v in zip(b, (sid, nid, t0, t1, parent, work)):
            column.append(v)

    def wrap(self, name: str, fn, work=None):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            st, sid, parent = self._open()
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(st, sid, nid, t0, parent, work(args) if work else 1)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a case, a rebuild, ...)."""
        nid = self._name_id(name)
        st, sid, parent = self._open()
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(st, sid, nid, t0, parent, 1)

    # -- installing ---------------------------------------------------------

    def _plan(self, package):
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        patches = []
        for layer, fnames in MODULE_FUNCTIONS.items():
            for fname in fnames:
                orig = getattr(getattr(package, layer), fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patches.append((mod, attr, orig, wrapper))
        for name, (cls_name, meth, work) in CLASS_METHODS.items():
            cls = getattr(package.core, cls_name)
            orig = vars(cls)[meth]
            patches.append((cls, meth, orig, self.wrap(name, orig, work)))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def instrument(self, model):
        """A copy of ``model`` whose callables are wrapped."""
        changes: dict = {}
        for name, (path, work) in MODEL_CALLABLES.items():
            if len(path) == 1:
                fn = getattr(model, path[0])
                if fn is not None:
                    changes[path[0]] = self.wrap(name, fn, work)
            else:
                fn = getattr(getattr(model, path[0]), path[1])
                changes.setdefault(path[0], {})[path[1]] = self.wrap(name, fn, work)
        for part in ("flow", "jump"):
            changes[part] = dataclasses.replace(getattr(model, part), **changes[part])
        return dataclasses.replace(model, **changes)

    # -- output -------------------------------------------------------------

    def table(self) -> "SpanTable":
        """All spans recorded so far, ordered by id; empties the buffers."""
        bufs = list(self._bufs.values())
        self._bufs = {tid: tuple(array.array(c) for c in _TYPECODES) for tid in self._bufs}
        order = None
        cols = []
        for k, code in enumerate(_TYPECODES):
            col = np.concatenate([np.frombuffer(b[k], dtype=np.dtype(code)) for b in bufs])
            for b in bufs:
                del b[k][:]
            if order is None:
                order = np.argsort(col, kind="stable")
                if not np.array_equal(col[order], np.arange(col.size)):
                    raise RuntimeError("span ids are not contiguous: a span was left open")
                continue
            cols.append(col[order])
        return SpanTable(list(self.names), *cols)


@dataclasses.dataclass
class SpanTable:
    """All spans of a run, indexed by span id."""

    names: list
    name: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    parent: np.ndarray
    work: np.ndarray

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name, t0=self.t0, t1=self.t1,
                 parent=self.parent, work=self.work)

    @property
    def duration(self) -> np.ndarray:
        return self.t1 - self.t0

    def is_named(self, name: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n == name]
        return np.isin(self.name, ids)

    def layer_of(self) -> np.ndarray:
        """Layer index (into LAYERS) of each span, -1 for the benchmark's own."""
        lut = np.array([LAYERS.index(n.split(".")[0]) if n.split(".")[0] in LAYERS else -1
                        for n in self.names] or [-1])
        return lut[self.name]

    def self_time(self) -> np.ndarray:
        """Duration minus the union of the child intervals (ns).  Children on
        other threads can overlap each other; the union counts them once."""
        n = self.name.size
        kids = np.nonzero(self.parent >= 0)[0]
        p = self.parent[kids].astype(np.int64)
        base = int(self.t0.min()) if n else 0
        cs = np.maximum(self.t0[kids], self.t0[p]) - base
        ce = np.maximum(np.minimum(self.t1[kids], self.t1[p]) - base, cs)
        order = np.lexsort((cs, p))
        p, cs, ce = p[order], cs[order], ce[order]
        shift = 40  # run-relative times stay below 2**40 ns (18 min)
        keyed = (p << shift) + ce
        run = np.maximum.accumulate(keyed)
        prev = np.concatenate(([-1], run[:-1]))
        prev_end = np.where((prev >> shift) == p, prev - (p << shift), 0)
        covered = np.maximum(ce - np.maximum(cs, prev_end), 0)
        return self.duration - np.bincount(p, weights=covered, minlength=n).astype(np.int64)

    def roots(self, prefix: str):
        """Ids and names of the benchmark's own spans whose name starts with prefix."""
        ids = np.nonzero(self.parent < 0)[0]
        return [(int(i), self.names[self.name[i]]) for i in ids
                if self.names[self.name[i]].startswith(prefix)]

    def inside(self, root: int) -> np.ndarray:
        """Mask of the spans that started within the root span's interval."""
        return (self.t0 >= self.t0[root]) & (self.t0 <= self.t1[root])
