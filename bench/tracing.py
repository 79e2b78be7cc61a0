"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces each traced function at every module binding the
package holds it under (``wavefn`` imports ``dispersion_residual`` by name, for
example), so calls made inside the package are seen as well as the
benchmark's own.  Each call records one span: id, name, start, end, parent id,
operation id and an optional work count.  Parents come from a per-thread
stack; a span opened on a thread with an empty stack (a sweep worker, say) is
parented to the innermost span open on the operation's own thread, which is
the call that handed the work to the pool.  Spans stay in memory until the
run ends.

Self time is a span's duration minus the part of it covered by its children.
The wrapper's own cost lands in the parent's self time; the run reports the
whole tracing cost as ``trace.overhead_frac``.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("wellspec", "wellspec.model", "wellspec.spectrum", "wellspec.wavefn", "wellspec.oracle", "wellspec.cli")

CLI_SUBCOMMANDS = ("check", "sweep-ground", "dispersion-curve")


def _size(args, kwargs, result):
    return float(np.size(args[0]))


def _levels(args, kwargs, result):
    return float(len(result.entries))


def _basis_size(args, kwargs, result):
    return float(args[1] if len(args) > 1 else kwargs["m"])


# (module, function, work measure or None); the metric name is "<layer>.<function>"
FUNCTIONS = (
    ("spectrum", "full_spectrum", _levels),
    ("spectrum", "find_ordinary_positive", None),
    ("spectrum", "enumerate_nodal", None),
    ("spectrum", "find_negative_root", None),
    ("spectrum", "ground_state", None),
    ("spectrum", "dispersion_residual", _size),
    ("spectrum", "negative_residual", None),
    ("spectrum", "rhs_positive", None),
    ("spectrum", "rhs_negative", None),
    ("wavefn", "build_wave", None),
    ("wavefn", "gram_matrix", None),
    ("wavefn", "inner_product", None),
    ("wavefn", "matching_defect", None),
    ("wavefn", "evaluate", None),
    ("oracle", "extrapolated_oracle_spectrum", None),
    ("oracle", "oracle_spectrum", None),
    ("oracle", "build_matrix", _basis_size),
    ("oracle", "lowest_eigenvalues", None),
    ("oracle", "richardson", None),
)

CLASSMETHODS = (("model", "DimensionlessConfig", "generic"), ("model", "DimensionlessConfig", "exact"))

OP_SPAN = "bench.op"
_FIELDS = 7  # sid, name id, start, end, parent, op, work


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[array] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.op_stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = ([], array("d"))
            with self._lock:
                self._buffers.append(state[1])
            self._local.state = state
            return state

    def wrap(self, fn, name: str, work=None):
        nid = float(self._name_id(name))
        clock = time.perf_counter
        ids = self._ids

        def traced(*args, **kwargs):
            stack, buf = self._state()
            sid = next(ids)
            parent = stack[-1] if stack else (self.op_stack[-1] if self.op_stack else 0)
            stack.append(sid)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                w = work(args, kwargs, result) if work is not None and result is not None else 0.0
                buf.extend((sid, nid, t0, t1, parent, self.op_id, w))

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation, opened on the calling thread."""
        stack, buf = self._state()
        sid = next(self._ids)
        self.op_id, self.op_stack = op_id, stack
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            buf.extend((sid, float(self._name_id(OP_SPAN)), t0, t1, 0, op_id, 0.0))
            self.op_id, self.op_stack = -1, []

    def _rebind(self, original, replacement) -> None:
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every traced function; a function the package no longer has is skipped."""
        for layer, fname, work in FUNCTIONS:
            original = getattr(importlib.import_module(f"wellspec.{layer}"), fname, None)
            if original is not None:
                self._rebind(original, self.wrap(original, f"{layer}.{fname}", work))
        cli = importlib.import_module("wellspec.cli")
        main = getattr(cli, "main", None)
        if main is not None:
            by_sub = {sub: self.wrap(main, f"cli.main.{sub}") for sub in CLI_SUBCOMMANDS}
            fallback = self.wrap(main, "cli.main.other")

            def traced_main(argv=None):
                return by_sub.get(argv[0] if argv else "", fallback)(argv)

            self._rebind(main, traced_main)
        for layer, cls_name, meth in CLASSMETHODS:
            cls = getattr(importlib.import_module(f"wellspec.{layer}"), cls_name)
            original = cls.__dict__.get(meth)
            if isinstance(original, classmethod):
                setattr(cls, meth, classmethod(self.wrap(original.__func__, f"{layer}.{cls_name}.{meth}")))
                self._restore.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def spans(self) -> np.ndarray:
        """All recorded spans as an (n, 7) array, in the field order of ``_FIELDS``."""
        with self._lock:
            flat = [np.frombuffer(b, dtype=float) for b in self._buffers]
        data = np.concatenate(flat) if flat else np.empty(0)
        return data.reshape(-1, _FIELDS)


def self_times(sids, starts, ends, parents) -> np.ndarray:
    """Self time of each span: its duration minus the union of its children's intervals.

    Children are clipped to their parent.  Children on the parent's own thread
    never overlap, so their clipped durations simply add up; children from
    several threads may overlap, and only for parents where they do are the
    intervals merged one by one.
    """
    sids = np.asarray(sids, dtype=np.int64)
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    n = len(sids)
    index = np.full(int(sids.max()) + 1 if n else 1, -1, dtype=np.int64)
    index[sids] = np.arange(n)
    has_parent = (parents > 0) & (parents < len(index))
    has_parent[has_parent] = index[parents[has_parent]] >= 0
    child = np.nonzero(has_parent)[0]
    pidx = index[parents[child]]
    c0 = np.maximum(starts[child], starts[pidx])
    c1 = np.minimum(ends[child], ends[pidx])
    keep = c1 > c0
    child, pidx, c0, c1 = child[keep], pidx[keep], c0[keep], c1[keep]
    order = np.lexsort((c0, pidx))
    pidx, c0, c1 = pidx[order], c0[order], c1[order]
    covered = np.bincount(pidx, weights=c1 - c0, minlength=n)
    same = pidx[1:] == pidx[:-1]
    for p in np.unique(pidx[1:][same & (c0[1:] < c1[:-1])]):
        lo_hi = sorted(zip(c0[pidx == p], c1[pidx == p]))
        total, cur_lo, cur_hi = 0.0, lo_hi[0][0], lo_hi[0][1]
        for lo, hi in lo_hi[1:]:
            if lo > cur_hi:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        covered[p] = total + cur_hi - cur_lo
    return (ends - starts) - covered


def layer_metrics(spans: np.ndarray, names: list[str]) -> dict[str, float]:
    """Per-name calls, total_ms, self_ms and work sums."""
    self_arr = self_times(spans[:, 0].astype(np.int64), spans[:, 2], spans[:, 3], spans[:, 4].astype(np.int64))
    name_ids = spans[:, 1].astype(np.int64)
    dur = spans[:, 3] - spans[:, 2]
    out: dict[str, float] = {}
    for nid, name in enumerate(names):
        mask = name_ids == nid
        out[f"{name}.calls"] = float(mask.sum())
        out[f"{name}.total_ms"] = float(dur[mask].sum() * 1e3)
        out[f"{name}.self_ms"] = float(self_arr[mask].sum() * 1e3)
        out[f"{name}.work"] = float(spans[mask, 6].sum())
    return out
