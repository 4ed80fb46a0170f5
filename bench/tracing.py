"""Span tracing of ``lecam`` from the outside, for the traced benchmark run.

:func:`install` wraps every public function of every loaded ``lecam``
module, at every module that holds a reference to it, plus the public
methods (and ``__post_init__`` / ``__call__``) of the classes those modules
define.  A function belongs to the layer named by its defining
``__module__`` (``lecam.lattice`` -> ``lattice``), so routes that a later
change renames, merges or moves are still attributed without editing this
file.  Private helpers are not wrapped; their time counts as self time of
the wrapped caller, which is in the same module.

Each wrapped call appends one span (function id, parent span, start, end)
to flat in-memory arrays; :meth:`Tracer.summary` reduces them to per-layer
metrics and :meth:`Tracer.write` stores them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "lattice", "experiments", "pricing", "blackscholes", "lan")

#: Metrics that read one named function.  A metric whose function no longer
#: exists is reported as absent.
SOURCES = {
    "law": ("lattice", "count_distribution"),
    "combine": ("lattice", "combine_additive_laws"),
    "measures": ("lattice", "solve_martingale_measures"),
    "paths": ("lattice", "enumerate_paths"),
    "experiment": ("experiments", "FiniteExperiment.__post_init__"),
    "study": ("lan", "convergence_study"),
}

#: Unit of every per-layer metric; values are per timed job unless the unit
#: names another base.
UNITS = {
    **{f"{layer}.self_s": "s/job" for layer in LAYERS},
    **{f"{layer}.calls": "calls/job" for layer in LAYERS},
    "lattice.law_s": "s/job",
    "lattice.law_states": "states/job",
    "lattice.combine_s": "s/job",
    "lattice.combine_kept_frac": "fraction",
    "lattice.paths_s": "s/job",
    "lattice.paths": "paths/job",
    "experiments.outcomes": "outcomes/job",
    "lattice.measures_s": "s/job",
    "pricing.laws_per_price": "laws/call",
    "lan.laws_per_row": "laws/row",
    "lattice.cap_use_max": "fraction",
    "pricing.route_disagree_frac": "fraction",
    "trace_overhead_frac": "fraction",
}

#: Lattice functions whose self time counts as path-space work.
PATH_WORDS = ("path", "experiment")


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.funcs: list[tuple[str, str]] = []     # fid -> (layer, qualname)
        self.fid_of: dict[tuple[str, str], int] = {}
        self.fid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.jobs = 0
        # per-span facts recorded by hooks: span index -> number
        self.law_states: dict[int, int] = {}
        self.combine_sizes: dict[int, tuple[int, int]] = {}
        self.path_rows: dict[int, int] = {}
        self.outcomes: dict[int, int] = {}
        self.rows: dict[int, int] = {}
        self.cap_use = 0.0
        self.broken: set[tuple[str, str]] = set()   # sources whose hook failed

    def reset(self) -> None:
        """Drop the spans and facts recorded so far (e.g. by a warm-up)."""
        for arr in (self.fid, self.parent, self.start, self.end):
            del arr[:]
        for facts in (self.law_states, self.combine_sizes, self.path_rows,
                      self.outcomes, self.rows):
            facts.clear()
        self.jobs = 0
        self.cap_use = 0.0

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == self.package.__name__
                       or name.startswith(self.package.__name__ + "."))
                   and name != self.package.__name__ + ".__main__"]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and self._ours(obj):
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(obj, obj.__qualname__)
                    setattr(mod, name, wrapped[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj)

    def _ours(self, fn) -> bool:
        return getattr(fn, "__module__", "").startswith(self.package.__name__ + ".")

    def _wrap_class(self, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ("__post_init__", "__call__"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                fn = attr.__func__
                if self._ours(fn):
                    setattr(cls, name, type(attr)(self._wrap(fn, fn.__qualname__)))
            elif inspect.isfunction(attr) and self._ours(attr):
                setattr(cls, name, self._wrap(attr, attr.__qualname__))

    def _wrap(self, fn, qualname: str):
        layer = fn.__module__.rsplit(".", 1)[-1]
        key = (layer, qualname)
        fid = self.fid_of.setdefault(key, len(self.funcs))
        if fid == len(self.funcs):
            self.funcs.append(key)
        hook = self._hook_for(key, fn)
        fids, parents, starts, ends, stack = (self.fid, self.parent, self.start,
                                              self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(idx, args, kwargs, result)
                except Exception:  # a changed signature must not end the run
                    self.broken.add(key)
            return result

        return traced

    # -- counting hooks ----------------------------------------------------
    def _hook_for(self, key, fn):
        sig = inspect.signature(fn)
        limits = sys.modules.get(self.package.__name__ + ".limits")

        def cap(kind, args, kwargs, param):
            if limits is None or param not in sig.parameters:
                return None
            given = sig.bind(*args, **kwargs).arguments.get(param)
            return getattr(limits, kind)(given)

        def use(built, limit):
            if limit:
                self.cap_use = max(self.cap_use, built / limit)

        if key == SOURCES["law"]:
            def hook(idx, args, kwargs, result):
                self.law_states[idx] = len(result[1])
                use(len(result[1]), cap("max_states", args, kwargs, "max_states"))
        elif key == SOURCES["combine"]:
            def hook(idx, args, kwargs, result):
                laws = next(iter(sig.bind(*args, **kwargs).arguments.values()))
                before = 1
                for values, _ in laws:
                    before *= len(values)
                self.combine_sizes[idx] = (before, len(result[0]))
                use(before, cap("max_states", args, kwargs, "max_states"))
        elif key == SOURCES["paths"]:
            def hook(idx, args, kwargs, result):
                self.path_rows[idx] = int(result.shape[0])
                use(result.shape[0], cap("max_paths", args, kwargs, "max_paths"))
        elif key == SOURCES["experiment"]:
            def hook(idx, args, kwargs, result):
                self.outcomes[idx] = len(args[0].outcomes)
        elif key == SOURCES["study"]:
            def hook(idx, args, kwargs, result):
                self.rows[idx] = len(result)
        else:
            hook = None
        return hook

    # -- reduction ---------------------------------------------------------
    def summary(self) -> dict[str, float | None]:
        """Per-job means of the per-layer metrics (``None`` when absent)."""
        n = len(self.start)
        jobs = max(self.jobs, 1)
        fid = np.array(self.fid, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        layer_names = sorted({layer for layer, _ in self.funcs} | set(LAYERS))
        layer_idx = {name: i for i, name in enumerate(layer_names)}
        fid_layer = np.array([layer_idx[layer] for layer, _ in self.funcs] or [0])
        span_layer = fid_layer[fid]
        layer_self = np.bincount(span_layer, weights=self_time, minlength=len(layer_names))
        layer_calls = np.bincount(span_layer, minlength=len(layer_names))

        out: dict[str, float | None] = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = float(layer_self[layer_idx[name]]) / jobs
            out[f"{name}.calls"] = float(layer_calls[layer_idx[name]]) / jobs

        def source_fid(source):
            key = SOURCES[source]
            return None if key in self.broken else self.fid_of.get(key)

        def inclusive(source):
            f = source_fid(source)
            return None if f is None else float(dur[fid == f].sum()) / jobs

        def per_job(source, facts):
            return None if source_fid(source) is None else sum(facts.values()) / jobs

        out["lattice.law_s"] = inclusive("law")
        out["lattice.law_states"] = per_job("law", self.law_states)
        out["lattice.combine_s"] = inclusive("combine")
        out["lattice.combine_kept_frac"] = None
        if source_fid("combine") is not None:
            before = sum(b for b, _ in self.combine_sizes.values())
            after = sum(a for _, a in self.combine_sizes.values())
            out["lattice.combine_kept_frac"] = after / before if before else 1.0
        path_fids = [i for i, (layer, q) in enumerate(self.funcs)
                     if layer == "lattice" and "." not in q
                     and any(w in q for w in PATH_WORDS)]
        out["lattice.paths_s"] = float(self_time[np.isin(fid, path_fids)].sum()) / jobs
        out["lattice.paths"] = per_job("paths", self.path_rows)
        out["experiments.outcomes"] = per_job("experiment", self.outcomes)
        out["lattice.measures_s"] = inclusive("measures")
        out["lattice.cap_use_max"] = self.cap_use

        # Law builds per pricing call: law spans under a pricing span, over
        # the pricing calls entered from another layer that reached lattice.
        parents = parent.tolist()
        layers = span_layer.tolist()
        pricing, lattice = layer_idx["pricing"], layer_idx["lattice"]
        reaches = [False] * n
        for i in range(n - 1, -1, -1):
            p = parents[i]
            if p >= 0 and (reaches[i] or layers[i] == lattice):
                reaches[p] = True
        entries = sum(1 for i in range(n) if layers[i] == pricing and reaches[i]
                      and (parents[i] < 0 or layers[parents[i]] != pricing))

        def laws_under(pred):
            count = 0
            for i in self.law_states:
                a = parents[i]
                while a >= 0 and not pred(a):
                    a = parents[a]
                count += a >= 0
            return count

        law_fid, study_fid = source_fid("law"), source_fid("study")
        out["pricing.laws_per_price"] = None
        out["lan.laws_per_row"] = None
        if law_fid is not None:
            under = laws_under(lambda a: layers[a] == pricing)
            out["pricing.laws_per_price"] = under / entries if entries else 0.0
        if law_fid is not None and study_fid is not None:
            fids = fid.tolist()
            under = laws_under(lambda a: fids[a] == study_fid)
            rows = sum(self.rows.values())
            out["lan.laws_per_row"] = under / rows if rows else 0.0
        return out

    def write(self, path: str) -> None:
        """Spans as gzip'd CSV: a ``# fid layer qualname`` table, then
        ``fid,parent,start,end`` rows."""
        with gzip.open(path, "wt") as fh:
            for i, (layer, qual) in enumerate(self.funcs):
                fh.write(f"# {i} {layer} {qual}\n")
            for row in zip(self.fid, self.parent, self.start, self.end):
                fh.write("%d,%d,%.9f,%.9f\n" % row)
