"""Layer tracing from outside the library.

``Tracer.installed()`` replaces the public functions and methods of
hookforest's modules with timing wrappers, everywhere the library
refers to them (module globals and registry dicts), and puts the
originals back on exit.  The library itself is not modified.

Every wrapped call updates per-function aggregates: calls, self
seconds (its duration minus the durations of wrapped calls made inside
it), calls that returned ``True``, and items yielded by generators.
Named groups of functions also get their outermost inclusive time.
While ``keep_spans`` is set, calls outside the hot per-labeling paths
are also kept as spans ``(name, start, end, parent, check)`` in memory
and written out by ``write_spans`` when the benchmark ends; hot calls and generator
steps are folded into the aggregates only, which keeps memory bounded
on million-labeling checks.

State is per thread, so the library's worker threads (``--jobs``) do
not corrupt each other's stacks; per-thread aggregates are summed when
read.  Under the interpreter lock a thread's span also covers time
the other thread ran, so self times of a jobs-2 sweep add up to more
than its wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager

import hookforest
from hookforest import cli, forest, formulas, qpoly, stats, verify

MODULES = {"forest": forest, "stats": stats, "qpoly": qpoly,
           "formulas": formulas, "verify": verify, "cli": cli}
CLASSES = {"forest": (forest.Forest,), "qpoly": (qpoly.BiPoly, qpoly.Series),
           "verify": (verify.CheckReport,)}
# arithmetic on polynomials and series is public API too
QPOLY_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__pow__", "__neg__", "__eq__"}

# called once per labeling or per grid point: aggregated, never kept as spans
HOT_VERIFY = {"is_partition_b", "sigma_compatible", "mirror_labeling",
              "psi_bijection", "coset_decompose", "partition_shift"}

# rendering counts only when the CLI does it, not when the benchmark
# inspects a report itself
RENDER = {"verify.CheckReport.to_record", "verify.CheckReport.summary",
          "qpoly.BiPoly.to_triples", "qpoly.BiPoly.render",
          "qpoly.Series.render", "cli.json.dumps"}


def groups_of(name: str) -> tuple[str, ...]:
    """Metric groups a wrapped function belongs to."""
    module, _, rest = name.partition(".")
    out = []
    if module == "stats" and rest != "resolve_forest_stat":
        out.append("stats.forest" if rest.endswith("_forest") else "stats.word")
    if name in ("qpoly.BiPoly.__mul__", "qpoly.BiPoly.__rmul__",
                "qpoly.Series.__mul__", "qpoly.Series.__rmul__"):
        out.append("qpoly.mul")
    if name.startswith("qpoly.Series.") or name == "qpoly.geometric_series":
        out.append("qpoly.series")
    if module == "formulas" and rest.startswith("rhs_"):
        out.append("formulas.rhs")
    if name == "verify.check_decomposition_dec1":
        out.append("verify.dec1")
    if name in RENDER:
        out.append("cli.render")
    if module in ("forest", "verify", "cli") and "." not in rest:
        out.append(name)
    return tuple(out)


class _ThreadState:
    __slots__ = ("child", "open", "depth", "funcs", "groups", "spans")

    def __init__(self):
        self.child = [0.0]   # wrapped-child seconds of each open frame
        self.open = [None]   # span index of the innermost recorded frame
        self.depth = {}      # group -> nesting depth
        self.funcs = {}      # name -> [calls, self s, True results, items]
        self.groups = {}     # group -> inclusive s of its outermost calls
        self.spans = []


class Tracer:
    def __init__(self):
        self.check = None    # id of the benchmark operation in progress
        self.keep_spans = True
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, hot):
        groups = groups_of(name)
        if inspect.isgeneratorfunction(fn):
            step = self._timed(next, name, groups, False)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._drive(fn(*args, **kwargs), step, name)
            return gen_wrapper
        return self._timed(fn, name, groups, not hot)

    def _timed(self, fn, name, groups, record):
        local, perf = self._local, time.perf_counter

        # runs once per labeling on the hot paths, so everything is inline
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = getattr(local, "st", None) or self._state()
            depth = st.depth
            outer = ()
            if groups:
                outer = [g for g in groups if not depth.get(g) and (
                    g != "cli.render" or depth.get("cli.main"))]
                for g in groups:
                    depth[g] = depth.get(g, 0) + 1
            span = None
            if record and self.keep_spans:
                span = len(st.spans)
                st.spans.append([name, perf(), None, st.open[-1], self.check])
                st.open.append(span)
            child = st.child
            child.append(0.0)
            t0 = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                d = t1 - t0
                child_s = child.pop()
                child[-1] += d
                f = st.funcs.get(name)
                if f is None:
                    f = st.funcs[name] = [0, 0.0, 0, 0]
                f[0] += 1
                f[1] += d - child_s
                for g in groups:
                    depth[g] -= 1
                for g in outer:
                    st.groups[g] = st.groups.get(g, 0.0) + d
                if span is not None:
                    st.spans[span][2] = t1
                    st.open.pop()
            if result is True:
                f[2] += 1
            return result
        return wrapper

    def _drive(self, gen, step, name):
        # each step of a generator is timed like a call to it; the
        # function's record counts steps as calls and the items yielded
        while True:
            try:
                item = step(gen)
            except StopIteration:
                return
            self._local.st.funcs[name][3] += 1
            yield item

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(original, replacement) for every public function and method."""
        swaps = {}
        for mod_name, module in MODULES.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    hot = mod_name == "stats" or (mod_name == "verify" and attr in HOT_VERIFY)
                    swaps[obj] = self._wrap(obj, f"{mod_name}.{attr}", hot)
        return swaps

    def _class_swaps(self):
        out = []
        for mod_name, classes in CLASSES.items():
            for cls in classes:
                for attr, obj in vars(cls).items():
                    public = not attr.startswith("_") or (
                        mod_name == "qpoly" and attr in QPOLY_DUNDERS)
                    if not public:
                        continue
                    name = f"{mod_name}.{cls.__name__}.{attr}"
                    if isinstance(obj, classmethod):
                        out.append((cls, attr, obj,
                                    classmethod(self._wrap(obj.__func__, name, False))))
                    elif inspect.isfunction(obj):
                        out.append((cls, attr, obj, self._wrap(obj, name, False)))
        return out

    @contextmanager
    def installed(self):
        swaps = self._targets()
        undo = []
        namespaces = [vars(m) for m in MODULES.values()] + [vars(hookforest)]
        for ns in namespaces:
            for key, value in list(ns.items()):
                if inspect.isfunction(value) and value in swaps:
                    undo.append((ns, key, value))
                    ns[key] = swaps[value]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in swaps:
                            undo.append((value, k, v))
                            value[k] = swaps[v]
        class_undo = self._class_swaps()
        for cls, attr, _, new in class_undo:
            setattr(cls, attr, new)
        json_module = cli.json
        cli.json = _JsonProxy(json_module,
                              self._wrap(json_module.dumps, "cli.json.dumps", False))
        try:
            yield self
        finally:
            cli.json = json_module
            for cls, attr, old, _ in class_undo:
                setattr(cls, attr, old)
            for ns, key, value in reversed(undo):
                ns[key] = value

    # -- results ------------------------------------------------------------

    def funcs(self) -> dict:
        out: dict[str, list] = {}
        for st in self._states:
            for name, rec in st.funcs.items():
                acc = out.setdefault(name, [0, 0.0, 0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
        return out

    def groups(self) -> dict:
        out: dict[str, float] = {}
        for st in self._states:
            for name, seconds in st.groups.items():
                out[name] = out.get(name, 0.0) + seconds
        return out

    def span_count(self) -> int:
        return sum(len(st.spans) for st in self._states)

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end in seconds since the
        tracer was made, parent span index, operation id, thread number."""
        with open(path, "w") as fh:
            for tid, st in enumerate(self._states):
                for name, start, end, parent, check in st.spans:
                    fh.write(json.dumps([name, round(start - self.origin, 7),
                                         round(end - self.origin, 7), parent,
                                         check, tid]) + "\n")


class _JsonProxy:
    """Stands in for the json module inside ``hookforest.cli``."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)
