"""Per-layer tracing of loopstar from outside the package.

`tracing(tracer)` replaces every public function of the loopstar modules
with a timing wrapper, in every module namespace that holds the function
object (`from .fock import wick_product` makes a second binding in each
importing module, and an unpatched binding would hide its calls), plus the
suite-runner table, `FockVector.__add__` and the `CheckRecord` constructor
that `suites` calls.  Everything is restored on exit, so untraced iterations
run the unmodified package.

Self time of a function is its wall time minus the time spent in wrapped
functions it called.  Methods of the algebra types (`MultiIndex.union` is
called about 1.7 M times per `exact-large` iteration) are not wrapped: their
cost is part of the self time of the wrapped function that calls them, and
the work they do is counted from the wrapped function's arguments instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

MODULES = ("modes", "fock", "norms", "serialization", "gaussian", "chaos", "poisson",
           "equivalence", "rand", "report", "config", "suites")


def _wick_counts(args, out):
    F, G = args[0], args[1]
    return {"term_pairs": len(F.terms) * len(G.terms), "terms_out": len(out.terms)}


def _draw_counts(args, out):
    return {"draws": int(out.size)}


# Exact operation counts taken from a wrapped call's arguments and result.
COUNTERS = {
    "fock.wick_product": _wick_counts,
    "gaussian.sample_xi_batch": _draw_counts,
}


class Tracer:
    """Call counts, total and self time per wrapped function, and per-check rows.

    A per-check row covers the interval from the previous record (or the
    start of the suite runner) to the creation of its record, so the rows of
    one runner add up to the runner's time.  A record created with no traced
    call since the previous one (`covariance.cross_coord` reuses the
    statistics computed for `covariance.same_coord`) joins the previous row.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}     # "<name>.<counter>" -> total
        self.checks: list[dict] = []
        self._child = [0.0]                  # child-time accumulator per open call
        self._seg_depth = -1                 # stack depth of calls made by the open runner
        self._seg_t = 0.0
        self._seg_calls: list[str] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        counter = COUNTERS.get(name)
        child = self._child
        pc = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(child) == tracer._seg_depth:
                tracer._seg_calls.append(name)
            child.append(0.0)
            t0 = pc()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                inner = child.pop()
                child[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
            if counter is not None:
                for key, n in counter(args, out).items():
                    full = f"{name}.{key}"
                    tracer.counts[full] = tracer.counts.get(full, 0) + n
            return out

        return traced

    def wrap_runner(self, suite: str, fn):
        traced = self.wrap(f"suites.run_{suite}", fn)
        tracer = self

        @functools.wraps(fn)
        def runner(cfg):
            outer = tracer._seg_depth
            tracer._seg_depth = len(tracer._child) + 1
            tracer._seg_calls = []
            tracer._seg_t = time.perf_counter()
            try:
                return traced(cfg)
            finally:
                tracer._seg_depth = outer

        return runner

    def wrap_record(self, record_cls):
        tracer = self

        def record(*args, **kwargs):
            rec = record_cls(*args, **kwargs)
            now = time.perf_counter()
            dt = now - tracer._seg_t
            rows = tracer.checks
            if not tracer._seg_calls and rows and rows[-1]["suite"] == rec.suite:
                rows[-1]["check_ids"].append(rec.check_id)
                rows[-1]["s"] += dt
            else:
                rows.append({"suite": rec.suite, "check_ids": [rec.check_id],
                             "calls": tracer._seg_calls, "s": dt})
            tracer._seg_t = now
            tracer._seg_calls = []
            return rec

        return record

    def module_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_s
        return out


def public_functions(module):
    """(name, function) of each public function defined in `module`."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


@contextlib.contextmanager
def tracing(tracer: Tracer, wrapped: tuple = MODULES):
    """Install `tracer` on the loopstar package for the duration of the block.

    Public functions of the modules named in `wrapped` are timed; the suite
    runners and the record constructor are always hooked, so
    `wrapped=("suites",)` gives the per-check clock at the cost of a few
    dozen wrapped calls per iteration.
    """
    pkg = importlib.import_module("loopstar")
    modules = [importlib.import_module(f"loopstar.{m}") for m in MODULES]
    wrappers = {}
    for short, module in zip(MODULES, modules):
        if short in wrapped:
            for name, fn in public_functions(module):
                wrappers[id(fn)] = tracer.wrap(f"{short}.{name}", fn)

    patches = []       # (namespace object, attribute, original)

    def patch(target, attr, value):
        patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    for namespace in [pkg, *modules]:
        for attr, obj in list(vars(namespace).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                patch(namespace, attr, wrapper)

    fock = importlib.import_module("loopstar.fock")
    suites = importlib.import_module("loopstar.suites")
    if "fock" in wrapped:
        patch(fock.FockVector, "__add__", tracer.wrap("fock.add", fock.FockVector.__add__))
    patch(suites, "CheckRecord", tracer.wrap_record(suites.CheckRecord))
    runners = dict(suites.SUITE_RUNNERS)
    for suite, fn in runners.items():
        suites.SUITE_RUNNERS[suite] = tracer.wrap_runner(suite, fn)
    try:
        yield tracer
    finally:
        suites.SUITE_RUNNERS.update(runners)
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)
