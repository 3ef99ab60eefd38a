"""Spans around the package's public functions, installed from outside.

`install` wraps each function named in LAYERS and rebinds every alias of
it in every loaded `interpanel` module (`data.residual_makers`,
`harness._fit_ite`, ...), so calls between modules are seen. Spans are
kept in memory as [name, start, end, parent index, raised, bytes] and
turned into per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

LAYERS = {
    "cli": ("main",),
    "data": ("load_csv", "write_csv", "validate", "drop_failing_units",
             "build_regressors", "subset_units"),
    "linalg": ("residual_makers", "solve_ols"),
    "estimators": ("cite_theta", "cite_delta", "cite_kappa", "fit_cite", "ite"),
    "inference": ("fit_cite_weighted", "first_stage_se", "cluster_robust_se",
                  "cite_theta_se", "ite_se", "cite_kappa_se", "bootstrap_cite"),
    "dgp": ("simulate", "plim_targets"),
    "harness": ("run_experiment", "convergence_table", "evaluate_contracts"),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
LATENCY = ("data.build_regressors", "inference.fit_cite_weighted", "dgp.simulate")
FITS = ("inference.fit_cite_weighted", "estimators.ite")


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _projection_bytes(args, kwargs):
    # residual_makers returns n float64 T x T matrices
    n, T = np.shape(_first_arg(args, kwargs, "X"))[:2]
    return n * T * T * 8


# Bytes a call moves, computed from its arguments after it returns.
BYTES = {
    "linalg.residual_makers": _projection_bytes,
    "data.load_csv": lambda a, k: os.path.getsize(_first_arg(a, k, "path")),
    "data.write_csv": lambda a, k: os.path.getsize(a[1] if len(a) > 1 else k["path"]),
}
BYTES_METRIC = {"linalg.residual_makers": "bytes_out", "data.load_csv": "bytes_in",
                "data.write_csv": "bytes_out"}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "interpanel" or name.startswith("interpanel."))]


def replace_function(qualname, make):
    """Swap `interpanel.<qualname>` for make(original) under every alias.

    Returns the original function.
    """
    mod_name, fn_name = qualname.split(".")
    original = getattr(sys.modules[f"interpanel.{mod_name}"], fn_name)
    new = make(original)
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, new)
    return original


def inject_sleep(qualname, seconds):
    """Make every call of `qualname` sleep first (for sensitivity tests)."""
    def make(fn):
        @functools.wraps(fn)
        def slept(*args, **kwargs):
            time.sleep(seconds)
            return fn(*args, **kwargs)
        return slept
    replace_function(qualname, make)


class Tracer:
    """In-memory span recorder."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self._clock
        measure = BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs)
            return result
        return traced

    def install(self):
        originals = [replace_function(name, functools.partial(self._wrap, name))
                     for name in FUNCTIONS]
        missed = unwrapped_aliases(originals)
        if missed:
            raise RuntimeError(f"still bound to unwrapped functions: {missed}")


def unwrapped_aliases(originals):
    """`module.attr` names in the package that still bind one of `originals`."""
    ids = {id(fn) for fn in originals}
    return sorted(f"{mod.__name__}.{attr}" for mod in _package_modules()
                  for attr, value in vars(mod).items() if id(value) in ids)


def _percentile(sorted_values, p):
    """Nearest-rank percentile of a sorted list."""
    k = max(int(np.ceil(p / 100.0 * len(sorted_values))) - 1, 0)
    return sorted_values[k]


def tail_percentile(count):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if count * (1.0 - p / 100.0) >= 10:
            best = p
    return best


def layer_metrics(spans):
    """Per-layer metrics of one traced run, keyed by `<module>.<function>.<metric>`.

    Raises ValueError unless every span nests under one `cli.main` span.
    Then the self times add up to that span's duration by construction.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {f: {"calls": 0, "self_s": 0.0, "errors": 0, "dur": [], "bytes": 0}
             for f in FUNCTIONS}
    fits = {"inference.bootstrap_cite": [0, 0], "harness.run_experiment": [0, 0]}
    for i, (name, start, end, parent, raised, nbytes) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[i]
        s["errors"] += int(raised)
        s["dur"].append(end - start)
        s["bytes"] += nbytes
        outer = spans[parent][0] if parent >= 0 else None
        if name in FITS and outer in fits:
            fits[outer][0] += 1
            fits[outer][1] += int(not raised)

    roots = [i for i, sp in enumerate(spans) if sp[3] < 0]
    if [spans[i][0] for i in roots] != ["cli.main"]:
        raise ValueError(f"spans outside one cli.main: {[spans[i][0] for i in roots]}")
    total = spans[roots[0]][2] - spans[roots[0]][1]

    out = {}
    for f, s in stats.items():
        out[f"{f}.calls"] = (s["calls"], "count")
        out[f"{f}.self_s"] = (s["self_s"], "s")
        out[f"{f}.errors"] = (s["errors"], "count")
    for f in LATENCY:
        dur = sorted(stats[f]["dur"])
        tail = tail_percentile(len(dur))
        out[f"{f}.p50_s"] = (_percentile(dur, 50.0) if dur else 0.0, "s")
        out[f"{f}.tail_s"] = (_percentile(dur, tail) if tail else 0.0, "s")
    for f, metric in BYTES_METRIC.items():
        out[f"{f}.{metric}"] = (stats[f]["bytes"], "bytes")
    for f, ratio in (("inference.bootstrap_cite", "useful_ratio"),
                     ("harness.run_experiment", "fit_ok_ratio")):
        attempts, ok = fits[f]
        out[f"{f}.fit_attempts"] = (attempts, "count")
        out[f"{f}.{ratio}"] = (ok / attempts if attempts else 0.0, "ratio")
    out["trace.wall_s"] = (total, "s")
    return out
