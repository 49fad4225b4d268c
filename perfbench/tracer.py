"""Outside-in span tracer for the khessian benchmark.

The tracer wraps public functions of the package from the outside: methods
are replaced on their class, plain functions in every ``khessian`` module
namespace that holds them by name (``solver`` imports
``relative_eigenvalues_only`` by name, so wrapping only ``operator`` would
be bypassed).  Spans stay in memory as ``[name, start, end, parent, run,
extra]`` lists and are written out once the run ends.

Self time of a span is its duration minus the durations of its direct
children; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, RUN, EXTRA = range(6)


# ------------------------------------------------------------ measurements
# Each hook sees (args, kwargs, result, failed) of one call and returns the
# numbers stored with its span; result is None when the call raised.


def _rows(args, kwargs, result, failed):
    return {"rows": math.prod(np.shape(args[0])[:-1])}


def _fft_nodes(args, kwargs, result, failed):
    return {"nodes": int(args[1].size)}


def _gmres(args, kwargs, result, failed):
    return None if failed else {"gmres_iters": int(result[2])}


def _line_search(args, kwargs, result, failed):
    if failed:
        options = args[9] if len(args) > 9 else kwargs["options"]
        return {"trials": 1 + int(math.floor(-math.log2(options.linesearch_min_step)))}
    backtracks = int(round(-math.log2(result[0])))
    return {"backtracks": backtracks, "trials": backtracks + 1, "accepted": 1}


def _solve(args, kwargs, result, failed):
    if failed:
        return None
    options = kwargs.get("options") or (args[4] if len(args) > 4 else None)
    if options is None:
        options = sys.modules["khessian.solver"].SolverOptions()
    steps = options.continuation_steps
    off_schedule = sum(
        1 for s in result.stages if abs(s.t * steps - round(s.t * steps)) > 1e-9
    )
    return {"stages": len(result.stages), "retries": off_schedule + (not result.success)}


def _requested(args, kwargs, result, failed):
    count = args[2] if len(args) > 2 else kwargs.get("count")
    return {"requested": 1 if count is None else int(count)}


# (module, class or None, function, measurement hook)
TARGETS = (
    ("solver", None, "solve", _solve),
    ("solver", None, "newton_step", _gmres),
    ("solver", None, "line_search", _line_search),
    ("operator", None, "relative_eigenvalues", None),
    ("operator", None, "relative_eigenvalues_only", None),
    ("operator", None, "coordinate_gradient", None),
    ("operator", None, "sigma_root_gradient", None),
    ("geometry", "TorusGrid", "fft", _fft_nodes),
    ("geometry", "TorusGrid", "ifft", _fft_nodes),
    ("geometry", "TorusGrid", "complex_hessian", None),
    ("geometry", "TorusGrid", "solve_laplacian", None),
    ("geometry", "TorusGrid", "holomorphic_gradient", None),
    ("geometry", None, "chern_tensors", None),
    ("geometry", None, "covariant_derivatives", None),
    ("geometry", None, "commutation_residual", None),
    ("geometry", None, "gradient_norm_sq", None),
    ("forms", "Form", "wedge", None),
    ("forms", "Form", "wedge_power", None),
    ("forms", "Form", "d_holo", None),
    ("forms", "Form", "d_anti", None),
    ("forms", None, "metric_form", None),
    ("forms", None, "gradient_band_form", None),
    ("symfunc", None, "elementary_all", _rows),
    ("symfunc", None, "in_gamma_k", _rows),
    ("symfunc", None, "sample_gamma_k", _requested),
    ("symfunc", None, "sample_gamma_k_boundary", None),
    ("symfunc", None, "sigma_restricted", None),
    ("symfunc", None, "basic_inequality_check", None),
    ("audits", None, "audit_commutation", None),
    ("audits", None, "audit_lemma22", None),
    ("audits", None, "audit_lemma21", None),
    ("audits", None, "audit_basic_inequality", None),
)


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run: int | None = None
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, measure=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._run, None]
            stack.append(len(spans))
            spans.append(rec)
            result, failed = None, True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                rec[END] = perf_counter()
                stack.pop()
                extra = measure(args, kwargs, result, failed) if measure else None
                rec[EXTRA] = {**(extra or {}), "error": 1} if failed else extra

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, run: int, name: str = "op"):
        """Top-level span of one benchmark operation; nested spans inherit
        its run id."""
        self._run = run
        rec = [name, perf_counter(), 0.0, -1, run, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
            self._run = None

    def install(self, package, targets=TARGETS) -> None:
        prefix = package.__name__
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if m is not None and (k == prefix or k.startswith(prefix + "."))]
        for module_name, cls_name, fn_name, measure in targets:
            module = sys.modules[f"{prefix}.{module_name}"]
            label = f"{module_name}.{fn_name}"
            if cls_name is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__[fn_name]
                self._patches.append((cls, fn_name, original))
                setattr(cls, fn_name, self.wrap(label, original, measure))
                continue
            original = getattr(module, fn_name)
            wrapper = self.wrap(label, original, measure)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, run, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "extra": extra}) + "\n")


# --------------------------------------------------------------- analysis


def span_table(spans: list[list]) -> list[dict]:
    """Per-span duration, self time, depth and ancestor names."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    rows = []
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        parent = rec[PARENT]
        ancestors = []
        while parent >= 0:
            ancestors.append(spans[parent][NAME])
            parent = spans[parent][PARENT]
        rows.append({
            "name": rec[NAME],
            "dur": dur,
            "self": dur - child[i],
            "depth": len(ancestors),
            "ancestors": ancestors,
            "extra": rec[EXTRA] or {},
        })
    return rows


def function_stats(rows: list[dict]) -> dict[str, dict]:
    """calls, s (outermost spans only, so recursion is not double counted),
    self_s and errors for every span name."""
    stats: dict[str, dict] = {}
    for row in rows:
        st = stats.setdefault(row["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
        st["calls"] += 1
        st["self_s"] += row["self"]
        st["errors"] += row["extra"].get("error", 0)
        if row["name"] not in row["ancestors"]:
            st["s"] += row["dur"]
    return stats


def extra_sum(rows: list[dict], name: str, key: str, under: str | None = None) -> float:
    return sum(r["extra"].get(key, 0) for r in rows
               if r["name"] == name and (under is None or under in r["ancestors"]))


def time_under(rows: list[dict], name: str, under: str) -> float:
    return sum(r["dur"] for r in rows
               if r["name"] == name and under in r["ancestors"] and name not in r["ancestors"])


def unattributed(rows: list[dict]) -> float:
    """Share of the root spans' time that no span below the entry-point call
    (depth >= 2) covers: root and entry-point self time over root time."""
    total = sum(r["dur"] for r in rows if r["depth"] == 0)
    loose = sum(r["self"] for r in rows if r["depth"] <= 1)
    return loose / total if total > 0 else 0.0
