"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces module attributes of ``drifteig`` with wrappers
that record one span per call: name, start, end, parent span and a size
(rows of a pencil probe, points of a mu curve).  Calls made through the
module attribute, from the benchmark or from inside the package, are seen;
names bound elsewhere at import time are not, so the workloads call
through the modules.  ``uninstall`` puts the original functions back.

Spans stay in memory; ``summary`` turns the spans of one pass into the
per-layer metrics and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter


def _rows(args, kwargs, out):
    return len(args[0])


def _points(args, kwargs, out):
    return len(args[4]) if len(args) > 4 else len(kwargs["lams"])


# (span name, module, attribute, size function)
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("optimize.sweep_beta", "optimize", "sweep_beta", None),
    ("optimize.choose_delta", "optimize", "choose_delta", None),
    ("optimize.locate_optimal_interval", "optimize", "locate_optimal_interval", None),
    ("transcend.transcendental_root", "transcend", "transcendental_root", None),
    ("transcend.dirichlet_root", "transcend", "dirichlet_root", None),
    ("eigensolve.principal_lambda", "eigensolve", "principal_lambda", None),
    ("eigensolve.principal_eigenvalue", "eigensolve", "principal_eigenvalue", None),
    ("eigensolve.eigen_cov", "eigensolve", "eigen_cov", None),
    ("eigensolve.mu", "eigensolve", "mu_curve", _points),
    ("eigensolve.mu", "eigensolve", "mu_of_lambda", None),
    ("eigensolve.assemble", "eigensolve", "assemble", None),
    ("eigensolve.make_discretization", "eigensolve", "make_discretization", None),
    # the pure backend's bisection calls its own module's pencil_inertia
    ("kernels.pencil_inertia", "kernels", "pencil_inertia", _rows),
    ("kernels.pencil_inertia", "_kernels_py", "pencil_inertia", _rows),
    ("kernels.smallest_pencil_eigenvalue", "kernels", "smallest_pencil_eigenvalue", None),
    ("rearrange.unimodal_rearrangement", "rearrange", "unimodal_rearrangement", None),
    ("rearrange.change_of_variable_forward", "rearrange", "change_of_variable_forward", None),
]

# per-layer metrics: (name, unit, how) with how = (kind, span name)
METRICS = [
    ("kernels.pencil_inertia.calls", "count", ("calls", "kernels.pencil_inertia")),
    ("kernels.pencil_inertia.s", "s", ("total", "kernels.pencil_inertia")),
    ("kernels.pivot_rows", "count", ("size", "kernels.pencil_inertia")),
    ("kernels.pivot_substituted", "count", ("flag", "kernels.pencil_inertia")),
    ("kernels.smallest_pencil_eigenvalue.calls", "count", ("calls", "kernels.smallest_pencil_eigenvalue")),
    ("kernels.smallest_pencil_eigenvalue.s", "s", ("total", "kernels.smallest_pencil_eigenvalue")),
    ("eigensolve.principal_lambda.calls", "count", ("calls", "eigensolve.principal_lambda")),
    ("eigensolve.principal_lambda.s", "s", ("total", "eigensolve.principal_lambda")),
    ("eigensolve.principal_eigenvalue.calls", "count", ("calls", "eigensolve.principal_eigenvalue")),
    ("eigensolve.principal_eigenvalue.s", "s", ("total", "eigensolve.principal_eigenvalue")),
    ("eigensolve.eigen_cov.calls", "count", ("calls", "eigensolve.eigen_cov")),
    ("eigensolve.eigen_cov.s", "s", ("total", "eigensolve.eigen_cov")),
    ("eigensolve.mu.calls", "count", ("size", "eigensolve.mu")),
    ("eigensolve.mu.s", "s", ("total", "eigensolve.mu")),
    ("eigensolve.assemble.calls", "count", ("calls", "eigensolve.assemble")),
    ("eigensolve.assemble.s", "s", ("total", "eigensolve.assemble")),
    ("eigensolve.make_discretization.s", "s", ("total", "eigensolve.make_discretization")),
    ("transcend.transcendental_root.calls", "count", ("calls", "transcend.transcendental_root")),
    ("transcend.transcendental_root.s", "s", ("total", "transcend.transcendental_root")),
    ("transcend.dirichlet_root.calls", "count", ("calls", "transcend.dirichlet_root")),
    ("optimize.sweep_beta.s", "s", ("total", "optimize.sweep_beta")),
    ("optimize.choose_delta.calls", "count", ("calls", "optimize.choose_delta")),
    ("optimize.choose_delta.s", "s", ("total", "optimize.choose_delta")),
    ("optimize.choose_delta.self_s", "s", ("self", "optimize.choose_delta")),
    ("optimize.locate_optimal_interval.calls", "count", ("calls", "optimize.locate_optimal_interval")),
    ("optimize.locate_optimal_interval.s", "s", ("total", "optimize.locate_optimal_interval")),
    ("optimize.locate_optimal_interval.self_s", "s", ("self", "optimize.locate_optimal_interval")),
    ("rearrange.unimodal_rearrangement.calls", "count", ("calls", "rearrange.unimodal_rearrangement")),
    ("rearrange.unimodal_rearrangement.s", "s", ("total", "rearrange.unimodal_rearrangement")),
    ("rearrange.unimodal_rearrangement.self_s", "s", ("self", "rearrange.unimodal_rearrangement")),
    ("rearrange.change_of_variable_forward.calls", "count", ("calls", "rearrange.change_of_variable_forward")),
    ("rearrange.change_of_variable_forward.s", "s", ("total", "rearrange.change_of_variable_forward")),
    ("cli.main.s", "s", ("total", "cli.main")),
    ("cli.self_s", "s", ("self", "cli.main")),
]


class Tracer:
    """Records spans [name, start, end, parent, size, flag] in call order."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if size is not None:
                rec[4] = size(args, kwargs, out)
            if name == "kernels.pencil_inertia" and out[1]:
                rec[5] = 1  # the pivot floor fired
            return out

        return traced

    def install(self) -> None:
        for name, module, attr, size in TARGETS:
            mod = getattr(self.package, module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, size))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def summary(self, first: int, last: int) -> dict:
        """Per-layer metrics over spans[first:last], one pass's spans."""
        calls: dict = {}
        total: dict = {}
        size: dict = {}
        flag: dict = {}
        child: dict = {}
        spans = self.spans
        for i in range(first, last):
            name, t0, t1, parent, n, f = spans[i]
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            size[name] = size.get(name, 0) + n
            flag[name] = flag.get(name, 0) + f
            total[name] = total.get(name, 0.0) + dur
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + dur
        self_s: dict = {}
        for i in range(first, last):
            name, t0, t1 = spans[i][:3]
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child.get(i, 0.0)
        table = {"calls": calls, "total": total, "size": size, "flag": flag, "self": self_s}
        return {
            metric: (table[kind].get(span, 0), unit)
            for metric, unit, (kind, span) in METRICS
        }

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"meta": meta, "fields": ["name", "start", "end", "parent", "size", "flag"],
                 "spans": self.spans},
                fh,
            )
