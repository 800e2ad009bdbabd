"""What the benchmark in perfbench/ needs from the package.

perfbench/run.py imports drifteig, drifteig._kernels_py and drifteig.cli and
refuses to run unless KERNEL_BACKEND is "pure"; with --trace 1 it wraps
every (module, attribute) that perfbench/tracing.py lists in TARGETS and
reads the wrapped functions' outputs.  These tests fail when a change to
the package would break any of that.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import drifteig
import drifteig._kernels_py  # noqa: F401
import drifteig.cli  # noqa: F401
from drifteig import Boundary, ModelParams, make_discretization, random_admissible

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    # tracing.py needs only the standard library
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads(monkeypatch):
    # workloads.py imports its sibling oracle.py by name, as run.py does
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def test_design_grid_runs_and_checks(monkeypatch):
    # its operations unpack choose_delta(p, beta) into two values and pass
    # the length to locate_optimal_interval(beta, delta, p) positionally
    grid = _load_workloads(monkeypatch).DesignGrid()
    inputs = grid.make_inputs(drifteig, 1, None)
    raw = [op() for op in grid.ops(drifteig, inputs)]
    assert grid.check(inputs, grid.read(inputs, raw)) == []


def test_figure_sweep_runs_and_checks(monkeypatch, tmp_path):
    # one pass of the figure's sweep command; its checks include the
    # Dirichlet row's one-sided gap to the oracle's root, which a row one
    # ulp below that root fails
    sweep = _load_workloads(monkeypatch).FigureSweep()
    inputs = sweep.make_inputs(drifteig, 1, str(tmp_path))
    raw = [op() for op in sweep.ops(drifteig, inputs)]
    assert sweep.check(inputs, sweep.read(inputs, raw)) == []


def test_eigen_battery_runs_and_checks(monkeypatch):
    # one pass of the only workload that solves on a grid: solves at three
    # sizes under four boundary conditions, eigen_cov, mu, rearrangements.
    # dpttrf certifies every answer, so the pure-Python spring test, 15-25
    # times slower per probe, never runs; a change that moves the workload
    # onto it shows here
    from drifteig import kernels

    sweeps, springs = [], kernels.springs
    monkeypatch.setattr(kernels, "springs", lambda *args: sweeps.append(1) or springs(*args))
    battery = _load_workloads(monkeypatch).EigenBattery()
    inputs = battery.make_inputs(drifteig, 1, None)
    raw = [op() for op in battery.ops(drifteig, inputs)]
    assert battery.check(inputs, battery.read(inputs, raw)) == []
    assert len(sweeps) == 0


def test_figure_sweep_argv_parses(monkeypatch, tmp_path):
    argv = _load_workloads(monkeypatch).FigureSweep().make_inputs(drifteig, 1, str(tmp_path))["argv"]
    args = drifteig.cli.build_parser().parse_args(argv)
    assert args.func is drifteig.cli.cmd_sweep
    assert (args.sweep, args.grid_n) == ("0.1:30.0:60:log", 2000)


def test_trace_targets_resolve():
    targets = _load_tracing().TARGETS
    assert targets
    for _, module, attr, _ in targets:
        assert callable(getattr(getattr(drifteig, module), attr, None)), (module, attr)


def test_backend_is_pure_in_a_clean_environment():
    # no DRIFTEIG* variable set: nothing selects the backend
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRIFTEIG")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    code = "import drifteig, drifteig._kernels_py; print(drifteig.KERNEL_BACKEND)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["pure"]
    assert drifteig.KERNEL_BACKEND == "pure"


def test_tracer_runs_end_to_end():
    # drifteig.cli and drifteig._kernels_py are imported above, as run.py does
    # before it installs the tracer
    tracer = _load_tracing().Tracer(drifteig)
    params = ModelParams(0.2, 1.0, 0.4)
    m = random_admissible(params, np.random.default_rng(3))
    disc = make_discretization(200, m)
    bc = Boundary.robin(1.0)
    tracer.install()
    try:
        drifteig.eigensolve.principal_eigenvalue(m, params, bc, disc)
        drifteig.eigensolve.mu_of_lambda(m, params, bc, disc, 5.0)
    finally:
        tracer.uninstall()
    got = {k: v for k, (v, _) in tracer.summary(0, len(tracer.spans)).items()}
    assert got["kernels.pencil_inertia.calls"] > 0
    # lambda's coarse bisection and mu's, both certified
    assert got["kernels.smallest_pencil_eigenvalue.calls"] == 2
    assert got["eigensolve.principal_eigenvalue.calls"] == 1
    assert got["kernels.pivot_substituted"] == 0


def test_tracer_sees_every_design_root():
    # sweep_beta locates each row through the module attribute, and every
    # design root goes through transcend.transcendental_root, so the
    # tracer's wrappers see both
    tracer = _load_tracing().Tracer(drifteig)
    tracer.install()
    try:
        betas = np.geomspace(0.1, 30.0, 60)
        rows, failures = drifteig.optimize.sweep_beta(betas, ModelParams(0.2, 1.0, 0.4))
    finally:
        tracer.uninstall()
    assert len(rows) == 61 and not failures
    got = {k: v for k, (v, _) in tracer.summary(0, len(tracer.spans)).items()}
    assert got["optimize.locate_optimal_interval.calls"] == 61
    # one root per row: the scanned rows' active-bound probes refine none
    assert got["transcend.transcendental_root.calls"] == 61


def test_tracer_counts_design_grid_roots(monkeypatch):
    # one design_grid pass refines 71 roots: each of its 56 designs is
    # located at its chosen length, and each of the 15 scanned ones also
    # refines m0's root in the scan (no other length's root lies at or
    # below it, and the active-bound probe refines none); every seed has
    # the same mix of pinned and scanned designs
    grid = _load_workloads(monkeypatch).DesignGrid()
    inputs = grid.make_inputs(drifteig, 1, None)
    tracer = _load_tracing().Tracer(drifteig)
    tracer.install()
    try:
        for op in grid.ops(drifteig, inputs):
            op()
    finally:
        tracer.uninstall()
    got = {k: v for k, (v, _) in tracer.summary(0, len(tracer.spans)).items()}
    assert got["optimize.choose_delta.calls"] == 56
    assert got["transcend.transcendental_root.calls"] == 71


def _roots_and_evaluations(monkeypatch, ops):
    """transcendental_root calls, and scalar _terms calls inside them, over ops.

    The length scan's own evaluations of F, outside transcendental_root,
    are not counted.
    """
    from drifteig import transcend

    counts = {"roots": 0, "inside": 0, "evaluations": 0}
    root, terms = transcend.transcendental_root, transcend._terms

    def counted_root(xi, beta, tp):
        counts["roots"] += 1
        counts["inside"] += 1
        try:
            return root(xi, beta, tp)
        finally:
            counts["inside"] -= 1

    def counted_terms(s, c, xp):
        if counts["inside"]:
            counts["evaluations"] += 1
        return terms(s, c, xp)

    monkeypatch.setattr(transcend, "transcendental_root", counted_root)
    monkeypatch.setattr(transcend, "_terms", counted_terms)
    for op in ops:
        op()
    return counts["roots"], counts["evaluations"]


def test_design_grid_evaluations_of_f(monkeypatch):
    # the root search's evaluations of F over one design_grid pass: each of
    # the 71 roots steps s = sqrt(lambda) down by transcend.STEP_DOWN from
    # the top of its search and Brent refines the last step
    grid = _load_workloads(monkeypatch).DesignGrid()
    inputs = grid.make_inputs(drifteig, 1, None)
    assert _roots_and_evaluations(monkeypatch, grid.ops(drifteig, inputs)) == (71, 680)


def test_figure_sweep_evaluations_of_f(monkeypatch, tmp_path):
    # one figure_sweep pass: one root per row, the 60 sweep rows and the
    # Dirichlet row, each found as the design_grid roots are
    sweep = _load_workloads(monkeypatch).FigureSweep()
    inputs = sweep.make_inputs(drifteig, 1, str(tmp_path))
    assert _roots_and_evaluations(monkeypatch, sweep.ops(drifteig, inputs)) == (61, 623)
