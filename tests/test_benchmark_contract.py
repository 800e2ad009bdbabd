"""What the benchmark in perfbench/ needs from the package.

perfbench/run.py imports drifteig, drifteig._kernels_py and drifteig.cli and
refuses to run unless KERNEL_BACKEND is "pure"; with --trace 1 it wraps
every (module, attribute) that perfbench/tracing.py lists in TARGETS and
reads the wrapped functions' outputs.  These tests fail when a change to
the package would break any of that.
"""

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
    assert got["kernels.smallest_pencil_eigenvalue.calls"] == 1
    assert got["eigensolve.principal_eigenvalue.calls"] == 1
    assert got["kernels.pivot_substituted"] == 0
