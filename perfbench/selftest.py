#!/usr/bin/env python3
"""Show that every output check of the benchmark can fail.

    python3 perfbench/selftest.py [workload ...]

Runs one pass of each named workload (all three by default), requires its
checks to pass on the program's outputs, then applies each perturbation in
``workloads.PERTURB`` to a fresh copy of the outputs and requires the
check it targets to report a failure.  Exits 0 when every check does.
"""

from __future__ import annotations

import copy
import sys

import run
import workloads


def selftest(pkg, name: str, seed: int = 1) -> list[str]:
    wl = workloads.WORKLOADS[name]
    run.OUT.mkdir(exist_ok=True)
    inputs = wl.make_inputs(pkg, seed, str(run.OUT))
    try:
        _, raw = run.run_pass(wl.ops(pkg, inputs))
        outputs = wl.read(inputs, raw)
    finally:
        wl.cleanup(inputs)
    problems = [f"{name}: unperturbed output fails {f}" for f in wl.check(inputs, outputs)]
    for check, perturb in workloads.PERTURB[name].items():
        changed = copy.deepcopy(outputs)
        perturb(changed, inputs)
        fails = wl.check(inputs, changed)
        caught = [f for f in fails if f.startswith(check + ":")]
        status = "caught" if caught else "MISSED"
        print(f"{name} {check}: {status} ({len(fails)} failures; "
              f"{caught[0] if caught else 'none from this check'})")
        if not caught:
            problems.append(f"{name}: perturbation for {check} not caught")
    return problems


def main(argv) -> int:
    pkg = run.load_package()
    names = argv or list(workloads.WORKLOADS)
    problems = [p for name in names for p in selftest(pkg, name)]
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
