#!/usr/bin/env python3
"""drifteig benchmark: one workload per call, results as one JSON line.

    python3 perfbench/run.py --workload figure_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` on the pure kernel backend, in one process with one thread.  The
run repeats whole passes over the workload's operations until ``--seconds``
have gone by, checks every pass's outputs (outside the timed region), and
prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, run_s,
op_p50_ms, peak_rss_mb); run_s and op_p50_ms are scaled to the reference
speed that ``speed.py`` measures during each pass.  With ``--trace 1``
untraced and traced passes alternate, and the metrics are the per-layer
ones from ``tracing.py`` (the median over traced passes) plus the tracing
overhead; the spans are written to ``perfbench/out/``.  ``--workload all``
runs every workload, each in its own process, and prints a table.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
CHILD_TIMEOUT = 170.0

import speed  # noqa: E402  (next to this file)
import workloads  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402


def load_package():
    """Import drifteig from this checkout's src/ on the pure backend."""
    if not (SRC / "drifteig" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}; run from a source checkout")
    os.environ["DRIFTEIG_PURE"] = "1"
    sys.path.insert(0, str(SRC))
    import drifteig
    import drifteig._kernels_py
    import drifteig.cli

    if Path(drifteig.__file__).resolve().parent != SRC / "drifteig":
        raise SystemExit(f"error: imported drifteig from {drifteig.__file__}, not {SRC}")
    if drifteig.KERNEL_BACKEND != "pure":
        raise SystemExit(f"error: kernel backend is {drifteig.KERNEL_BACKEND}, want pure")
    return drifteig


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Process start to ready-for-the-first-operation, in a fresh process."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - start


def run_pass(ops):
    """(start, end) and output of each operation; one that raises yields an OpError."""
    outs, spans = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            out = workloads.OpError(exc)
        spans.append((t0, time.perf_counter()))
        outs.append(out)
    return spans, outs


def run_workload(args) -> int:
    pkg = load_package()
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        inputs = wl.make_inputs(pkg, args.seed, str(OUT))
        wl.cleanup(inputs)
        print(repr(time.monotonic()))
        return 0
    if not args.trace:
        setup = [setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    inputs = wl.make_inputs(pkg, args.seed, str(OUT))
    tracer = Tracer(pkg) if args.trace else None
    try:
        ops = wl.ops(pkg, inputs)
        attempted = failed = 0
        fails: list[str] = []
        # plain: passes at the reference speed; busy and traced: raw seconds
        plain, busy, traced, lat, summaries, passes = [], [], [], [], [], []
        start = time.perf_counter()
        while True:
            use_trace = tracer is not None and len(plain) > len(traced)
            if use_trace:
                first = len(tracer.spans)
                tracer.install()
                try:
                    spans, raw = run_pass(ops)
                finally:
                    tracer.uninstall()
                summaries.append(tracer.summary(first, len(tracer.spans)))
                secs = sum(t1 - t0 for t0, t1 in spans)
                traced.append(secs)
                passes.append({"traced": True, "spans": [first, len(tracer.spans)], "s": secs})
            else:
                with speed.Sampler() as sampler:
                    spans, raw = run_pass(ops)
                op_s = [sampler.adjust(t0, t1) for t0, t1 in spans]
                secs = sum(sampler.busy(t0, t1) for t0, t1 in spans)
                plain.append(sum(op_s))
                busy.append(secs)
                lat.extend(op_s)
                passes.append({"traced": False, "s": secs, "adjusted_s": sum(op_s),
                               "reference_ms": 1e3 * statistics.median(
                                   e - s for s, e in sampler.samples)})
            attempted += len(raw)
            failed += sum(isinstance(r, workloads.OpError) for r in raw)
            for r in raw:
                if isinstance(r, workloads.OpError):
                    print(f"operation failed: {r.detail}", file=sys.stderr)
            fails.extend(wl.check(inputs, wl.read(inputs, raw)))
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or traced):
                break
    finally:
        wl.cleanup(inputs)
    for f in fails[:20]:
        print(f"check failed: {f}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(plain), "s"),
            "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {}
        for name, unit, _ in METRICS:
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (middle(s[name][0] for s in summaries), unit)
        overhead = statistics.median(traced) / statistics.median(busy) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path), {"workload": args.workload, "seed": args.seed, "passes": passes})
        print(f"spans written to {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    pass_s = " ".join(f"{p['s']:.3f}" for p in passes)
    print(f"{args.workload} pass seconds, raw = {pass_s}")
    adjusted = [p for p in passes if not p["traced"]]
    print(f"{args.workload} pass seconds at reference speed = "
          + " ".join(f"{p['adjusted_s']:.3f}" for p in adjusted)
          + "; reference loop ms = " + " ".join(f"{p['reference_ms']:.2f}" for p in adjusted))
    print(f"{args.workload} passes = {len(passes)}, operations attempted = {attempted}, "
          f"failed = {failed}, check failures = {len(fails)}")
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not fails else 1


def run_all(args) -> int:
    """Each workload in its own process; a table of their results."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status = status or done.returncode
    order = ["setup_s", "run_s", "op_p50_ms", "peak_rss_mb"]
    order += [name for name, _, _ in METRICS] + ["trace.overhead_pct"]
    names = [m for m in order if any(m in r["metrics"] for r in results.values())]
    header = ["metric", "unit"] + list(results)
    rows = [header]
    for m in names:
        unit = next(r["metrics"][m]["unit"] for r in results.values() if m in r["metrics"])
        rows.append([m, unit] + [f"{r['metrics'][m]['value']:.6g}" for r in results.values()])
    for key in ("attempted", "failed", "correct"):
        rows.append([key, ""] + [str(r[key]) for r in results.values()])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
