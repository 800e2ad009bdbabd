"""The benchmark's three workloads: inputs, operations and output checks.

Each workload provides

* ``make_inputs(pkg, seed)``: everything the operations need, built from
  the seed before timing starts;
* ``ops(pkg, inputs)``: the operations of one pass, as callables that
  reach the package through its module attributes at call time;
* ``read(inputs, raw)``: the outputs of one pass as plain data, made after
  the pass (it may read files the operations wrote);
* ``check(inputs, outputs)``: failures as ``"<check>: <detail>"`` strings,
  measured against ``oracle`` and the method's own properties.

``PERTURB`` maps each check of each workload to a change of the outputs
that the check must catch; ``selftest.py`` applies them one at a time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil

import numpy as np

import oracle

FIG = (0.2, 1.0, 0.4)  # alpha, kappa, m0 of the paper's figure
FIG_N = 2000
FIG_SWEEP = (0.1, 30.0, 60)


class OpError:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.detail = f"{type(exc).__name__}: {exc}"


def _rel(a, b):
    return abs(a - b) / abs(b)


# ========================================================= figure_sweep ==


class FigureSweep:
    """The paper's figure through the CLI: one ``sweep`` command per pass.

    The inputs are the figure's, so they are the same for every seed.
    """

    name = "figure_sweep"

    def make_inputs(self, pkg, seed, out_dir):
        a, k, m0 = FIG
        start, stop, points = FIG_SWEEP
        out = os.path.join(out_dir, f"sweep-{os.getpid()}")
        argv = [
            "sweep", "--sweep", f"{start}:{stop}:{points}:log",
            "--params", f"alpha={a},kappa={k},m0={m0}",
            "--n", str(FIG_N), "--out", out,
        ]
        return {"argv": argv, "out": out, "betas": np.geomspace(start, stop, points).tolist()}

    def cleanup(self, inputs):
        shutil.rmtree(inputs["out"], ignore_errors=True)

    def ops(self, pkg, inputs):
        argv = inputs["argv"]

        def sweep():
            with contextlib.redirect_stdout(io.StringIO()):
                return pkg.cli.main(argv)

        return [sweep]

    def read(self, inputs, raw):
        (rc,) = raw
        if isinstance(rc, OpError):
            return [rc]
        out = inputs["out"]
        with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        with open(os.path.join(out, "sweep.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        rows = [
            {
                "beta": float(r["beta"]),
                "lam": float(r["lambda_star"]),
                "xi": float(r["xi_star"]),
                "regime": r["regime"],
                "active": r["mass_active"] == "True",
            }
            for r in table
        ]
        return [{"rc": rc, "rows": rows, "summary": summary}]

    def check(self, inputs, outputs):
        (out,) = outputs
        if isinstance(out, OpError):
            return []
        a, k, m0 = FIG
        d = oracle.delta_star(k, m0)
        center = 0.5 * (1.0 - d)
        bc = oracle.beta_crit(a, k, d)
        lam_inf = oracle.interval_root(center, math.inf, a, k, d)
        rows = out["rows"]
        fails = []
        summary = out["summary"]
        if out["rc"] != 0 or summary["failures"] or summary["rows"] != len(inputs["betas"]) + 1:
            fails.append(f"exit: rc {out['rc']}, {len(summary['failures'])} failed rows, "
                         f"{summary['rows']} rows reported")
        want = inputs["betas"] + [math.inf]
        if [r["beta"] for r in rows] != want:
            fails.append(f"grid: {len(rows)} rows whose betas differ from the requested "
                         f"{len(want)}")
            return fails
        if _rel(summary["beta_crit"], bc) > 1e-12:
            fails.append(f"beta_crit: {summary['beta_crit']!r} vs closed form {bc!r}")
        finite = rows[:-1]
        for r in rows:
            above = r["beta"] > bc
            xi_want = center if above else 0.0
            regime = "Centered" if above else "BoundaryLeft"
            if not r["active"] or abs(r["xi"] - xi_want) > 1e-9 or r["regime"] != regime:
                fails.append(f"placement: beta {r['beta']!r} gives xi* {r['xi']!r} "
                             f"{r['regime']} active={r['active']}, want {xi_want} {regime}")
        for r in finite:
            root = oracle.interval_root(r["xi"], r["beta"], a, k, d)
            if _rel(r["lam"], root) > 1e-11:
                fails.append(f"root: beta {r['beta']!r} lambda* {r['lam']!r} vs F root {root!r}")
            other = oracle.interval_root(center if r["xi"] == 0.0 else 0.0, r["beta"], a, k, d)
            if r["lam"] > other * (1.0 + 1e-12):
                fails.append(f"optimal: beta {r['beta']!r} lambda* {r['lam']!r} above the "
                             f"other location's root {other!r}")
        lams = [r["lam"] for r in rows]
        for i in range(len(lams) - 1):
            if lams[i + 1] < lams[i]:
                fails.append(f"monotone: lambda* falls from {lams[i]!r} to {lams[i + 1]!r} "
                             f"at beta {rows[i + 1]['beta']!r}")
        for i in range(1, len(finite) - 1):
            b0, b1, b2 = (finite[j]["beta"] for j in (i - 1, i, i + 1))
            t = (b1 - b0) / (b2 - b0)
            chord = (1.0 - t) * lams[i - 1] + t * lams[i + 1]
            if lams[i] < chord - 1e-9 * lams[i]:
                fails.append(f"concave: lambda*({b1!r}) = {lams[i]!r} below the chord {chord!r}")
        high = max(lams[:-1])
        if high >= lam_inf:
            fails.append(f"below_limit: finite lambda* {high!r} >= lambda_inf {lam_inf!r}")
        gap = (lams[-1] - lam_inf) / lam_inf
        if not 0.0 <= gap <= 4.0 / FIG_N**2:
            fails.append(f"dirichlet_row: grid lambda {lams[-1]!r} vs limit of F/beta^2 "
                         f"{lam_inf!r}: relative gap {gap:.3g} outside [0, 4/n^2]")
        return fails


def _sweep_row(outputs, i):
    return outputs[0]["rows"][i]


def _scale_lam(i, f):
    def go(outs):
        _sweep_row(outs, i)["lam"] *= f
    return go


def _move_to_center(outs):
    a, k, m0 = FIG
    d = oracle.delta_star(k, m0)
    r = _sweep_row(outs, 10)
    r["xi"] = 0.5 * (1.0 - d)
    r["lam"] = oracle.interval_root(r["xi"], r["beta"], a, k, d)


def _below_chord_row(outs):
    rows = outs[0]["rows"]
    (b0, l0), (b1, l1), (b2, l2) = ((rows[j]["beta"], rows[j]["lam"]) for j in (44, 45, 46))
    t = (b1 - b0) / (b2 - b0)
    rows[45]["lam"] = (1.0 - t) * l0 + t * l2 - 1e-8 * l1


def _swap_lams(outs):
    r0, r1 = _sweep_row(outs, 20), _sweep_row(outs, 21)
    r0["lam"], r1["lam"] = r1["lam"], r0["lam"]


FIGURE_PERTURB = {
    "exit": lambda outs: outs[0].update(rc=4),
    "grid": lambda outs: outs[0]["rows"].pop(30),
    "beta_crit": lambda outs: outs[0]["summary"].update(
        beta_crit=outs[0]["summary"]["beta_crit"] * (1.0 + 1e-9)),
    "placement": lambda outs: _sweep_row(outs, 40).update(xi=_sweep_row(outs, 40)["xi"] + 1e-5),
    "root": _scale_lam(10, 1.0 + 1e-6),
    "optimal": _move_to_center,
    "monotone": _swap_lams,
    "concave": _below_chord_row,
    "below_limit": lambda outs: _sweep_row(outs, 59).update(lam=_sweep_row(outs, 60)["lam"] * 1.001),
    "dirichlet_row": _scale_lam(60, 1.0 + 1e-6),
}


# ========================================================== design_grid ==


def _abar(k, m0):
    return math.log((k + m0) / (k * (1.0 - m0))) / (1.0 + k)


class DesignGrid:
    """Finite-beta optimal designs: choose_delta, then locate_optimal_interval.

    The grid is criterion 7's (kappa, m0, alpha/alpha-bar) on both sides of
    beta_crit, plus the figure's constants.  The seed jitters every point
    by a few percent and shuffles the order; a jittered point that would
    cross the paper's pinning condition keeps its grid value, so every
    seed has the same mix of pinned and scanned designs.
    """

    name = "design_grid"
    RATIOS = (0.6, 1.7)

    def make_inputs(self, pkg, seed, out_dir):
        rng = np.random.default_rng([seed, 2])
        base = [
            (k, m0, frac * min(0.5, _abar(k, m0)))
            for k in (0.5, 1.0, 2.0)
            for m0 in (0.2, 0.4, 0.6)
            for frac in (0.2, 0.45, 0.7)
        ]
        base.append((FIG[1], FIG[2], FIG[0]))
        designs = []
        for k0, m00, a0 in base:
            for ratio0 in self.RATIOS:
                jitter = 1.0 + rng.uniform(-0.04, 0.04, size=4)
                k, m0, a = k0 * jitter[0], m00 * jitter[1], a0 * jitter[2]
                d0 = oracle.delta_star(k0, m00)
                beta0 = ratio0 * oracle.beta_crit(a0, k0, d0)
                if oracle.pinned(a, k, m0, beta0) != oracle.pinned(a0, k0, m00, beta0):
                    k, m0, a = k0, m00, a0
                beta = ratio0 * jitter[3] * oracle.beta_crit(a, k, oracle.delta_star(k, m0))
                designs.append({"alpha": float(a), "kappa": float(k), "m0": float(m0),
                                "beta": float(beta)})
        order = rng.permutation(len(designs))
        designs = [designs[i] for i in order]
        for dsg in designs:
            dsg["params"] = pkg.ModelParams(dsg["alpha"], dsg["kappa"], dsg["m0"])
        return {"designs": designs}

    def cleanup(self, inputs):
        pass

    def ops(self, pkg, inputs):
        def design(dsg):
            def run():
                p, beta = dsg["params"], dsg["beta"]
                delta, active = pkg.optimize.choose_delta(p, beta)
                return delta, active, pkg.optimize.locate_optimal_interval(beta, delta, p)
            return run

        return [design(dsg) for dsg in inputs["designs"]]

    def read(self, inputs, raw):
        out = []
        for r in raw:
            if isinstance(r, OpError):
                out.append(r)
                continue
            delta, active, opt = r
            out.append({
                "delta": float(delta), "active": bool(active), "opt_delta": float(opt.delta),
                "xi": float(opt.xi_star), "lam": float(opt.lambda_star),
                "regime": opt.regime.value, "beta_crit": float(opt.beta_crit),
            })
        return out

    def check(self, inputs, outputs):
        fails = []
        for dsg, out in zip(inputs["designs"], outputs):
            if isinstance(out, OpError):
                continue
            a, k, m0, beta = dsg["alpha"], dsg["kappa"], dsg["m0"], dsg["beta"]
            tag = f"(alpha {a:.4g}, kappa {k:.4g}, m0 {m0:.4g}, beta {beta:.4g})"
            dstar = oracle.delta_star(k, m0)
            d = out["delta"]
            must_pin = oracle.pinned(a, k, m0, beta)
            if (d > dstar or out["opt_delta"] != d or (out["active"] and d != dstar)
                    or (must_pin and (d != dstar or not out["active"]))):
                fails.append(f"delta: {tag} delta {d!r} active={out['active']} vs delta* "
                             f"{dstar!r}, pinned={must_pin}")
                continue
            bc = oracle.beta_crit(a, k, d)
            if _rel(out["beta_crit"], bc) > 1e-12:
                fails.append(f"beta_crit: {tag} {out['beta_crit']!r} vs closed form {bc!r}")
            center = 0.5 * (1.0 - d)
            xi_want, regime = (center, "Centered") if beta > bc else (0.0, "BoundaryLeft")
            if abs(out["xi"] - xi_want) > 1e-9 or out["regime"] != regime:
                fails.append(f"placement: {tag} xi* {out['xi']!r} {out['regime']}, "
                             f"want {xi_want!r} {regime}")
            lam = out["lam"]
            root = oracle.interval_root(out["xi"], beta, a, k, d)
            if _rel(lam, root) > 1e-11:
                fails.append(f"root: {tag} lambda* {lam!r} vs F root {root!r}")
            for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
                xi = frac * (1.0 - d)
                other = oracle.interval_root(xi, beta, a, k, d)
                if lam > other * (1.0 + 1e-12):
                    fails.append(f"optimal_xi: {tag} lambda* {lam!r} above root {other!r} "
                                 f"at xi {xi!r}")
                    break
            for scale in (1.0, 0.9, 0.75):
                dd = scale * dstar
                best = min(oracle.interval_root(0.0, beta, a, k, dd),
                           oracle.interval_root(0.5 * (1.0 - dd), beta, a, k, dd))
                if lam > best * (1.0 + 1e-12):
                    fails.append(f"optimal_delta: {tag} lambda* {lam!r} above {best!r} "
                                 f"at delta {dd!r}")
                    break
        return fails


def _design(outs, want_regime):
    return next(o for o in outs if o["regime"] == want_regime)


DESIGN_PERTURB = {
    "delta": lambda outs: outs[0].update(delta=outs[0]["delta"] * (1.0 + 1e-6)),
    "beta_crit": lambda outs: outs[1].update(beta_crit=outs[1]["beta_crit"] * (1.0 + 1e-9)),
    "placement": lambda outs: outs[2].update(xi=outs[2]["xi"] + 1e-5),
    "root": lambda outs: outs[3].update(lam=outs[3]["lam"] * (1.0 + 1e-6)),
    "optimal_xi": lambda outs: _design(outs, "Centered").update(
        lam=_design(outs, "Centered")["lam"] * 1.2),
    "optimal_delta": lambda outs: outs[4].update(lam=outs[4]["lam"] * 1.2),
}


# ======================================================== eigen_battery ==


BCS = (("neumann", 0.0), ("robin1", 1.0), ("robin10", 10.0), ("dirichlet", math.inf))
SIZES = (500, 2000, 8000)
N = 2000  # grid of every operation not in the convergence study
NEUMANN_MEMBER = (150, 50)  # cells and start, in 1/500: delta = 0.3, xi = 0.1
ZERO_ALPHA = 1.0
SIGN_OFFSET = 1e-3


def random_weight(rng, k, m0, count=6):
    """Piecewise weight with values in [-1, k] and mass at most -m0.

    One piece is a resource patch near k; the others are drawn below it and
    pulled toward -1 until the mass is 5% of (1 - m0) under the bound.
    """
    target = -m0 - 0.05 * (1.0 - m0)
    while True:
        lengths = rng.dirichlet(np.full(count, 6.0))
        if lengths.min() < 0.03:
            continue
        values = rng.uniform(-1.0, 0.5 * k, size=count)
        top = int(rng.integers(count))
        values[top] = k * rng.uniform(0.7, 1.0)
        excess = float(values @ lengths) - target
        if excess > 0.0:
            others = np.arange(count) != top
            room = float(((values + 1.0) * lengths)[others].sum())
            if room <= excess:
                continue
            values[others] -= excess / room * (values[others] + 1.0)
        bp = np.concatenate(([0.0], np.cumsum(lengths)))
        bp[-1] = 1.0
        return tuple(bp.tolist()), tuple(values.tolist())


class EigenBattery:
    """Grid solves on seeded weights, with the solver core's other uses.

    Per boundary condition (Neumann, Robin 1, Robin 10, Dirichlet): a
    bang-bang member with ends on the 1/500 grid (the Neumann one fixed),
    solved at n = 500, 2000 and 8000, and mu beside its exact eigenvalue;
    a random six-piece weight, with its solve, eigen_cov, one mu_curve
    triple, its unimodal rearrangement and the solve of the result.
    Everything outside the convergence study runs at n = 2000.  Two
    Neumann weights in the zero regime (alpha = 1) complete the pass.  The
    cheap operations (n = 500, zero regime) are as many as the dear ones
    (n = 8000, mu_curve), so the median operation is an n = 2000 call.
    """

    name = "eigen_battery"

    def make_inputs(self, pkg, seed, out_dir):
        rng = np.random.default_rng([seed, 3])
        a, k, m0 = FIG
        params = pkg.ModelParams(a, k, m0)
        cases = {}
        for label, beta in BCS:
            cells = int(rng.integers(140, 151))
            start = int(rng.integers(0, 500 - cells + 1))
            if beta == 0.0:
                # fixed: whether the n = 8000 solve misfires at lambda = 1e-8
                # (an extra mu bisection) depends on the geometry; this one does
                cells, start = NEUMANN_MEMBER
            xi, d = start / 500.0, cells / 500.0
            bang = pkg.BangBangInterval(xi, d, params).weight()
            exact = oracle.interval_root(xi, beta, a, k, d)
            bp, vals = random_weight(rng, k, m0)
            lo, hi = np.sort(rng.uniform(-20.0, 120.0, size=2))
            t = rng.uniform(0.05, 0.95)
            cases[label] = {
                "beta": beta,
                "boundary": pkg.Boundary(beta),
                "bang": bang,
                "bang_exact": exact,
                "rand": pkg.PiecewiseWeight(bp, vals),
                "mu_lams": [float(lo), float(hi), float(t * lo + (1.0 - t) * hi)],
            }
        zero_params = pkg.ModelParams(ZERO_ALPHA, k, m0)
        zeros = []
        for _ in range(2):
            d = oracle.delta_star(k, m0)
            xi = float(rng.uniform(0.0, 1.0 - d))
            zeros.append(pkg.BangBangInterval(xi, d, zero_params).weight())
        return {"params": params, "zero_params": zero_params, "cases": cases,
                "zeros": zeros, "neumann": pkg.Boundary(0.0)}

    def cleanup(self, inputs):
        pass

    def op_specs(self, inputs):
        """(kind, case label, weight key, n, extra) of every operation, in order."""
        specs = []
        for label, _ in BCS:
            for n in SIZES:
                specs.append(("solve", label, "bang", n, None))
            specs.append(("solve", label, "rand", N, None))
            specs.append(("cov", label, "rand", N, None))
            specs.append(("mu_curve", label, "rand", N, None))
            for side in (-1.0, 1.0):
                specs.append(("mu_sign", label, "bang", N, side))
            specs.append(("rearrange", label, "rand", N, None))
            specs.append(("solve_rearranged", label, "rand", N, None))
        for i in range(len(inputs["zeros"])):
            specs.append(("zero", "neumann", "zero", N, i))
        return specs

    def ops(self, pkg, inputs):
        es, params = pkg.eigensolve, inputs["params"]
        rearranged = {}

        def make(kind, label, key, n, extra):
            case = inputs["cases"][label]
            bc = case["boundary"]
            m = case.get(key)

            def solve():
                return es.principal_eigenvalue(m, params, bc, es.make_discretization(n, m))

            def cov():
                return es.eigen_cov(m, params, bc, es.make_discretization(n, m))

            def mu_curve():
                disc = es.make_discretization(n, m)
                return es.mu_curve(m, params, bc, disc, case["mu_lams"])

            def mu_sign():
                lam = case["bang_exact"] * (1.0 + extra * SIGN_OFFSET)
                return es.mu_of_lambda(m, params, bc, es.make_discretization(n, m), lam)

            def rearrange():
                pair = pkg.rearrange.unimodal_rearrangement(
                    m, params, bc, es.make_discretization(n, m))
                rearranged[label] = pair.m_R
                return pair

            def solve_rearranged():
                m_r = rearranged.pop(label)
                return es.principal_eigenvalue(m_r, params, bc, es.make_discretization(n, m_r))

            def zero():
                w = inputs["zeros"][extra]
                return es.principal_eigenvalue(
                    w, inputs["zero_params"], inputs["neumann"], es.make_discretization(n, w))

            return {"solve": solve, "cov": cov, "mu_curve": mu_curve, "mu_sign": mu_sign,
                    "rearrange": rearrange, "solve_rearranged": solve_rearranged,
                    "zero": zero}[kind]

        return [make(*spec) for spec in self.op_specs(inputs)]

    def read(self, inputs, raw):
        out = []
        for spec, r in zip(self.op_specs(inputs), raw):
            kind = spec[0]
            if isinstance(r, OpError):
                item = r
            elif kind in ("solve", "cov", "solve_rearranged", "zero"):
                if hasattr(r, "phi"):
                    item = {"kind": "pair", "lam": float(r.lam), "nodes": np.array(r.nodes),
                            "phi": np.array(r.phi)}
                else:
                    item = {"kind": "zero", "lam": float(r.lam)}
            elif kind == "mu_curve":
                item = {"kind": "mu", "points": [(float(p.lam), float(p.mu)) for p in r]}
            elif kind == "mu_sign":
                item = {"kind": "mu", "value": float(r)}
            else:
                item = {"kind": "weight", "breakpoints": tuple(r.m_R.breakpoints),
                        "values": tuple(r.m_R.values)}
            out.append(item)
        return out

    def check(self, inputs, outputs):
        fails = []
        a, k, m0 = FIG
        specs = self.op_specs(inputs)
        by_spec = {}
        for spec, out in zip(specs, outputs):
            by_spec[spec] = out
        lam_rearranged = {}
        for spec, out in zip(specs, outputs):
            kind, label, key, n, extra = spec
            if isinstance(out, OpError) or kind not in ("solve", "cov", "solve_rearranged", "zero"):
                continue
            case = inputs["cases"][label]
            beta, alpha = case["beta"], a
            if kind == "zero":
                w, alpha = inputs["zeros"][extra], ZERO_ALPHA
                bp, vals = w.breakpoints, w.values
            elif kind == "solve_rearranged":
                src = by_spec[("rearrange", label, key, n, None)]
                if isinstance(src, OpError):
                    continue
                bp, vals = src["breakpoints"], src["values"]
                lam_rearranged[label] = out["lam"]
            else:
                bp, vals = case[key].breakpoints, case[key].values
            tag = f"{kind} {label} {key} n={n}"
            zero_regime = beta == 0.0 and oracle.exp_mass(oracle.pieces(bp, vals), alpha) >= 0.0
            if zero_regime != (out["kind"] == "zero"):
                fails.append(f"zero_regime: {tag} returned {out['kind']} but exp-mass from "
                             f"the pieces says zero regime = {zero_regime}")
                continue
            if out["kind"] == "zero":
                continue
            num, den = oracle.p1_forms(out["nodes"], out["phi"], bp, vals, alpha, beta)
            lam = out["lam"]
            if not _rel(num / den, lam) <= 1e-7:
                fails.append(f"rayleigh: {tag} P1 Rayleigh quotient {num / den!r} vs "
                             f"lambda {lam!r}")
            if not abs(den - 1.0) <= 1e-12:
                fails.append(f"normalization: {tag} int m e^(alpha m) phi^2 = {den!r}")
            phi = out["phi"]
            if not phi.min() >= 0.0:
                fails.append(f"positive: {tag} min phi {float(phi.min())!r}")
        for label, beta in BCS:
            case = inputs["cases"][label]
            exact = case["bang_exact"]
            errs = []
            for n in SIZES:
                out = by_spec[("solve", label, "bang", n, None)]
                if isinstance(out, OpError) or out["kind"] != "pair":
                    break
                errs.append((out["lam"] - exact) / exact)
            if len(errs) == len(SIZES):
                order = math.log(errs[0] / errs[-1]) / math.log(SIZES[-1] / SIZES[0]) \
                    if min(errs) > 0.0 else float("nan")
                bounded = all(0.0 <= e * n * n <= 10.0 for e, n in zip(errs, SIZES))
                if not (bounded and 1.85 <= order <= 2.15):
                    fails.append(f"convergence: {label} bang-bang relative errors "
                                 f"{[f'{e:.3g}' for e in errs]} vs the F root "
                                 f"(order {order:.3g}, want 0 <= e n^2 <= 10, order 2 +- 0.15)")
            cov = by_spec[("cov", label, "rand", N, None)]
            direct = by_spec[("solve", label, "rand", N, None)]
            if not (isinstance(cov, OpError) or isinstance(direct, OpError)):
                if cov["kind"] != direct["kind"] or (
                        cov["kind"] == "pair" and _rel(cov["lam"], direct["lam"]) > 1e-4):
                    fails.append(f"cov_agreement: {label} n={N} eigen_cov {cov['lam']!r} vs "
                                 f"principal_eigenvalue {direct['lam']!r}")
            src = by_spec[("rearrange", label, "rand", N, None)]
            before = direct
            if not isinstance(src, OpError):
                m = case["rand"]
                orig = oracle.transported(oracle.pieces(m.breakpoints, m.values), a)
                image = oracle.transported(oracle.pieces(src["breakpoints"], src["values"]), a)
                worst = max(abs(oracle.level_set_length(image, c) - oracle.level_set_length(orig, c))
                            for c in list(m.values) + [-1.0 - 1e-9])
                if worst > 1e-13:
                    fails.append(f"level_sets: {label} transported level-set lengths differ "
                                 f"by {worst:.3g}")
                if not oracle.is_unimodal(src["values"]):
                    fails.append(f"unimodal: {label} rearranged values {src['values']}")
                if label in lam_rearranged and not isinstance(before, OpError):
                    if lam_rearranged[label] > before["lam"] + 1e-6:
                        fails.append(f"rearrangement: {label} lambda(m_R) "
                                     f"{lam_rearranged[label]!r} > lambda(m) "
                                     f"{before['lam']!r} + 1e-6")
            curve = by_spec[("mu_curve", label, "rand", N, None)]
            if not isinstance(curve, OpError):
                (l1, m1), (l2, m2), (lm, mm) = curve["points"]
                t = (l2 - lm) / (l2 - l1)
                chord = t * m1 + (1.0 - t) * m2
                if mm < chord - 1e-9 * max(1.0, abs(m1), abs(m2)):
                    fails.append(f"mu_concave: {label} mu({lm!r}) = {mm!r} below the chord "
                                 f"{chord!r}")
            left = by_spec[("mu_sign", label, "bang", N, -1.0)]
            right = by_spec[("mu_sign", label, "bang", N, 1.0)]
            if not (isinstance(left, OpError) or isinstance(right, OpError)):
                if not left["value"] > 0.0 > right["value"]:
                    fails.append(f"mu_sign: {label} mu = {left['value']!r}, {right['value']!r} "
                                 f"at lambda_1 (1 -+ {SIGN_OFFSET}); want + then -")
        return fails


def _battery_index(kind, label, key="rand", n=N, extra=None):
    def find(outs, inputs):
        return EigenBattery().op_specs(inputs).index((kind, label, key, n, extra))
    return find


def _battery_edit(find, edit):
    def go(outs, inputs):
        edit(outs[find(outs, inputs)])
    return go


def _dent_phi(item):
    phi = item["phi"].copy()
    phi[phi.size // 2] = -1e-6 * phi.max()
    item["phi"] = phi


def _dip_values(item):
    vals = sorted(item["values"])
    item["values"] = tuple([vals[1], vals[0]] + vals[2:])  # down, then up


def _lift_rearranged(outs, inputs):
    specs = EigenBattery().op_specs(inputs)
    before = outs[specs.index(("solve", "neumann", "rand", N, None))]
    after = outs[specs.index(("solve_rearranged", "neumann", "rand", N, None))]
    after["lam"] = before["lam"] + 1e-5


def _below_chord(item):
    (l1, m1), (l2, m2), (lm, _) = item["points"]
    t = (l2 - lm) / (l2 - l1)
    chord = t * m1 + (1.0 - t) * m2
    item["points"][2] = (lm, chord - 1e-6 * max(1.0, abs(m1), abs(m2)))


def _shift_breakpoint(item):
    bp = list(item["breakpoints"])
    bp[1] += 1e-6
    item["breakpoints"] = tuple(bp)


BATTERY_PERTURB = {
    "zero_regime": _battery_edit(_battery_index("zero", "neumann", "zero", N, 0),
                                 lambda it: it.update(kind="pair")),
    "rayleigh": _battery_edit(_battery_index("solve", "robin1", "rand", 2000),
                              lambda it: it.update(lam=it["lam"] * (1.0 + 1e-6))),
    "normalization": _battery_edit(_battery_index("cov", "dirichlet"),
                                   lambda it: it.update(phi=it["phi"] * (1.0 + 1e-6))),
    "positive": _battery_edit(_battery_index("solve", "neumann", "bang", 500), _dent_phi),
    "convergence": _battery_edit(_battery_index("solve", "robin10", "bang", 8000),
                                 lambda it: it.update(lam=it["lam"] * (1.0 + 1e-6))),
    "cov_agreement": _battery_edit(_battery_index("cov", "robin10"),
                                   lambda it: it.update(lam=it["lam"] * (1.0 + 2e-4))),
    "level_sets": _battery_edit(_battery_index("rearrange", "robin1"), _shift_breakpoint),
    "unimodal": _battery_edit(_battery_index("rearrange", "dirichlet"), _dip_values),
    "rearrangement": _lift_rearranged,
    "mu_concave": _battery_edit(_battery_index("mu_curve", "robin10"),
                                _below_chord),
    "mu_sign": _battery_edit(_battery_index("mu_sign", "robin1", "bang", N, -1.0),
                             lambda it: it.update(value=-it["value"])),
}


WORKLOADS = {w.name: w for w in (FigureSweep(), DesignGrid(), EigenBattery())}
PERTURB = {
    "figure_sweep": {k: (lambda outs, inputs, f=f: f(outs)) for k, f in FIGURE_PERTURB.items()},
    "design_grid": {k: (lambda outs, inputs, f=f: f(outs)) for k, f in DESIGN_PERTURB.items()},
    "eigen_battery": BATTERY_PERTURB,
}
