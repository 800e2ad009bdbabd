"""Command-line front end: reproducible runs emitting CSV/JSON artifacts.

Subcommands
-----------
eig        solve one (weight, boundary) configuration, export the eigenpair
root       first positive root of the interval transcendental equation
locate     optimal interval location for one Robin coefficient
sweep      beta sweep of the optimal eigenvalue (plot-ready CSV)
rearrange  unimodal rearrangement of a weight and both eigenvalues
verify     built-in property battery with a machine-readable report

Configuration comes from an optional JSON file (--config) overridden by
flags; unknown config keys are rejected.  All randomized checks derive from
a fixed seed so reruns are byte-identical.

Exit codes, mapped in ``main`` alone: 0 success; 1 a verify property
failed; 2 input rejected (ConfigError); 3 any other DriftEigError or
ValueError, with error.json in the output directory; 4 failed sweep rows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import eigensolve, kernels, optimize, rearrange, transcend
from .weights import (
    BangBangInterval,
    Boundary,
    DriftEigError,
    ModelParams,
    PiecewiseWeight,
    random_admissible,
)

DEFAULT_SEED = 0xE16E
KNOWN_KEYS = {"params", "boundary", "weight", "sweep", "grid_n", "output", "seed"}
PARAM_KEYS = {"alpha", "kappa", "m0"}

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PARTIAL = 4


class ConfigError(DriftEigError, ValueError):
    """Input rejected before any solve: flags, config or parameters."""


# ---------------------------------------------------------------- config --


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _parse_params_flag(text: str | None) -> dict:
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"--params entries must be key=value, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ConfigError(f"unknown parameter {key!r}; expected one of {sorted(PARAM_KEYS)}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"parameter {key} is not a number: {val!r}") from exc
    return out


def _build_params(cfg: dict, args) -> ModelParams:
    data = {"alpha": 0.2, "kappa": 1.0, "m0": 0.4}
    file_params = cfg.get("params", {})
    if not isinstance(file_params, dict) or set(file_params) - PARAM_KEYS:
        raise ConfigError("config params must map alpha/kappa/m0 to numbers")
    data.update(file_params)
    data.update(_parse_params_flag(getattr(args, "params", None)))
    try:
        return ModelParams(**data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_boundary(cfg: dict, args) -> Boundary:
    spec = cfg.get("boundary")
    if getattr(args, "dirichlet", False):
        spec = "dirichlet"
    elif getattr(args, "neumann", False):
        spec = "neumann"
    elif getattr(args, "beta", None) is not None:
        spec = {"beta": args.beta}
    if spec is None:
        spec = {"beta": 1.0}
    if spec == "dirichlet":
        return Boundary.dirichlet()
    if spec == "neumann":
        return Boundary.neumann()
    if isinstance(spec, dict) and set(spec) == {"beta"}:
        try:
            return Boundary.robin(float(spec["beta"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"boundary must be 'dirichlet', 'neumann' or {{'beta': x}}, got {spec!r}")


def _build_weight(cfg: dict, args, params: ModelParams) -> PiecewiseWeight:
    spec = cfg.get("weight")
    if getattr(args, "weight", None):
        try:
            with open(args.weight, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read weight file: {exc}") from exc
    if spec is None or args.xi is not None or args.delta is not None:
        return _interval(args, params).weight()
    if not isinstance(spec, dict):
        raise ConfigError(f"weight must be a JSON object, got {spec!r}")
    try:
        if "bangbang" in spec:
            if set(spec) != {"bangbang"} or set(spec["bangbang"]) - {"xi", "delta"}:
                raise ConfigError("bangbang weight takes keys xi and delta only")
            bb = spec["bangbang"]
            return BangBangInterval(
                float(bb.get("xi", 0.0)), float(bb["delta"]), params
            ).weight()
        if set(spec) == {"breakpoints", "values"}:
            return PiecewiseWeight(tuple(spec["breakpoints"]), tuple(spec["values"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad weight: {exc}") from exc
    raise ConfigError("weight must have breakpoints/values or a bangbang entry")


def _interval(args, params: ModelParams) -> BangBangInterval:
    """The --xi/--delta interval, defaults 0 and delta*, checked."""
    xi = getattr(args, "xi", None)
    try:
        return BangBangInterval(
            0.0 if xi is None else xi,
            optimize.delta_star(params) if args.delta is None else args.delta,
            params,
        )
    except ValueError as exc:
        raise ConfigError(f"bad interval: {exc}") from exc


def _grid_n(cfg: dict, args) -> int:
    n = cfg.get("grid_n", eigensolve.DEFAULT_N)
    if getattr(args, "n", None) is not None:
        n = args.n
    if not isinstance(n, int) or n < 2:
        raise ConfigError(f"grid_n must be an integer >= 2, got {n!r}")
    return n


def _seed(cfg: dict, args) -> int:
    raw = cfg.get("seed", DEFAULT_SEED)
    if getattr(args, "seed", None) is not None:
        raw = args.seed
    if isinstance(raw, str):
        try:
            raw = int(raw, 16)
        except ValueError as exc:
            raise ConfigError(f"seed must be hexadecimal, got {raw!r}") from exc
    return int(raw)


def _out_dir(cfg: dict, args) -> str:
    out = cfg.get("output", "out")
    if getattr(args, "out", None) is not None:
        out = args.out
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------- output --


def _jsonable(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# -------------------------------------------------------------- commands --


def cmd_eig(args, cfg: dict) -> int:
    params = _build_params(cfg, args)
    bc = _build_boundary(cfg, args)
    m = _build_weight(cfg, args, params)
    n = _grid_n(cfg, args)
    out = _out_dir(cfg, args)
    disc = eigensolve.make_discretization(n, m)
    pair = eigensolve.principal_eigenvalue(m, params, bc, disc)
    if isinstance(pair, eigensolve.ZeroRegime):
        print("lambda=0 (zero regime)")
        _write_json(
            os.path.join(out, "eigenpair.json"),
            {
                "lambda": 0.0,
                "beta": _jsonable(bc.beta),
                "alpha": params.alpha,
                "kappa": params.kappa,
                "n": n,
                "residual": 0.0,
                "zero_regime": True,
            },
        )
        return EXIT_OK
    _write_csv(
        os.path.join(out, "eigenpair.csv"),
        ["x", "phi"],
        list(zip(pair.nodes.tolist(), pair.phi.tolist())),
    )
    _write_json(
        os.path.join(out, "eigenpair.json"),
        {
            "lambda": pair.lam,
            "beta": _jsonable(bc.beta),
            "alpha": params.alpha,
            "kappa": params.kappa,
            "n": n,
            "residual": pair.residual,
            "max_phi": pair.max_phi,
        },
    )
    print(f"lambda={pair.lam!r}")
    return EXIT_OK


def cmd_root(args, cfg: dict) -> int:
    params = _build_params(cfg, args)
    bc = _build_boundary(cfg, args)
    iv = _interval(args, params)
    xi, delta = iv.xi, iv.delta
    out = _out_dir(cfg, args)
    tp = transcend.TranscendParams(params=params, delta=delta)
    bcrit = transcend.beta_crit(tp)
    if bc.is_dirichlet:
        lam = transcend.dirichlet_root(tp, xi=xi)
    else:
        lam = transcend.transcendental_root(xi, bc.beta, tp)
    _write_json(
        os.path.join(out, "root.json"),
        {
            "lambda_first": lam,
            "beta": _jsonable(bc.beta),
            "beta_crit": bcrit,
            "xi": xi,
            "delta": delta,
            "alpha": params.alpha,
            "kappa": params.kappa,
        },
    )
    print(f"lambda_first={lam!r}")
    print(f"beta_crit={bcrit!r}")
    return EXIT_OK


def cmd_locate(args, cfg: dict) -> int:
    params = _build_params(cfg, args)
    bc = _build_boundary(cfg, args)
    n = _grid_n(cfg, args)
    if args.delta is not None:
        delta, active = _interval(args, params).delta, None
    else:
        delta, active = optimize.choose_delta(params, bc.beta, grid_n=n)
    out = _out_dir(cfg, args)
    opt = optimize.locate_optimal_interval(bc.beta, delta, params, grid_n=n)
    mass_active = opt.mass_active if active is None else active
    _write_json(
        os.path.join(out, "optimum.json"),
        {
            "beta": _jsonable(bc.beta),
            "beta_crit": opt.beta_crit,
            "xi_star": opt.xi_star,
            "delta": opt.delta,
            "lambda_star": opt.lambda_star,
            "regime": opt.regime.value,
            "mass_active": mass_active,
        },
    )
    print(f"xi_star={opt.xi_star!r} lambda_star={opt.lambda_star!r} regime={opt.regime.value}")
    return EXIT_OK


def _parse_sweep(cfg: dict, args):
    spec = cfg.get("sweep")
    if getattr(args, "sweep", None):
        parts = args.sweep.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError("--sweep takes start:stop:points[:scale]")
        spec = dict(zip(("start", "stop", "points", "scale"), parts))
    if spec is None:
        spec = {"start": 0.1, "stop": 30.0, "points": 60, "scale": "log"}
    if set(spec) - {"start", "stop", "points", "scale"}:
        raise ConfigError(f"unknown sweep keys in {spec!r}")
    try:
        points = int(spec["points"])
        start, stop = float(spec["start"]), float(spec["stop"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep {spec!r}: {exc}") from exc
    if points < 1:
        raise ConfigError("sweep needs at least one point")
    if start <= 0.0 or stop < start:
        raise ConfigError("sweep range must satisfy 0 < start <= stop")
    scale = spec.get("scale", "log")
    if scale == "log":
        grid = np.geomspace(start, stop, points)
    elif scale == "linear":
        grid = np.linspace(start, stop, points)
    else:
        raise ConfigError(f"sweep scale must be log or linear, got {scale!r}")
    return grid.tolist()


def cmd_sweep(args, cfg: dict) -> int:
    params = _build_params(cfg, args)
    n = _grid_n(cfg, args)
    out = _out_dir(cfg, args)
    grid = _parse_sweep(cfg, args)
    rows, failures = optimize.sweep_beta(grid, params, grid_n=n)
    csv_rows = [
        (_jsonable(r.beta), r.lambda_star, r.xi_star, r.regime.value, r.mass_active)
        for r in rows
    ]
    _write_csv(
        os.path.join(out, "sweep.csv"),
        ["beta", "lambda_star", "xi_star", "regime", "mass_active"],
        csv_rows,
    )
    plot_lines = [f"{_jsonable(r.beta)} {r.lambda_star!r}" for r in rows]
    _atomic_write(os.path.join(out, "sweep_plot.dat"), "\n".join(plot_lines) + "\n")
    tp = transcend.TranscendParams(params=params, delta=optimize.delta_star(params))
    _write_json(
        os.path.join(out, "sweep.json"),
        {
            "params": {"alpha": params.alpha, "kappa": params.kappa, "m0": params.m0},
            "beta_crit": transcend.beta_crit(tp),
            "rows": len(rows),
            "failures": [{"beta": _jsonable(b), "detail": d} for b, d in failures],
        },
    )
    print(f"wrote {len(rows)} rows to {out}/sweep.csv")
    if failures:
        print(f"{len(failures)} rows failed", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_rearrange(args, cfg: dict) -> int:
    params = _build_params(cfg, args)
    bc = _build_boundary(cfg, args)
    m = _build_weight(cfg, args, params)
    n = _grid_n(cfg, args)
    out = _out_dir(cfg, args)
    disc = eigensolve.make_discretization(n, m)
    before = eigensolve.principal_eigenvalue(m, params, bc, disc)
    if isinstance(before, eigensolve.ZeroRegime):
        print("lambda=0 (zero regime)")
        return EXIT_OK
    pair = rearrange.unimodal_rearrangement(m, params, bc, disc)
    disc_r = eigensolve.make_discretization(n, pair.m_R)
    after = eigensolve.principal_eigenvalue(pair.m_R, params, bc, disc_r)
    _atomic_write(os.path.join(out, "rearranged.json"), pair.m_R.to_json() + "\n")
    _write_json(
        os.path.join(out, "rearrange_summary.json"),
        {
            "lambda_before": before.lam,
            "lambda_after": after.lam,
            "x_plus": pair.x_plus,
            "y_plus": pair.y_plus,
        },
    )
    print(f"lambda_before={before.lam!r}")
    print(f"lambda_after={after.lam!r}")
    return EXIT_OK


# ---------------------------------------------------------------- verify --


def _verify_properties(params: ModelParams, n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    results = []

    def run(name, tolerance, fn):
        # a solver crash counts as a failed property, not a failed run
        try:
            margin, passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not mask
            results.append(
                {
                    "name": name,
                    "passed": False,
                    "margin": "nan",
                    "tolerance": float(tolerance),
                    "detail": f"{type(exc).__name__}: {exc}",
                }
            )
            return
        results.append(
            {
                "name": name,
                "passed": bool(passed),
                "margin": float(margin),
                "tolerance": float(tolerance),
                "detail": detail,
            }
        )

    def rearrangement_monotonicity():
        worst = -math.inf
        cases = 0
        for bc in (Boundary.neumann(), Boundary.robin(1.0), Boundary.dirichlet()):
            for _ in range(4):
                m = random_admissible(params, rng)
                disc = eigensolve.make_discretization(n, m)
                before = eigensolve.principal_eigenvalue(m, params, bc, disc)
                if isinstance(before, eigensolve.ZeroRegime):
                    continue
                pair = rearrange.unimodal_rearrangement(m, params, bc, disc)
                after = eigensolve.principal_eigenvalue(
                    pair.m_R, params, bc, eigensolve.make_discretization(n, pair.m_R)
                )
                worst = max(worst, after.lam - before.lam)
                cases += 1
        return worst, worst <= 1e-6, f"max(lambda_R - lambda) over {cases} cases"

    def equimeasurability():
        worst = 0.0
        for _ in range(6):
            m = random_admissible(params, rng)
            _, mt = rearrange.change_of_variable_forward(m, params.alpha)
            ident = abs(
                sum(v * math.exp(params.alpha * v) * ell for v, ell in mt.pieces())
                - sum(v * ell for v, ell in m.pieces())
            )
            worst = max(worst, ident)
            disc = eigensolve.make_discretization(n, m)
            pair = rearrange.unimodal_rearrangement(m, params, Boundary.robin(1.0), disc)
            _, mtr = rearrange.change_of_variable_forward(pair.m_R, params.alpha)
            total = sum(math.exp(params.alpha * v) * ell for v, ell in mtr.pieces())
            worst = max(worst, abs(total - 1.0))
            for c in np.linspace(-1.0, params.kappa, 50):
                worst = max(
                    worst,
                    abs(
                        rearrange.level_set_length(mtr.pieces(), c)
                        - rearrange.level_set_length(mt.pieces(), c)
                    ),
                )
        return worst, worst <= 1e-14, "max identity defect over 6 weights"

    def mu_concavity():
        m = random_admissible(params, rng)
        disc = eigensolve.make_discretization(n, m)
        worst = math.inf
        for _ in range(20):
            l1, l2 = sorted(rng.uniform(-20.0, 120.0, size=2))
            t = rng.uniform(0.05, 0.95)
            mus = eigensolve.mu_curve(
                m, params, Boundary.robin(1.0), disc, [l1, l2, t * l1 + (1.0 - t) * l2]
            )
            chord = t * mus[0].mu + (1.0 - t) * mus[1].mu
            worst = min(worst, mus[2].mu - chord)
        return worst, worst >= -1e-9, "min(mu(mid) - chord) over 20 triples"

    dstar = optimize.delta_star(params)
    tp = transcend.TranscendParams(params=params, delta=dstar)

    def trichotomy():
        bcrit = transcend.beta_crit(tp)
        low = optimize.locate_optimal_interval(0.5 * bcrit, dstar, params, grid_n=n)
        high = optimize.locate_optimal_interval(2.0 * bcrit, dstar, params, grid_n=n)
        worst = max(abs(low.xi_star), abs(high.xi_star - 0.5 * (1.0 - dstar)))
        xs = np.linspace(0.0, 0.5 * (1.0 - dstar), 16)
        vals = [transcend.transcendental_root(float(x), bcrit, tp) for x in xs]
        flat = (max(vals) - min(vals)) / min(vals)
        # lambda* against the root over the full range of xi, which does not
        # go through the placement rule
        excess = -math.inf
        for opt in (low, high):
            for x in np.linspace(0.0, 1.0 - dstar, 33):
                root = transcend.transcendental_root(float(x), opt.beta, tp)
                excess = max(excess, opt.lambda_star / root - 1.0)
        ok = worst <= 1e-6 and flat <= 1e-8 and excess <= 1e-12
        return (
            max(worst, flat, excess),
            ok,
            "xi* placement at 0.5/2.0 beta_crit, flatness at beta_crit, "
            "lambda* <= root on a 33-point xi scan",
        )

    def mollify():
        opt = optimize.locate_optimal_interval(1.0, dstar, params, grid_n=n)
        demo = optimize.mollify_demo(
            opt, [0.1, 0.05, 0.02], params, Boundary.robin(1.0), grid_n=n
        )
        lams = [lam for _, lam in demo]
        base = optimize.mollify_demo(opt, [0.0], params, Boundary.robin(1.0), grid_n=n)[0][1]
        dec = min(l1 - l2 for l1, l2 in zip(lams, lams[1:]))
        above = min(l - base for l in lams)
        ok = dec > 0.0 and above > 0.0
        return min(dec, above), ok, "widths 0.1/0.05/0.02 strictly decreasing and above the optimum"

    def discretization_agreement():
        w = BangBangInterval(0.0, dstar, params).weight()
        disc = eigensolve.make_discretization(n, w)
        lam_grid = eigensolve.principal_eigenvalue(w, params, Boundary.robin(1.0), disc).lam
        lam_root = transcend.transcendental_root(0.0, 1.0, tp)
        rel = abs(lam_grid - lam_root) / lam_root
        return rel, rel <= 1e-4, f"grid n={n} vs transcendental root at beta=1"

    run("rearrangement_monotonicity", 1e-6, rearrangement_monotonicity)
    run("equimeasurability", 1e-14, equimeasurability)
    run("mu_concavity", 1e-9, mu_concavity)
    run("trichotomy", 1e-6, trichotomy)
    run("mollify_demo", 0.0, mollify)
    run("discretization_agreement", 1e-4, discretization_agreement)
    return results


def cmd_verify(args, cfg: dict) -> int:
    params = _build_params(cfg, args)
    n = _grid_n(cfg, args)
    seed = _seed(cfg, args)
    out = _out_dir(cfg, args)
    results = _verify_properties(params, n, seed)
    all_passed = all(r["passed"] for r in results)
    report = {
        "seed": hex(seed),
        "grid_n": n,
        "backend": kernels.BACKEND,
        "properties": results,
        "all_passed": all_passed,
    }
    _write_json(os.path.join(out, "verify_report.json"), report)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        margin = r["margin"]
        mtxt = f"{margin:.3g}" if isinstance(margin, float) else str(margin)
        print(f"{status} {r['name']}: margin={mtxt} ({r['detail']})")
    return EXIT_OK if all_passed else EXIT_FAIL


# ------------------------------------------------------------------ main --


def _add_common(p: argparse.ArgumentParser, grid: bool = True) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory (default out/)")
    if grid:
        p.add_argument("--n", type=int, help="grid cells for the discretized solver")
    p.add_argument("--params", help="override constants, e.g. alpha=0.2,kappa=1,m0=0.4")


def _add_boundary_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, help="Robin coefficient")
    p.add_argument("--dirichlet", action="store_true", help="Dirichlet boundary")
    p.add_argument("--neumann", action="store_true", help="Neumann boundary")


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weight", help="JSON file with breakpoints/values")
    p.add_argument("--xi", type=float, help="bang-bang interval left endpoint")
    p.add_argument("--delta", type=float, help="bang-bang interval length")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drifteig", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", help="principal eigenvalue of one configuration", allow_abbrev=False)
    _add_common(p)
    _add_boundary_flags(p)
    _add_weight_flags(p)
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser(
        "root", help="transcendental root for an interval weight", allow_abbrev=False
    )
    _add_common(p, grid=False)
    _add_boundary_flags(p)
    p.add_argument("--xi", type=float, help="interval left endpoint (default 0)")
    p.add_argument("--delta", type=float, help="interval length (default delta*)")
    p.set_defaults(func=cmd_root)

    p = sub.add_parser("locate", help="optimal interval location", allow_abbrev=False)
    _add_common(p)
    _add_boundary_flags(p)
    p.add_argument("--delta", type=float, help="interval length (default: policy)")
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("sweep", help="beta sweep of the optimal eigenvalue", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--sweep", help="start:stop:points[:scale]")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rearrange", help="unimodal rearrangement of a weight", allow_abbrev=False)
    _add_common(p)
    _add_boundary_flags(p)
    _add_weight_flags(p)
    p.set_defaults(func=cmd_rearrange)

    p = sub.add_parser("verify", help="run the built-in property battery", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--seed", help="hex seed for randomized checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DriftEigError, ValueError) as exc:
        # cfg is bound: _load_config raises ConfigError only
        error = {"error": type(exc).__name__, "detail": str(exc)}
        _write_json(os.path.join(_out_dir(cfg, args), "error.json"), error)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
