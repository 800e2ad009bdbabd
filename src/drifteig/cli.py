"""Command-line front end: reproducible runs emitting CSV/JSON artifacts.

Subcommands
-----------
eig        solve one (weight, boundary) configuration, export the eigenpair
root       first positive root of the interval transcendental equation
locate     optimal interval location for one Robin coefficient
sweep      beta sweep of the optimal eigenvalue (plot-ready CSV)
rearrange  unimodal rearrangement of a weight and both eigenvalues
verify     built-in property battery with a machine-readable report

Each setting is a key of an optional JSON config file (--config); unknown
keys are rejected.  A flag is stored under the key it overrides: --n
grid_n, --out output, --seed seed, --sweep sweep, --weight weight, and
--beta X, --dirichlet or --neumann (mutually exclusive) boundary, as
{"beta": X}, "dirichlet" or "neumann".  --params overrides the params key
by key; --xi/--delta replace the weight.  seed is a non-negative integer
or a hex string, and a sweep range needs 0 < start <= stop < inf.  All
randomized checks derive from the seed, so reruns are byte-identical.
Only eig, rearrange and verify solve on a grid of grid_n cells; root,
locate and sweep solve closed-form roots, and of these only sweep still
accepts --n, which it does not use.

Exit codes, mapped in ``main`` alone: 0 success; 1 a verify property
failed; 2 input rejected (ConfigError), malformed config values included;
3 a solve raised any other DriftEigError or ValueError, with error.json in
the output directory; 4 failed sweep rows.  An OSError while a command
writes its outputs also exits 2, since the output path is an input: one
stderr line names the path, and no error.json is tried where the write
failed.
"""

from __future__ import annotations

import argparse
import functools
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

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PARTIAL = 4

# every config key and its default; a flag is stored under the key it overrides
DEFAULTS = {
    "params": {"alpha": 0.2, "kappa": 1.0, "m0": 0.4},
    "boundary": {"beta": 1.0},
    "weight": None,  # the --xi/--delta interval, defaults 0 and delta*
    "sweep": {"start": 0.1, "stop": 30.0, "points": 60, "scale": "log"},
    "grid_n": eigensolve.DEFAULT_N,
    "output": "out",
    "seed": 0xE16E,
}
KNOWN_KEYS = frozenset(DEFAULTS)
SWEEP_KEYS = ("start", "stop", "points", "scale")


class ConfigError(DriftEigError, ValueError):
    """Input rejected before any solve: flags, config or parameters."""


# ---------------------------------------------------------------- config --


def _load_json(path: str):
    """The JSON value in a config or weight file.

    No setting takes true or false, and Python would read them as the
    numbers 1 and 0, so a boolean anywhere in the file is rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        value = json.load(fh)
    todo = [value]
    while todo:
        item = todo.pop()
        if isinstance(item, bool):
            raise ConfigError(f"{path} holds {json.dumps(item)} where a number or string belongs")
        todo.extend(item.values() if isinstance(item, dict) else item if isinstance(item, list) else ())
    return value


def _settings(args) -> dict:
    """The raw value of every setting: the flag, else the config file, else the default."""
    cfg = {}
    if args.config is not None:
        cfg = _load_json(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if set(cfg) - KNOWN_KEYS:
            raise ConfigError(f"unknown config keys: {sorted(set(cfg) - KNOWN_KEYS)}")
    flags = {key: val for key, val in vars(args).items() if key in KNOWN_KEYS and val is not None}
    raw = {**DEFAULTS, **cfg, **flags}
    # --params alpha=..,kappa=.. overrides the config's parameters key by key
    items = flags["params"].split(",") if "params" in flags else []
    if not all("=" in item for item in items):
        raise ConfigError(f"--params entries must be key=value, got {flags['params']!r}")
    pairs = [item.split("=", 1) for item in items]
    raw["params"] = {
        **DEFAULTS["params"],
        **cfg.get("params", {}),
        **{key.strip(): float(val) for key, val in pairs},
    }
    if "sweep" in flags:
        parts = flags["sweep"].split(":")
        if len(parts) not in (3, 4):
            raise ConfigError("--sweep takes start:stop:points[:scale]")
        raw["sweep"] = dict(zip(SWEEP_KEYS, parts))
    if "weight" in flags:
        raw["weight"] = _load_json(flags["weight"])
    if getattr(args, "xi", None) is not None or getattr(args, "delta", None) is not None:
        raw["weight"] = None
    return raw


def _params(raw) -> ModelParams:
    return ModelParams(**raw)


def _boundary(raw) -> Boundary:
    if raw == "dirichlet":
        return Boundary.dirichlet()
    if raw == "neumann":
        return Boundary.neumann()
    if isinstance(raw, dict) and set(raw) == {"beta"}:
        return Boundary.robin(float(raw["beta"]))
    raise ConfigError(f"boundary must be 'dirichlet', 'neumann' or {{'beta': x}}, got {raw!r}")


def _weight(raw, params: ModelParams) -> PiecewiseWeight:
    if isinstance(raw, dict) and set(raw) == {"breakpoints", "values"}:
        return PiecewiseWeight(tuple(raw["breakpoints"]), tuple(raw["values"]))
    bb = raw.get("bangbang") if isinstance(raw, dict) and len(raw) == 1 else None
    if isinstance(bb, dict) and set(bb) <= {"xi", "delta"}:
        return BangBangInterval(float(bb.get("xi", 0.0)), float(bb["delta"]), params).weight()
    raise ConfigError("weight must have breakpoints/values or a bangbang entry with xi and delta")


def _sweep(raw) -> list:
    """The beta grid of a sweep spec."""
    if set(raw) - set(SWEEP_KEYS):
        raise ConfigError(f"unknown sweep keys in {raw!r}")
    start, stop, points = float(raw["start"]), float(raw["stop"]), raw["points"]
    points = int(points) if isinstance(points, str) else points  # --sweep's text
    if not isinstance(points, int) or points < 1:
        raise ConfigError(f"sweep points must be an integer >= 1, got {raw['points']!r}")
    if not 0.0 < start <= stop < math.inf:
        raise ConfigError(f"sweep range must satisfy 0 < start <= stop < inf, got {start}:{stop}")
    scale = raw.get("scale", "log")
    if scale not in ("log", "linear"):
        raise ConfigError(f"sweep scale must be log or linear, got {scale!r}")
    return (np.geomspace if scale == "log" else np.linspace)(start, stop, points).tolist()


def _grid_n(raw) -> int:
    if not isinstance(raw, int) or raw < 2:
        raise ConfigError(f"grid_n must be an integer >= 2, got {raw!r}")
    return raw


def _seed(raw) -> int:
    seed = int(raw, 16) if isinstance(raw, str) else raw
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer or a hex string, got {raw!r}")
    return seed


def _out_dir(raw) -> str:
    os.makedirs(raw, exist_ok=True)
    return raw


def _resolve(args) -> None:
    """Replace each setting the command has a flag for by its checked value.

    The one input boundary: any KeyError, TypeError, ValueError or OSError
    raised while the inputs are read becomes a ConfigError, so no solve
    starts on bad input.  The output directory is made last.
    """
    try:
        raw, has = _settings(args), vars(args)
        for key, convert in (
            ("params", _params),
            ("boundary", _boundary),
            ("sweep", _sweep),
            ("grid_n", _grid_n),
            ("seed", _seed),
        ):
            # sweep parses --n only so that figure_sweep's argv stays valid
            if key in has and not (key == "grid_n" and args.command == "sweep"):
                setattr(args, key, convert(raw[key]))
        if "delta" in has:  # the --xi/--delta interval, defaults 0 and delta*
            xi, delta = has.get("xi"), args.delta
            args.interval = BangBangInterval(
                0.0 if xi is None else xi,
                optimize.delta_star(args.params) if delta is None else delta,
                args.params,
            )
            # the interval's closed form: a length whose root search stays finite
            transcend.TranscendParams(args.params, args.interval.delta)
        if "weight" in has:
            raw_w = raw["weight"]
            args.weight = args.interval.weight() if raw_w is None else _weight(raw_w, args.params)
        args.output = _out_dir(raw["output"])
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------- output --


def _jsonable(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through path.tmp, which a failed write or rename removes."""
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# -------------------------------------------------------------- commands --


def cmd_eig(args) -> int:
    params, bc, m, n, out = args.params, args.boundary, args.weight, args.grid_n, args.output
    disc = eigensolve.make_discretization(n, m)
    pair = eigensolve.principal_eigenvalue(m, params, bc, disc)
    meta = {"beta": _jsonable(bc.beta), "alpha": params.alpha, "kappa": params.kappa, "n": n}
    path = os.path.join(out, "eigenpair.json")
    if isinstance(pair, eigensolve.ZeroRegime):
        print("lambda=0 (zero regime)")
        _write_json(path, {**meta, "lambda": 0.0, "residual": 0.0, "zero_regime": True})
        return EXIT_OK
    _write_csv(
        os.path.join(out, "eigenpair.csv"),
        ["x", "phi"],
        list(zip(pair.nodes.tolist(), pair.phi.tolist())),
    )
    meta.update(
        {
            "lambda": pair.lam,
            "residual": pair.residual,
            "max_phi": pair.max_phi,
            "certified": pair.certified,
            "probes": pair.probes,
        }
    )
    _write_json(path, meta)
    print(f"lambda={pair.lam!r}")
    return EXIT_OK


def cmd_root(args) -> int:
    params, bc, out = args.params, args.boundary, args.output
    xi, delta = args.interval.xi, args.interval.delta
    tp = transcend.TranscendParams(params=params, delta=delta)
    bcrit = transcend.beta_crit(tp)
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


def cmd_locate(args) -> int:
    bc = args.boundary
    opt = optimize.locate_optimal_interval(bc.beta, args.delta, args.params)
    _write_json(
        os.path.join(args.output, "optimum.json"),
        {
            "beta": _jsonable(bc.beta),
            "beta_crit": opt.beta_crit,
            "xi_star": opt.xi_star,
            "delta": opt.delta,
            "lambda_star": opt.lambda_star,
            "regime": opt.regime.value,
            "mass_active": opt.mass_active,
        },
    )
    print(f"xi_star={opt.xi_star!r} lambda_star={opt.lambda_star!r} regime={opt.regime.value}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    params, out = args.params, args.output
    rows, failures = optimize.sweep_beta(args.sweep, params)
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


def _rearranged(m: PiecewiseWeight, params: ModelParams, bc: Boundary, n: int):
    """(lambda of m, its RearrangedPair, lambda of m_R) on grids of n cells;
    None in the zero regime, where m has no eigenfunction to rearrange around."""
    before = eigensolve.principal_eigenvalue(m, params, bc, eigensolve.make_discretization(n, m))
    if isinstance(before, eigensolve.ZeroRegime):
        return None
    pair = rearrange.rearrange_around(m, params, before)
    disc_r = eigensolve.make_discretization(n, pair.m_R)
    return before.lam, pair, eigensolve.principal_eigenvalue(pair.m_R, params, bc, disc_r).lam


def cmd_rearrange(args) -> int:
    solved = _rearranged(args.weight, args.params, args.boundary, args.grid_n)
    if solved is None:
        print("lambda=0 (zero regime)")
        return EXIT_OK
    before, pair, after = solved
    _atomic_write(os.path.join(args.output, "rearranged.json"), pair.m_R.to_json() + "\n")
    _write_json(
        os.path.join(args.output, "rearrange_summary.json"),
        {
            "lambda_before": before,
            "lambda_after": after,
            "x_plus": pair.x_plus,
            "y_plus": pair.y_plus,
        },
    )
    print(f"lambda_before={before!r}")
    print(f"lambda_after={after!r}")
    return EXIT_OK


# ---------------------------------------------------------------- verify --


def _verify_properties(params: ModelParams, n: int, seed: int) -> list:
    """One row per property, passed when its margin, a violation, is at most its
    tolerance.  The checks draw from one seeded rng in table order."""
    rng, robin = np.random.default_rng(seed), Boundary.robin(1.0)
    dstar = optimize.delta_star(params)
    tp = transcend.TranscendParams(params=params, delta=dstar)

    def rearrangement_monotonicity():
        worst = -math.inf
        cases = 0
        for bc in (Boundary.neumann(), robin, Boundary.dirichlet()):
            for _ in range(4):
                solved = _rearranged(random_admissible(params, rng), params, bc, n)
                if solved is not None:
                    worst = max(worst, solved[2] - solved[0])
                    cases += 1
        return worst, f"max(lambda_R - lambda) over {cases} cases"

    def equimeasurability():
        # a length carries its rounding through factors e^{alpha v} up to
        # kappa e^{alpha kappa} between x and y, so each weight's defects are
        # taken relative to its int |m| e^{alpha m} dx, at least 1
        worst, level = 0.0, rearrange.level_set_length
        for _ in range(6):
            m = random_admissible(params, rng)
            scale = max(1.0, sum(abs(v) * math.exp(params.alpha * v) * ell for v, ell in m.pieces()))
            _, mt = rearrange.change_of_variable_forward(m, params.alpha)
            lhs = sum(v * math.exp(params.alpha * v) * ell for v, ell in mt.pieces())
            defect = abs(lhs - sum(v * ell for v, ell in m.pieces()))
            disc = eigensolve.make_discretization(n, m)
            pair = rearrange.unimodal_rearrangement(m, params, robin, disc)
            _, mtr = rearrange.change_of_variable_forward(pair.m_R, params.alpha)
            total = sum(math.exp(params.alpha * v) * ell for v, ell in mtr.pieces())
            defect = max(defect, abs(total - 1.0))
            for c in np.linspace(-1.0, params.kappa, 50):
                defect = max(defect, abs(level(mtr.pieces(), c) - level(mt.pieces(), c)))
            worst = max(worst, defect / scale)
        return worst, "max identity defect over 6 weights, relative to max(1, int |m| e^{alpha m})"

    def mu_concavity():
        m = random_admissible(params, rng)
        disc = eigensolve.make_discretization(n, m)
        worst = -math.inf
        for _ in range(20):
            l1, l2 = sorted(rng.uniform(-20.0, 120.0, size=2))
            t = rng.uniform(0.05, 0.95)
            mus = eigensolve.mu_curve(m, params, robin, disc, [l1, l2, t * l1 + (1.0 - t) * l2])
            chord = t * mus[0].mu + (1.0 - t) * mus[1].mu
            worst = max(worst, chord - mus[2].mu)
        return worst, "max(chord - mu(mid)) over 20 triples"

    @functools.cache
    def optima():  # the optimal intervals at 0.5 and 2 beta_crit
        bcrit = transcend.beta_crit(tp)
        return tuple(optimize.locate_optimal_interval(f * bcrit, dstar, params) for f in (0.5, 2.0))

    def trichotomy_placement():
        low, high = optima()
        worst = max(abs(low.xi_star), abs(high.xi_star - 0.5 * (1.0 - dstar)))
        return worst, "xi* offset from the edge at 0.5 beta_crit and the centre at 2 beta_crit"

    def trichotomy_flatness():
        bcrit = transcend.beta_crit(tp)
        xs = np.linspace(0.0, 0.5 * (1.0 - dstar), 16)
        vals = [transcend.transcendental_root(float(x), bcrit, tp) for x in xs]
        spread = (max(vals) - min(vals)) / min(vals)
        return spread, "relative spread of the root over 16 xi at beta_crit"

    def trichotomy_optimality():
        # lambda* against the root over the full range of xi, which does not
        # go through the placement rule
        excess = -math.inf
        for x in np.linspace(0.0, 1.0 - dstar, 33):
            for opt in optima():
                root = transcend.transcendental_root(float(x), opt.beta, tp)
                excess = max(excess, opt.lambda_star / root - 1.0)
        return excess, "max(lambda*/root - 1) on a 33-point xi scan at 0.5/2 beta_crit"

    def mollify():
        opt = optimize.locate_optimal_interval(1.0, dstar, params)
        demo = optimize.mollify_demo(opt, [0.1, 0.05, 0.02], params, robin, grid_n=n)
        lams = [lam for _, lam in demo]
        base = optimize.mollify_demo(opt, [0.0], params, robin, grid_n=n)[0][1]
        dec = min(l1 - l2 for l1, l2 in zip(lams, lams[1:]))
        above = min(l - base for l in lams)
        return -min(dec, above), "widths 0.1/0.05/0.02 strictly decreasing and above the optimum"

    def discretization_agreement():
        worst = 0.0
        for xi, bc in ((0.0, robin), (0.5 * (1.0 - dstar), Boundary.dirichlet())):
            w = BangBangInterval(xi, dstar, params).weight()
            disc = eigensolve.make_discretization(n, w)
            lam_grid = eigensolve.principal_eigenvalue(w, params, bc, disc).lam
            lam_root = transcend.transcendental_root(xi, bc.beta, tp)
            gap = (lam_grid - lam_root) / lam_root
            if gap < -eigensolve.LAMBDA_REL_TOL:  # a Rayleigh quotient lies at or above it
                raise eigensolve.SolverError(f"grid lambda below the root: signed gap {gap:+.3e}")
            worst = max(worst, abs(gap))
        return worst, f"grid n={n} vs transcendental root (beta=1 edge, inf center)"

    table = (
        ("rearrangement_monotonicity", 1e-6, rearrangement_monotonicity),
        ("equimeasurability", 1e-14, equimeasurability),
        ("mu_concavity", 1e-9, mu_concavity),
        ("trichotomy_placement", 1e-6, trichotomy_placement),
        ("trichotomy_flatness", 1e-8, trichotomy_flatness),
        ("trichotomy_optimality", 1e-12, trichotomy_optimality),
        # strict: -5e-324 is the negative float closest to 0, so margin < 0
        ("mollify_demo", -math.ulp(0.0), mollify),
        ("discretization_agreement", 1e-4, discretization_agreement),
    )
    results = []
    for name, tolerance, check in table:
        try:
            margin, detail = check()
            margin = float(margin)
            passed = margin <= tolerance
        except Exception as exc:  # noqa: BLE001 - a crash fails its row, not the run
            margin, passed, detail = "nan", False, f"{type(exc).__name__}: {exc}"
        results.append(
            {"name": name, "passed": passed, "margin": margin, "tolerance": tolerance, "detail": detail}
        )
    return results


def cmd_verify(args) -> int:
    seed, n = args.seed, args.grid_n
    results = _verify_properties(args.params, n, seed)
    all_passed = all(r["passed"] for r in results)
    report = {
        "seed": hex(seed),
        "grid_n": n,
        "backend": kernels.BACKEND,
        "properties": results,
        "all_passed": all_passed,
    }
    _write_json(os.path.join(args.output, "verify_report.json"), report)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        margin = r["margin"]
        mtxt = f"{margin:.3g}" if isinstance(margin, float) else str(margin)
        print(f"{status} {r['name']}: margin={mtxt} ({r['detail']})")
    return EXIT_OK if all_passed else EXIT_FAIL


# ------------------------------------------------------------------ main --


GRID_HELP = "grid cells for the discretized solver"
WEIGHT_FLAGS = (
    ("--weight", None, "JSON file with breakpoints/values"),
    ("--xi", float, "bang-bang interval left endpoint"),
    ("--delta", float, "bang-bang interval length"),
)
# each command: its help, its function, the help of --n (None: no --n),
# whether it takes the boundary flags, and its own flags as (flag, type, help)
COMMANDS = {
    "eig": ("principal eigenvalue of one configuration", cmd_eig, GRID_HELP, True, WEIGHT_FLAGS),
    "root": (
        "transcendental root for an interval weight", cmd_root, None, True,
        (
            ("--xi", float, "interval left endpoint (default 0)"),
            ("--delta", float, "interval length (default delta*)"),
        ),
    ),
    "locate": (
        "optimal interval location", cmd_locate, None, True,
        (("--delta", float, "interval length (default: policy)"),),
    ),
    "sweep": (
        "beta sweep of the optimal eigenvalue", cmd_sweep,
        "accepted and unused: every sweep row is a closed-form root", False,
        (("--sweep", None, "start:stop:points[:scale]"),),
    ),
    "rearrange": ("unimodal rearrangement of a weight", cmd_rearrange, GRID_HELP, True, WEIGHT_FLAGS),
    "verify": (
        "run the built-in property battery", cmd_verify, GRID_HELP, False,
        (("--seed", None, "hex seed for randomized checks"),),
    ),
}


def _add_boundary_flags(p: argparse.ArgumentParser) -> None:
    def beta(text: str) -> dict:  # the config's form of a Robin boundary
        return {"beta": float(text)}

    g = p.add_mutually_exclusive_group()
    g.add_argument("--beta", dest="boundary", metavar="BETA", type=beta, help="Robin coefficient")
    g.add_argument(
        "--dirichlet", dest="boundary", action="store_const", const="dirichlet", help="Dirichlet boundary"
    )
    g.add_argument(
        "--neumann", dest="boundary", action="store_const", const="neumann", help="Neumann boundary"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process."""
    parser = argparse.ArgumentParser(prog="drifteig", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, grid_help, boundary, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", dest="output", metavar="OUT", help="output directory (default out/)")
        if grid_help is not None:
            p.add_argument("--n", dest="grid_n", metavar="N", type=int, help=grid_help)
        p.add_argument("--params", help="override constants, e.g. alpha=0.2,kappa=1,m0=0.4")
        if boundary:
            _add_boundary_flags(p)
        for flag, type_, flag_help in flags:
            p.add_argument(flag, type=type_, help=flag_help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # the inputs were read in _resolve: this is an output that could not be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DriftEigError, ValueError) as exc:
        # args.output is checked and made: input errors are ConfigErrors
        error = {"error": type(exc).__name__, "detail": str(exc)}
        _write_json(os.path.join(args.output, "error.json"), error)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
