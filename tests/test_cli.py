"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os

import pytest

from drifteig import DriftEigError, ModelParams, cli, eigensolve, transcend, weights

PI2 = math.pi**2
COMMANDS = ("eig", "root", "locate", "sweep", "rearrange", "verify")


def _weight_file(tmp_path, breakpoints, values):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"breakpoints": breakpoints, "values": values}))
    return str(path)


class TestEig:
    def test_constant_dirichlet_prints_pi_squared(self, tmp_path, capsys):
        wf = _weight_file(tmp_path, [0.0, 1.0], [1.0])
        rc = cli.main(
            ["eig", "--dirichlet", "--weight", wf, "--n", "2000", "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lam = float(out.split("lambda=")[1])
        assert lam == pytest.approx(PI2, rel=1e-3)
        meta = json.loads((tmp_path / "o" / "eigenpair.json").read_text())
        assert set(meta) == {"lambda", "beta", "alpha", "kappa", "n", "residual", "max_phi", "probes"}
        assert type(meta["probes"]) is int and meta["probes"] > 0
        csv = (tmp_path / "o" / "eigenpair.csv").read_text()
        assert csv.startswith("x,phi\n")

    def test_neumann_zero_regime_message(self, tmp_path, capsys):
        wf = _weight_file(tmp_path, [0.0, 1.0], [1.0])
        rc = cli.main(["eig", "--neumann", "--weight", wf, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "lambda=0 (zero regime)" in capsys.readouterr().out

    def test_matches_root_command(self, tmp_path, capsys):
        out1 = str(tmp_path / "a")
        rc = cli.main(["eig", "--beta", "1.0", "--xi", "0.0", "--delta", "0.3", "--n", "4000", "--out", out1])
        assert rc == 0
        lam_grid = float(capsys.readouterr().out.split("lambda=")[1])
        rc = cli.main(["root", "--beta", "1.0", "--xi", "0.0", "--delta", "0.3", "--out", str(tmp_path / "b")])
        assert rc == 0
        lam_root = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert lam_grid == pytest.approx(lam_root, rel=1e-4)

    def test_config_bangbang_weight_matches_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weight": {"bangbang": {"xi": 0.1, "delta": 0.3}}}))
        lams = []
        for argv in (["--config", str(cfg)], ["--xi", "0.1", "--delta", "0.3"]):
            assert cli.main(["eig", *argv, "--out", str(tmp_path / "o")]) == 0
            lams.append(float(capsys.readouterr().out.split("lambda=")[1]))
        assert lams == [10.546258833995697, 10.546258833995697]

    def test_solver_error_exit_code(self, tmp_path, capsys):
        wf = _weight_file(tmp_path, [0.0, 1.0], [-0.5])
        rc = cli.main(["eig", "--beta", "1.0", "--weight", wf, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert (tmp_path / "o" / "error.json").exists()


class TestRoot:
    def test_prints_beta_crit(self, tmp_path, capsys):
        rc = cli.main(["root", "--beta", "1.0", "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        bcrit = float(out.split("beta_crit=")[1])
        assert bcrit == pytest.approx(3.2232, abs=1e-3)

    def test_dirichlet_edge_interval(self, tmp_path, capsys):
        rc = cli.main(["root", "--dirichlet", "--xi", "0.0", "--out", str(tmp_path / "o")])
        assert rc == 0
        lam = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        data = json.loads((tmp_path / "o" / "root.json").read_text())
        assert data["lambda_first"] == lam
        assert lam == pytest.approx(51.90541829, rel=1e-8)

    def test_dirichlet_off_edge_interval(self, tmp_path, capsys):
        rc = cli.main(["root", "--dirichlet", "--xi", "0.2", "--out", str(tmp_path / "o")])
        assert rc == 0
        lam = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert lam == pytest.approx(20.32384177505033, rel=1e-12)

    def test_dirichlet_huge_jump_coefficient(self, tmp_path, capsys):
        # sqrt(kappa) e^{alpha (kappa + 1)} ~ 1e23: the root sits a hair above
        # sqrt(lam kappa) delta = pi/2, where a tan bracket starting at
        # pi/2 + 1e-9 has no sign change
        argv = ["root", "--dirichlet", "--params", "alpha=1,kappa=50", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
        lam = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        delta = 0.6 / 51.0  # delta* at the default m0 = 0.4
        assert lam == pytest.approx((0.5 * math.pi / (math.sqrt(50.0) * delta)) ** 2, rel=1e-12)

    def test_root_satisfies_regime_equation(self, tmp_path, capsys):
        from drifteig import ModelParams, TranscendParams, regime_equations

        rc = cli.main(["root", "--beta", "1.0", "--out", str(tmp_path / "o")])
        assert rc == 0
        lam = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        tp = TranscendParams(params=ModelParams(0.2, 1.0, 0.4), delta=0.3)
        lhs, rhs = regime_equations(1.0, lam, tp)
        assert abs(lhs - rhs) <= 1e-8

    def test_abbreviated_flag_rejected(self, tmp_path, capsys):
        # neither command has --n, which must not be read as a prefix of "--neumann"
        for command in ("root", "locate"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--n", "--out", str(tmp_path / "o")])
            assert exc.value.code == 2
            assert "--n" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()


class TestSweep:
    def test_single_beta_consistent_with_eig(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--sweep", "1.0:1.0:1", "--out", str(tmp_path / "o")])
        assert rc == 0
        capsys.readouterr()
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "beta,lambda_star,xi_star,regime,mass_active"
        assert len(lines) == 3  # one grid row plus the Dirichlet reference
        row = lines[1].split(",")
        rc = cli.main(["eig", "--beta", "1.0", "--xi", "0.0", "--delta", "0.3", "--n", "4000", "--out", str(tmp_path / "e")])
        assert rc == 0
        lam_eig = float(capsys.readouterr().out.split("lambda=")[1])
        assert float(row[1]) == pytest.approx(lam_eig, rel=1e-4)

    def test_empty_grid_rejected(self, tmp_path):
        assert cli.main(["sweep", "--sweep", "1:2:0", "--out", str(tmp_path / "o")]) == 2

    def test_unused_n_is_not_checked(self, tmp_path):
        # sweep solves no grid, so its --n is parsed and never validated
        assert cli.main(["sweep", "--sweep", "1:1:1", "--n", "1", "--out", str(tmp_path / "o")]) == 0

    def test_bad_spec_rejected(self, tmp_path):
        assert cli.main(["sweep", "--sweep", "oops", "--out", str(tmp_path / "o")]) == 2
        assert cli.main(["sweep", "--sweep", "a:b:3", "--out", str(tmp_path / "o")]) == 2

    def test_regime_switch_appears(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--sweep", "0.5:8.0:6", "--out", str(tmp_path / "o")])
        assert rc == 0
        capsys.readouterr()
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:-1]
        regimes = [line.split(",")[3] for line in lines]
        assert "BoundaryLeft" in regimes and "Centered" in regimes
        assert regimes == sorted(regimes, key=lambda r: r != "BoundaryLeft")

    def test_finite_rows_with_roots_below_lambda_1e8(self, tmp_path, capsys):
        # a large jump e^{alpha (kappa+1)} puts the centered roots near 1e-22;
        # the references are 80-digit mpmath roots of the literal F, and of
        # the literal F / beta^2 for the Dirichlet row, which no grid resolves
        argv = ["sweep", "--sweep", "1:10:2", "--params", "alpha=1,kappa=50"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        assert [(r[0], r[3], r[4]) for r in rows] == [
            ("1.0", "Centered", "True"),
            ("10.0", "Centered", "True"),
            ("inf", "Centered", "True"),
        ]
        assert float(rows[0][1]) == pytest.approx(2.798688357671525085386597e-22, rel=1e-12)
        assert float(rows[1][1]) == pytest.approx(4.544049366353712490656865e-22, rel=1e-12)
        assert float(rows[2][1]) == pytest.approx(4.882361983095903629250345e-22, rel=1e-12)
        assert json.loads((tmp_path / "o" / "sweep.json").read_text())["failures"] == []

    def test_config_linear_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"sweep": {"start": 1.0, "stop": 3.0, "points": 3, "scale": "linear"}})
        )
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["1.0", "2.0", "3.0", "inf"]

    def test_default_sweep_spec(self, tmp_path, capsys):
        # 0.1:30:60:log plus the Dirichlet row
        assert cli.main(["sweep", "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
        assert len(lines) == 61
        assert float(lines[0].split(",")[0]) == pytest.approx(0.1, rel=1e-12)
        assert float(lines[59].split(",")[0]) == pytest.approx(30.0, rel=1e-12)

    def test_deterministic_output(self, tmp_path, capsys):
        for sub in ("r1", "r2"):
            rc = cli.main(["sweep", "--sweep", "0.5:8.0:7", "--out", str(tmp_path / sub)])
            assert rc == 0
        capsys.readouterr()
        a = (tmp_path / "r1" / "sweep.csv").read_bytes()
        b = (tmp_path / "r2" / "sweep.csv").read_bytes()
        assert a == b
        pa = (tmp_path / "r1" / "sweep_plot.dat").read_text().splitlines()
        assert all(len(line.split()) == 2 for line in pa)


class TestLocate:
    def test_boundary_and_centered(self, tmp_path, capsys):
        rc = cli.main(["locate", "--beta", "1.0", "--out", str(tmp_path / "a")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regime=BoundaryLeft" in out
        rc = cli.main(["locate", "--beta", "10.0", "--out", str(tmp_path / "b")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regime=Centered" in out
        data = json.loads((tmp_path / "b" / "optimum.json").read_text())
        assert data["xi_star"] == pytest.approx(0.35, abs=1e-6)
        assert data["mass_active"] is True

    def test_given_delta(self, tmp_path, capsys):
        rc = cli.main(["locate", "--neumann", "--delta", "0.3", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "regime=BoundaryLeft" in capsys.readouterr().out
        data = json.loads((tmp_path / "o" / "optimum.json").read_text())
        assert (data["beta"], data["delta"], data["xi_star"]) == (0.0, 0.3, 0.0)
        assert data["lambda_star"] == pytest.approx(2.8542159597419503, rel=1e-12)

    def test_thin_interval_dirichlet_row(self, tmp_path, capsys):
        # delta* = 7.5e-4 is 1.5 cells at n = 2000, which the closed-form
        # Dirichlet row does not need
        argv = ["sweep", "--sweep", "1:1000:3", "--params", "alpha=0.01,kappa=800"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert len((tmp_path / "o" / "sweep.csv").read_text().splitlines()) == 5

    def test_unconverged_root_exits_3(self, tmp_path, capsys):
        # one length of the scan has its root below S_FLOOR^2, where the root
        # search stops: a typed solver error, so exit 3 with error.json and no
        # traceback
        params = "alpha=5.564543571747359,kappa=48.39791318673609,m0=0.03411805276675452"
        argv = ["locate", "--beta", "1.0185061675060684e-122", "--params", params]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 3
        assert "F is not positive" in capsys.readouterr().err
        error = json.loads((tmp_path / "o" / "error.json").read_text())
        assert error["error"] == "RootNotFoundError"

    def test_large_kappa_above_critical(self, tmp_path):
        # the sufficient condition evaluates beta_crit at alpha = 1/2, where
        # 2 alpha (kappa + 1) = 801 is beyond what ModelParams accepts
        rc = cli.main(["locate", "--beta", "1000", "--params", "alpha=0.01,kappa=800", "--out", str(tmp_path / "o")])
        assert rc == 0
        data = json.loads((tmp_path / "o" / "optimum.json").read_text())
        assert data["regime"] == "Centered"
        assert data["mass_active"] is True


class TestRearrange:
    def test_reports_both_eigenvalues(self, tmp_path, capsys):
        wf = _weight_file(
            tmp_path, [0.0, 0.2, 0.45, 0.7, 1.0], [1.0, -1.0, 0.8, -1.0]
        )
        rc = cli.main(["rearrange", "--beta", "1.0", "--weight", wf, "--n", "1000", "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        before = float(out.split("lambda_before=")[1].splitlines()[0])
        after = float(out.split("lambda_after=")[1].splitlines()[0])
        assert after <= before + 1e-6
        assert (tmp_path / "o" / "rearranged.json").exists()

    def test_each_weight_solved_once(self, tmp_path, capsys, monkeypatch):
        # the rearrangement takes the eigenpair of the "before" solve, so
        # the command and verify's checks solve each weight object once (an
        # already unimodal weight's rearrangement is a new, equal object)
        solves = []
        solve = eigensolve.principal_eigenvalue

        def counted(m, params, bc, disc):
            solves.append(m)  # kept alive, so no two of them share an id
            return solve(m, params, bc, disc)

        monkeypatch.setattr(eigensolve, "principal_eigenvalue", counted)
        wf = _weight_file(tmp_path, [0.0, 0.2, 0.45, 0.7, 1.0], [1.0, -1.0, 0.8, -1.0])
        assert cli.main(["rearrange", "--beta", "1.0", "--weight", wf, "--out", str(tmp_path / "o")]) == 0
        assert len(solves) == len({id(m) for m in solves}) == 2
        solves.clear()
        rows = cli._verify_properties(ModelParams(0.2, 1.0, 0.4), 200, 0xE16E)
        assert next(r for r in rows if r["name"] == "rearrangement_monotonicity")["passed"]
        assert len(solves) == len({id(m) for m in solves}) >= 2 * 12
        capsys.readouterr()

    def test_neumann_zero_regime_message(self, tmp_path, capsys):
        wf = _weight_file(tmp_path, [0.0, 1.0], [1.0])
        rc = cli.main(["rearrange", "--neumann", "--weight", wf, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "lambda=0 (zero regime)" in capsys.readouterr().out


class TestVerify:
    def test_default_run_passes(self, tmp_path, capsys):
        rc = cli.main(["verify", "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert report["all_passed"] is True

    def test_high_contrast_run_passes(self, tmp_path, capsys):
        # above alpha = 1/2 the rearrangement row is not applicable and
        # passes with margin 0; its 12 draws still come first, so the other
        # rows check the weights they check at any alpha
        with pytest.warns(UserWarning, match="no longer guaranteed"):
            rc = cli.main(["verify", "--params", "alpha=1.5,kappa=5,m0=0.2", "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert rc == 0
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        rows = {r["name"]: r for r in report["properties"]}
        assert rows["rearrangement_monotonicity"]["margin"] == 0.0
        assert rows["rearrangement_monotonicity"]["detail"].startswith("not applicable above alpha = 0.5")
        assert rows["discretization_agreement"]["margin"] <= 1e-9

    def test_coarse_grid_fails_discretization_property(self, tmp_path, capsys):
        rc = cli.main(["verify", "--n", "8", "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc != 0
        assert "FAIL discretization_agreement" in out

    @pytest.mark.parametrize("argv", [[], ["--n", "8"]], ids=["default", "n8"])
    def test_each_row_passes_by_its_own_margin(self, tmp_path, capsys, argv):
        cli.main(["verify", *argv, "--out", str(tmp_path / "o")])
        capsys.readouterr()
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        for prop in report["properties"]:
            # a crashed check reports the string "nan", which passes no bound
            within = isinstance(prop["margin"], float) and prop["margin"] <= prop["tolerance"]
            assert prop["passed"] is within, prop["name"]

    def test_grid_value_below_the_root_fails(self, monkeypatch):
        # a grid lambda is a Rayleigh quotient, at or above the root: one
        # 1e-5 relative below it fails the row, though its size is within 1e-4
        solve = eigensolve.principal_eigenvalue

        def below(m, params, bc, disc):
            pair = solve(m, params, bc, disc)
            return dataclasses.replace(pair, lam=pair.lam * (1.0 - 1e-5))

        monkeypatch.setattr(eigensolve, "principal_eigenvalue", below)
        rows = cli._verify_properties(ModelParams(0.2, 1.0, 0.4), 2000, 0xE16E)
        row = next(r for r in rows if r["name"] == "discretization_agreement")
        assert (row["passed"], row["margin"]) == (False, "nan")
        assert "below the root: signed gap -9." in row["detail"], row

    @pytest.mark.filterwarnings("ignore:alpha = 1.5 > 0.5:UserWarning")
    @pytest.mark.parametrize("injected", [0.0, 1e-10])
    def test_equimeasurability_relative_to_the_weights_terms(self, monkeypatch, injected):
        # at (1.5, 5, 0.2) the defect reaches 1.26e-13 in absolute terms,
        # the rounding of lengths carried through e^{alpha v} up to
        # kappa e^{alpha kappa} ~ 9000; relative to int |m| e^{alpha m} it
        # passes, and a level set 1e-10 off still fails
        level, calls = cli.rearrange.level_set_length, itertools.count()

        def level_off(pieces, c):  # the rearranged weight's level sets come first
            return level(pieces, c) + (injected if next(calls) % 2 == 0 else 0.0)

        monkeypatch.setattr(cli.rearrange, "level_set_length", level_off)
        rows = cli._verify_properties(ModelParams(1.5, 5.0, 0.2), 2000, 0xE16E)
        row = next(r for r in rows if r["name"] == "equimeasurability")
        assert row["passed"] is (injected == 0.0), row

    def test_report_schema_stable(self, tmp_path, capsys):
        rc = cli.main(["verify", "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert rc == 0
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert sorted(report) == ["all_passed", "backend", "grid_n", "properties", "seed"]
        for prop in report["properties"]:
            assert sorted(prop) == ["detail", "margin", "name", "passed", "tolerance"]
        assert report["seed"] == hex(0xE16E)


    def test_hex_seed_flag_and_integer_config_seed(self, tmp_path, capsys):
        assert cli.main(["verify", "--n", "200", "--seed", "ff", "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "verify_report.json").read_text())
        assert report["seed"] == "0xff"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 255, "grid_n": 200}))
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert (tmp_path / "b" / "verify_report.json").read_bytes() == (
            tmp_path / "a" / "verify_report.json"
        ).read_bytes()


class TestConfig:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "params": {"alpha": 0.0, "kappa": 1.0, "m0": 0.4},
                    "boundary": "dirichlet",
                    "weight": {"breakpoints": [0.0, 1.0], "values": [1.0]},
                    "grid_n": 500,
                }
            )
        )
        rc = cli.main(["eig", "--config", str(cfg), "--n", "2000", "--out", str(tmp_path / "o")])
        assert rc == 0
        meta = json.loads((tmp_path / "o" / "eigenpair.json").read_text())
        assert meta["n"] == 2000  # flag wins over file
        assert meta["alpha"] == 0.0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for bad in ({"params": {}, "mystery": 1}, {"tolerances": {}}):
            cfg.write_text(json.dumps(bad))
            assert cli.main(["eig", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_bad_params_flag_rejected(self, tmp_path):
        assert cli.main(["eig", "--params", "alpha=oops", "--out", str(tmp_path / "o")]) == 2
        assert cli.main(["eig", "--params", "gamma=1", "--out", str(tmp_path / "o")]) == 2
        assert cli.main(["eig", "--params", "m0=1.7", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["root", "sweep"])
    def test_integer_config_params_write_floats(self, tmp_path, capsys, command):
        # the config's 0 and 1 are stored as floats, so the outputs match the flag run's
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"alpha": 0, "kappa": 1, "m0": 0.4}}))
        extra = ["--sweep", "0.5:2:2"] if command == "sweep" else []
        runs = (["--config", str(cfg)], ["--params", "alpha=0,kappa=1,m0=0.4"])
        for sub, argv in zip(("c", "f"), runs):
            assert cli.main([command, *extra, *argv, "--out", str(tmp_path / sub)]) == 0
        capsys.readouterr()
        for name in os.listdir(tmp_path / "f"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "f" / name).read_bytes()
        text = (tmp_path / "c" / f"{command}.json").read_text()
        assert '"alpha": 0.0' in text and '"kappa": 1.0' in text

    def test_params_flag_applies(self, tmp_path, capsys):
        wf = _weight_file(tmp_path, [0.0, 1.0], [1.0])
        rc = cli.main(
            [
                "eig",
                "--dirichlet",
                "--weight",
                wf,
                "--params",
                "alpha=0.0,kappa=2.0,m0=0.3",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        meta = json.loads((tmp_path / "o" / "eigenpair.json").read_text())
        assert meta["kappa"] == 2.0

    def test_output_files_written_atomically(self, tmp_path, capsys):
        rc = cli.main(["root", "--beta", "1.0", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path / "o"))


class TestParser:
    def test_every_flag_is_stored_under_its_config_key(self):
        # a flag either overrides the config key it is stored under or is
        # one of the few with no config counterpart
        flag_only = {"config", "xi", "delta", "func", "command"}
        for command in COMMANDS:
            dests = set(vars(cli.build_parser().parse_args([command])))
            assert dests <= set(cli.DEFAULTS) | flag_only, command

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_cleanly(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


# per command: valid flags and a flag with a bad value
PARSE_CASES = {
    "eig": (["--beta", "2", "--xi", "0.1", "--n", "40", "--out", "o"], ["--n", "many"]),
    "root": (["--dirichlet", "--xi", "0.1", "--params", "alpha=0.3"], ["--beta", "steep"]),
    "locate": (["--neumann", "--delta", "0.2", "--config", "c.json"], ["--delta", "wide"]),
    "sweep": (["--sweep", "0.1:30.0:60:log", "--n", "2000", "--out", "o"], ["--n", "2.5"]),
    "rearrange": (["--beta", "1", "--weight", "w.json"], ["--xi", "left"]),
    "verify": (["--seed", "0xe16e", "--n", "50"], ["--n", ""]),
}


def _parse_argvs():
    yield from ([], ["nope"], ["-h"], ["--out", "o", "root"])
    for command, (valid, bad) in PARSE_CASES.items():
        for rest in (valid, ["-h"], ["--bogus"], bad, ["--beta", "1", "--dirichlet"]):
            yield [command, *rest]


class _Parsed(Exception):
    """Stops main after parsing, before any input is read."""


class TestOneParser:
    def _run(self, monkeypatch, argv):
        """(exit code, stdout, stderr, namespace) of main(argv) up to its first read."""
        parsed = {}

        def resolve(args):
            parsed.update(vars(args))
            raise _Parsed

        monkeypatch.setattr(cli, "_resolve", resolve)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except _Parsed:
                code = "parsed"
        return code, out.getvalue(), err.getvalue(), parsed

    @pytest.mark.parametrize("argv", list(_parse_argvs()), ids=" ".join)
    def test_same_outcome_on_a_used_parser(self, monkeypatch, argv):
        # the parser is built once per process and keeps nothing from one
        # parse to the next: after every case has run on it, a case gives
        # what it gives on a freshly built parser
        cli.build_parser.cache_clear()
        fresh = self._run(monkeypatch, argv)
        for other in _parse_argvs():
            self._run(monkeypatch, other)
        assert self._run(monkeypatch, argv) == fresh

    def test_cases_reach_every_outcome(self, monkeypatch):
        # the cases parse, print help and fail to parse on every command
        outcomes = {
            (argv[0], self._run(monkeypatch, argv)[0])
            for argv in _parse_argvs()
            if argv and argv[0] in COMMANDS
        }
        assert outcomes == {(c, code) for c in COMMANDS for code in ("parsed", 0, 2)}

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["sweep", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command"),
            (["nope"], "argument command: invalid choice: 'nope' (choose from "),
        ],
        ids=["unrecognized", "required", "invalid_choice"],
    )
    def test_top_level_usage_and_errors(self, monkeypatch, argv, error):
        code, _, err, _ = self._run(monkeypatch, argv)
        assert code == 2
        usage = "usage: drifteig [-h] {eig,root,locate,sweep,rearrange,verify} ...\n"
        assert err.startswith(f"{usage}drifteig: error: {error}")

    def test_parser_survives_a_failed_parse(self, tmp_path, capsys):
        # main parses with one parser per process: a call after a parse
        # error writes what a call on a freshly built parser writes
        def sweep(out):
            argv = ["sweep", "--sweep", "0.1:30.0:60:log", "--params", "alpha=0.2,kappa=1.0,m0=0.4"]
            assert cli.main([*argv, "--n", "2000", "--out", str(out)]) == 0

        cli.build_parser.cache_clear()
        sweep(tmp_path / "fresh")
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--bogus"])
        assert exc.value.code == 2
        sweep(tmp_path / "again")
        capsys.readouterr()
        names = sorted(os.listdir(tmp_path / "fresh"))
        assert names == ["sweep.csv", "sweep.json", "sweep_plot.dat"]
        assert names == sorted(os.listdir(tmp_path / "again"))
        for name in names:
            assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()
        assert cli.build_parser() is cli.build_parser()


class TestAtomicWrite:
    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            cli._atomic_write(str(tmp_path / "a.json"), "{}\n")
        assert os.listdir(tmp_path) == []

    def test_output_file_that_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "sweep.csv").mkdir(parents=True)
        # the output path is an input: exit 2 with one line naming it, and
        # no error.json written beside the file that refused the write
        assert cli.main(["sweep", "--sweep", "1:2:2", "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out / "sweep.csv") in err and "Traceback" not in err
        assert sorted(os.listdir(out)) == ["sweep.csv"]
        assert os.listdir(out / "sweep.csv") == []


class TestFailurePolicy:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["root", "--xi", "0.9"], 2),
            (["root", "--delta", "0"], 2),
            (["locate", "--delta", "1.5"], 2),
            (["root", "--params", "kappa=1800"], 2),
            (["sweep", "--sweep", "1:1:1"], 4),  # with a failing Dirichlet root
            (["eig", "--xi", "0.9"], 2),
            (["root", "--neumann", "--params", "alpha=1"], 3),
            (["root", "--dirichlet", "--xi", "0.2"], 0),
            (["root", "--params", "kappa=1e-300"], 2),
            (["root", "--beta", "1", "--delta", "1e-170"], 2),
        ],
    )
    def test_exit_code(self, tmp_path, capsys, request, argv, code):
        if code == cli.EXIT_PARTIAL:
            request.getfixturevalue("failing_dirichlet_root")
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == code
        assert (out / "error.json").exists() == (code == 3)

    @pytest.mark.parametrize(
        "argv, config",
        [
            *[pytest.param([c], {"params": {"alpha": "x"}}, id=f"{c}-params") for c in COMMANDS],
            pytest.param(["eig"], {"boundary": {"beta": [1]}}, id="boundary-list"),
            pytest.param(["sweep"], {"sweep": 5}, id="sweep-number"),
            pytest.param(["verify"], {"seed": [1]}, id="seed-list"),
            pytest.param(["verify"], {"seed": 1.7}, id="seed-float"),
            pytest.param(["verify"], {"seed": True}, id="seed-bool"),
            pytest.param(["sweep"], {"sweep": {"start": 1, "stop": 2, "points": 2.7}}, id="sweep-points-float"),
            pytest.param(["sweep"], {"sweep": {"start": 1, "stop": 2, "points": True}}, id="sweep-points-bool"),
            pytest.param(["root"], {"boundary": {"beta": True}}, id="boundary-bool"),
            pytest.param(["root"], {"params": {"alpha": True, "kappa": 1, "m0": 0.4}}, id="params-bool"),
            pytest.param(["eig", "--weight", "w.json"], None, id="weight-bool"),
            pytest.param(["verify", "--seed", "-1"], None, id="seed-negative"),
            pytest.param(["sweep", "--sweep", "1:inf:3"], None, id="sweep-inf"),
            pytest.param(["sweep", "--sweep", "1:nan:3"], None, id="sweep-nan"),
            pytest.param(["sweep", "--sweep", "1:2:3:cubic"], None, id="sweep-scale"),
            pytest.param(["sweep"], {"sweep": {"start": 1, "stop": 2, "step": 1}}, id="sweep-key"),
            pytest.param(["eig"], [1], id="config-list"),
            pytest.param(["eig", "--params", "alpha"], None, id="params-flag"),
            pytest.param(["eig"], {"boundary": "robin"}, id="boundary-name"),
            pytest.param(["eig"], {"weight": {"bangbang": [1]}}, id="weight-shape"),
            pytest.param(["eig"], {"grid_n": "500"}, id="grid-text"),
        ],
    )
    def test_malformed_input_rejected(self, tmp_path, capsys, argv, config):
        # exit 2 from the one input boundary: no traceback, no error.json
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        if "w.json" in argv:
            argv[argv.index("w.json")] = _weight_file(tmp_path, [0.0, True], [1.0])
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (out / "error.json").exists()

    @pytest.mark.parametrize("m0", [0.4, 1.0 - 2.0**-53])
    @pytest.mark.parametrize(
        "argv", [["root", "--beta", "1"], ["locate", "--beta", "1"], ["sweep", "--sweep", "0.1:30:5"]]
    )
    def test_smallest_kappa_finite_or_typed(self, tmp_path, capsys, argv, m0):
        # at the floor F's terms in the root search stay finite (the suite turns
        # numpy's overflow warnings into errors): a result or a typed exit
        out = tmp_path / "o"
        params = f"kappa={weights.KAPPA_MIN!r},m0={m0!r}"
        rc = cli.main(argv + ["--params", params, "--out", str(out)])
        assert rc in (0, 3, 4)
        written = "".join(path.read_text() for path in out.iterdir())
        assert not any(bad in written for bad in ("nan", "NaN", "Infinity"))

    def test_output_path_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        assert cli.main(["root", "--beta", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_boundary_flags_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["root", "--beta", "1", "--dirichlet", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_dirichlet_row_in_sweep_json(self, tmp_path, capsys, failing_dirichlet_root):
        out = tmp_path / "o"
        assert cli.main(["sweep", "--sweep", "1:1:1", "--out", str(out)]) == 4

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        summary = json.loads((out / "sweep.json").read_text(), parse_constant=reject)
        assert [f["beta"] for f in summary["failures"]] == ["inf"]
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "cls, base",
        [
            (weights.SearchSpaceError, ValueError),
            (eigensolve.AssemblyError, RuntimeError),
            (eigensolve.BracketError, RuntimeError),
            (eigensolve.SolverError, RuntimeError),
            (transcend.RootNotFoundError, RuntimeError),
            (transcend.TanPoleError, ValueError),
            (transcend.NonFiniteError, ValueError),
            (cli.ConfigError, ValueError),
        ],
    )
    def test_one_error_root(self, cls, base):
        assert issubclass(cls, DriftEigError) and issubclass(cls, base)
