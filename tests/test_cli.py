"""Command-line interface: outputs, exit codes, determinism."""

import json
import math
import os

import pytest

from drifteig import DriftEigError, cli, eigensolve, transcend, weights

PI2 = math.pi**2


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
        assert set(meta) >= {"lambda", "beta", "alpha", "kappa", "n", "residual"}
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

    def test_root_satisfies_regime_equation(self, tmp_path, capsys):
        from drifteig import ModelParams, TranscendParams, regime_equations

        rc = cli.main(["root", "--beta", "1.0", "--out", str(tmp_path / "o")])
        assert rc == 0
        lam = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        tp = TranscendParams(params=ModelParams(0.2, 1.0, 0.4), delta=0.3)
        lhs, rhs = regime_equations(1.0, lam, tp)
        assert abs(lhs - rhs) <= 1e-8

    def test_abbreviated_flag_rejected(self, tmp_path, capsys):
        # "--n" must not be read as a prefix of "--neumann"
        with pytest.raises(SystemExit) as exc:
            cli.main(["root", "--n", "--out", str(tmp_path / "o")])
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


class TestVerify:
    def test_default_run_passes(self, tmp_path, capsys):
        rc = cli.main(["verify", "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert report["all_passed"] is True

    def test_coarse_grid_fails_discretization_property(self, tmp_path, capsys):
        rc = cli.main(["verify", "--n", "8", "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc != 0
        assert "FAIL discretization_agreement" in out

    def test_report_schema_stable(self, tmp_path, capsys):
        rc = cli.main(["verify", "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert rc == 0
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert sorted(report) == ["all_passed", "backend", "grid_n", "properties", "seed"]
        for prop in report["properties"]:
            assert sorted(prop) == ["detail", "margin", "name", "passed", "tolerance"]
        assert report["seed"] == hex(0xE16E)


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


class TestFailurePolicy:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["root", "--xi", "0.9"], 2),
            (["root", "--delta", "0"], 2),
            (["locate", "--delta", "1.5"], 2),
            (["root", "--params", "kappa=1800"], 2),
            (["sweep", "--sweep", "1:1:1", "--n", "2"], 4),
            (["eig", "--xi", "0.9"], 2),
            (["root", "--neumann", "--params", "alpha=1"], 3),
            (["root", "--dirichlet", "--xi", "0.2"], 3),
        ],
    )
    def test_exit_code(self, tmp_path, capsys, argv, code):
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == code
        assert (out / "error.json").exists() == (code == 3)

    def test_failed_dirichlet_row_in_sweep_json(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["sweep", "--sweep", "1:1:1", "--n", "2", "--out", str(out)]) == 4

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
            (transcend.RankDeficientError, RuntimeError),
            (transcend.TanPoleError, ValueError),
            (cli.ConfigError, ValueError),
        ],
    )
    def test_one_error_root(self, cls, base):
        assert issubclass(cls, DriftEigError) and issubclass(cls, base)
