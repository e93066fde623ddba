"""Config parsing, the sweep runner, SVG output, verify suites, and the CLI."""

import csv
import math
import os

import numpy as np
import pytest

from muonlab import ConfigError
from muonlab.cli import main
from muonlab.experiments import (
    kronecker_identity_gap,
    parse_config,
    preconditioner_report,
    run_experiment,
    verify,
)
from muonlab.svgplot import emit_svg_heatmap, emit_svg_plot

# random-init factorization at search rank k < d wants the per-iteration
# prefactor recipe with rho >= 2/3; faster decay stalls before the subspace
# aligns
SMALL_SWEEP = """
kind = mf_sweep
d = 8
r = 2
k = 2
kappa = 1, 5
algorithms = muon, gd
schedule = exponential
rho = 0.7
prefactor = per_iteration
T = 80
epsilon = 1e-9
epsilons = 1e-3, 1e-6
seed = 11
"""


class TestParseConfig:
    def test_paper_kappa_grid(self):
        cfg = parse_config("kind = mf_sweep\nkappa = 1,5,25,125,625\n")
        assert cfg.kappa == (1.0, 5.0, 25.0, 125.0, 625.0)

    def test_empty_file_all_defaults(self):
        cfg = parse_config("")
        assert (cfg.d, cfg.r, cfg.k) == (100, 2, 2)
        assert cfg.alpha == 0.1
        assert cfg.seed == 42
        assert cfg.replicates == 1

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nd = 12  # trailing\n")
        assert cfg.d == 12

    def test_rho_range_error(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config("rho = 1.5\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2.*mystery"):
            parse_config("d = 4\nmystery = 1\n")

    def test_unparsable_value(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("d = twelve\n")

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithms"):
            parse_config("algorithms = muon, sgd\n")


class TestRunExperiment:
    def test_deterministic_bytes(self, tmp_path):
        cfg = parse_config(SMALL_SWEEP)
        out1 = run_experiment(cfg, out_dir=str(tmp_path / "a"))
        cfg2 = parse_config(SMALL_SWEEP)
        out2 = run_experiment(cfg2, out_dir=str(tmp_path / "b"))
        assert len(out1.csv_paths) == 4  # 2 kappas x 2 algorithms
        assert len(out1.figure_paths) == 2  # one panel per algorithm
        for p1, p2 in zip(
            out1.csv_paths + out1.figure_paths + [out1.summary_path],
            out2.csv_paths + out2.figure_paths + [out2.summary_path],
        ):
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read()

    def test_summary_matches_trajectories(self, tmp_path):
        from muonlab.lowerbounds import first_hit_time

        cfg = parse_config(SMALL_SWEEP)
        out = run_experiment(cfg, out_dir=str(tmp_path))
        by_file = {}
        for path in out.csv_paths:
            with open(path, newline="") as fh:
                errors = [float(row["spectral_error"]) for row in csv.DictReader(fh)]
            by_file[os.path.basename(path)] = errors
        for row in out.summary_rows:
            name = f"mf_sweep_{row['algorithm']}_kappa{row['kappa']:g}_k{row['k']}_rep0.csv"
            errors = by_file[name]
            assert row["first_hit"] == first_hit_time(errors, row["epsilon"])
            assert row["final_error"] == errors[-1]

    def test_muon_sweep_is_condition_free(self, tmp_path):
        cfg = parse_config(SMALL_SWEEP)
        out = run_experiment(cfg, out_dir=str(tmp_path))
        hits = {
            row["kappa"]: row["first_hit"]
            for row in out.summary_rows
            if row["algorithm"] == "muon" and row["epsilon"] == 1e-6
        }
        assert max(hits.values()) <= 2.0 * min(hits.values())

    def test_divergence_writes_diagnostic_row(self, tmp_path):
        cfg = parse_config(
            "kind = mf_sweep\nd = 6\nr = 2\nk = 2\nkappa = 2\nalgorithms = gd\n"
            "schedule = exponential\neta0 = 1e12\nT = 30\n"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            out = run_experiment(cfg, out_dir=str(tmp_path))
        with open(out.csv_paths[0]) as fh:
            text = fh.read()
        assert text.strip().splitlines()[-1].endswith("nan,nan,nan,nan")
        assert all(math.isinf(row["first_hit"]) for row in out.summary_rows)

    def test_lower_bound_kind(self, tmp_path):
        cfg = parse_config("kind = lower_bound\nfamily = quadratic\nkappa = 21\nT = 300\n")
        out = run_experiment(cfg, out_dir=str(tmp_path))
        row = out.summary_rows[0]
        assert row["satisfied"]
        assert row["first_hit"] >= row["bound"]


class TestSvg:
    def test_single_series_polyline(self, tmp_path):
        path = str(tmp_path / "p.svg")
        text = emit_svg_plot({"loss": ([0, 1, 2], [1.0, 0.1, 0.01])}, path=path)
        assert text.count("<polyline") == 1
        with open(path) as fh:
            assert fh.read() == text

    def test_five_series_legend(self):
        series = {f"kappa={k}": ([0, 1], [1.0, 0.5]) for k in (1, 5, 25, 125, 625)}
        text = emit_svg_plot(series)
        assert text.count("<polyline") == 5
        for k in (1, 5, 25, 125, 625):
            assert f"kappa={k}" in text

    def test_byte_identical(self):
        series = {"a": ([0, 1, 2], [3.0, 2.0, 1.0])}
        assert emit_svg_plot(series) == emit_svg_plot(series)

    def test_nonpositive_clamped_with_warning(self):
        text = emit_svg_plot({"a": ([0, 1], [1.0, 0.0])})
        assert "clamped" in text

    def test_heatmap_deterministic(self):
        m = [[1.0, -0.5], [0.25, 0.0]]
        assert emit_svg_heatmap(m) == emit_svg_heatmap(m)


class TestPreconditionerReport:
    def test_structure(self, tmp_path):
        rep = preconditioner_report(
            d=6, r=3, k=3, alpha=1e-10, steps=(0, 20), seed=5, out_dir=str(tmp_path)
        )
        assert len(rep.heatmap_paths) == 4
        for block in rep.muon_blocks + rep.scaledgd_blocks:
            assert np.abs(block - block.T).max() <= 1e-12
            assert np.linalg.eigvalsh(block)[0] >= -1e-10 * max(
                np.linalg.eigvalsh(block)[-1], 1e-300
            )
        # at t=0 the ScaledGD block is alpha^2 * I (Gram of a scaled orthonormal init)
        assert np.abs(rep.scaledgd_blocks[0] - 1e-20 * np.eye(3)).max() <= 1e-22

    def test_defaults_are_the_precond_viz_config(self, tmp_path):
        preconditioner_report(out_dir=str(tmp_path / "lib"))
        run_experiment(parse_config("kind = precond_viz"), str(tmp_path / "cfg"))
        written = sorted(os.listdir(tmp_path / "lib"))
        assert len(written) == 7
        for name in written:
            assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "cfg" / name).read_bytes()

    def test_kronecker_identity(self):
        assert kronecker_identity_gap(d=4, k=2) <= 1e-12


class TestVerify:
    def test_oracle_suite_passes(self):
        report = verify("oracle")
        assert report.passed
        assert report.lines[0].startswith("SUITE oracle PASS")

    def test_unknown_suite(self):
        from muonlab import PreconditionError

        with pytest.raises(PreconditionError):
            verify("nonsense")

    def test_fault_injection_fails_msign_suite(self, monkeypatch):
        import muonlab.experiments as exp

        monkeypatch.setattr(exp, "msign_exact", lambda z: np.zeros_like(np.asarray(z)))
        report = exp.verify("msign")
        assert not report.passed
        assert report.lines[0].startswith("SUITE msign FAIL")


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_SWEEP)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert "summary.csv" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("rho = 1.5\n")
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_lower_bound_subcommand(self, tmp_path, capsys):
        code = main(
            ["lower-bound", "--family", "quadratic", "--kappa", "21", "--T", "300",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_precond_viz_subcommand(self, tmp_path, capsys):
        code = main(
            ["precond-viz", "--d", "6", "--r", "3", "--k", "3", "--steps", "0,10",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert len(list(tmp_path.glob("*.svg"))) == 4

    def test_precond_viz_rejects_negative_step(self, tmp_path, capsys):
        code = main(["precond-viz", "--d", "6", "--r", "3", "--k", "3", "--steps=-1,10",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "steps must be nonnegative" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_run_verify_kind(self, tmp_path, capsys):
        cfg_path = tmp_path / "verify.cfg"
        cfg_path.write_text("kind = verify\nsuite = gradients\n")
        assert main(["run", "--config", str(cfg_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("SUITE")] == lines
        assert len(lines) == 1 and lines[0].startswith("SUITE gradients PASS")

    def test_run_overflowed_iterate_writes_diagnostic_row(self, tmp_path):
        cfg_path = tmp_path / "diverge.cfg"
        cfg_path.write_text(
            "d = 8\nk = 2\nkappa = 5\nalgorithms = gd\neta0 = 1e308\nalpha = 3\nT = 20\n"
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        (csv_path,) = out.glob("mf_sweep_gd_*.csv")
        assert csv_path.read_text().endswith("\n1,nan,nan,nan,nan\n")

    def test_verify_subcommand(self, capsys):
        assert main(["verify", "--suite", "gradients"]) == 0
        assert "SUITE gradients PASS" in capsys.readouterr().out
