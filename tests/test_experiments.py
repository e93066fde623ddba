"""Config parsing, the sweep runner, SVG output, verify suites, and the CLI."""

import csv
import itertools
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muonlab import ConfigError, RandomStream
from muonlab.cli import main
from muonlab.experiments import (
    CSV_HEADER,
    kronecker_identity_gap,
    parse_config,
    preconditioner_report,
    run_experiment,
    scaled_orthonormal_init,
    verify,
    write_records_csv,
    write_text,
)
from muonlab.optimizers import TrajectoryRecord
from muonlab.svgplot import emit_svg_heatmap, emit_svg_plot

ROOT = Path(__file__).resolve().parent.parent

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

    def test_over_parameterized_sweep_writes_a_full_summary(self, tmp_path):
        # k > d: the start has orthonormal rows and the errors take the dense path
        cfg_path = tmp_path / "wide.cfg"
        cfg_path.write_text("kind = mf_sweep\nd = 6\nr = 2\nk = 9\nkappa = 1, 4\n"
                            "algorithms = muon, signgd, gd\nT = 60\nepsilons = 1e-3, 1e-6\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        cells = itertools.product(["muon", "signgd", "gd"], [1.0, 4.0], [1e-3, 1e-6])
        assert sorted((r["algorithm"], float(r["kappa"]), float(r["epsilon"])) for r in rows) == sorted(cells)
        assert {r["k"] for r in rows} == {"9"} and all(int(r["iterations"]) > 0 for r in rows)
        assert len(list(out.glob("mf_sweep_*_k9_rep0.csv"))) == 6

    @pytest.mark.parametrize("d, k", [(1, 4), (3, 5), (6, 9)])
    def test_wide_init_has_orthonormal_rows(self, d, k):
        u = scaled_orthonormal_init(RandomStream(d * k), d, k, 0.3)
        assert u.shape == (d, k)
        np.testing.assert_allclose(u @ u.T, 0.09 * np.eye(d), rtol=0, atol=1e-15)

    def test_divergence_writes_diagnostic_row(self, tmp_path):
        cfg = parse_config(
            "kind = mf_sweep\nd = 6\nr = 2\nk = 2\nkappa = 2\nalgorithms = gd\n"
            "schedule = exponential\neta0 = 1e12\nT = 30\n"
        )
        out = run_experiment(cfg, out_dir=str(tmp_path))
        with open(out.csv_paths[0]) as fh:
            text = fh.read()
        assert text.strip().splitlines()[-1].endswith("nan,nan,nan,nan")
        assert all(math.isinf(row["first_hit"]) for row in out.summary_rows)

    def test_cell_not_finite_at_t0_reports_zero_steps(self, tmp_path):
        # alpha = 1e200 overflows the loss at the initial iterate, so the cell
        # keeps no record at all; it once reported len([]) - 1 = -1 steps.
        # The overflow is reported by the row, not by a numpy warning.
        cfg = parse_config("kind = mf_sweep\nd = 6\nkappa = 5\nalgorithms = gd\nalpha = 1e200\nT = 5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_experiment(cfg, out_dir=str(tmp_path))
        assert caught == []
        assert out.summary_rows
        for row in out.summary_rows:
            assert row["iterations"] == 0
            assert math.isnan(row["final_error"])
            assert math.isinf(row["first_hit"])
        with open(out.summary_path, newline="") as fh:
            assert {row["iterations"] for row in csv.DictReader(fh)} == {"0"}

    def test_scaledgd_cell_refused_at_t0_reports_zero_steps(self, tmp_path):
        # alpha = 1e-200 underflows U^T U to zero, so ScaledGD refuses the
        # very first step; the cell keeps no record, like one whose loss is
        # not finite at t = 0, and the sweep still exits 0
        cfg_path = tmp_path / "refused.cfg"
        cfg_path.write_text("d = 5\nr = 2\nk = 3\nkappa = 5\nalgorithms = scaledgd\nT = 300\nalpha = 1e-200\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        (csv_path,) = out.glob("mf_sweep_scaledgd_*.csv")
        assert csv_path.read_text() == f"{CSV_HEADER}\n0,nan,nan,nan,nan\n"
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # one per default epsilon
        for row in rows:
            assert (row["iterations"], row["final_error"], row["first_hit"]) == ("0", "nan", "inf")
        assert not list(out.glob("*.svg"))  # a cell without records draws no curve

    @pytest.mark.parametrize("seed", [42, 3, 5, 15])
    def test_shipped_small_sweep_muon_hits_every_level(self, seed, tmp_path):
        # seeds at which a strict-< plateau rule let a period-2 cycle reset
        # patience forever (kappa 5, 125, 625 and 5); Muon draws nothing from
        # its trajectory stream here, so a Muon-only run gives the full
        # sweep's Muon cells
        text = (ROOT / "demos" / "configs" / "mf_sweep_small.cfg").read_text()
        cfg = parse_config(text + f"\nalgorithms = muon\nseed = {seed}\n")
        out = run_experiment(cfg, out_dir=str(tmp_path))
        assert len(out.summary_rows) == len(cfg.kappa) * len(cfg.epsilons)
        misses = [(row["kappa"], row["epsilon"]) for row in out.summary_rows
                  if not math.isfinite(row["first_hit"])]
        assert misses == []

    def test_lower_bound_kind(self, tmp_path):
        cfg = parse_config("kind = lower_bound\nfamily = quadratic\nkappa = 21\nT = 300\n")
        out = run_experiment(cfg, out_dir=str(tmp_path))
        row = out.summary_rows[0]
        assert row["satisfied"]
        assert row["first_hit"] >= row["bound"]


def _per_float_line(rec) -> str:
    """A record line as one ``repr(float(x))`` call per float formatted it."""
    return ",".join([str(rec.t), *(repr(float(x)) for x in rec[1:5])])


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, math.nan])


def _fresh(value, as_numpy):
    """A new float object with ``value``'s bits, never one already handed out."""
    return np.float64(value) if as_numpy else float(np.float64(value))


@st.composite
def record_lists(draw):
    """Rows as ``run_trajectory`` hands them out: one eta object across many
    rows, (loss, err, gsm) objects repeated at period 1 or 2, next to rows of
    equal values in distinct objects (0.0 and -0.0, nan and nan, numpy floats)
    and rows sharing only some of their objects."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        t, as_numpy = draw(st.integers(0, 10**6)), draw(st.booleans())
        how = draw(st.sampled_from(["fresh", "equal", "period1", "period2", "partly"]))
        if len(rows) < (2 if how == "period2" else 1):
            how = "fresh"
        if how == "fresh":
            vals = [_fresh(draw(FLOATS), as_numpy) for _ in range(3)]
        elif how == "equal":  # new objects; a zero may flip its sign
            vals = [_fresh(-v if v == 0 and draw(st.booleans()) else v, as_numpy) for v in rows[-1][2:]]
        elif how == "partly":
            vals = list(rows[-1][2:])
            vals[draw(st.integers(0, 2))] = _fresh(draw(FLOATS), as_numpy)
        else:
            vals = list(rows[-1 if how == "period1" else -2][2:])
        eta_how = draw(st.sampled_from(["same", "equal", "fresh"])) if rows else "fresh"
        eta = rows[-1].eta if eta_how == "same" else _fresh(
            rows[-1].eta if eta_how == "equal" else draw(FLOATS), as_numpy)
        rows.append(TrajectoryRecord(t, eta, *vals))
    return rows


# a period-2 cycle under one eta object between equal values in distinct
# objects, then the same values as numpy floats
_A, _B = (0.0, -0.0, math.nan), (-0.0, 0.0, float("nan"))
_CYCLE = [TrajectoryRecord(t, 0.5, *(_A, _B)[t % 2]) for t in range(5)] + [
    TrajectoryRecord(5, np.float64(0.5), *map(np.float64, _A))]


class TestCsvFormat:
    """Rows are formatted by one f-string each, whose text a row repeating
    the previous eta object or a recent row's (loss, err, gsm) objects
    reuses; the bytes must equal the shortest round-trip ``repr(float(x))``
    form of every value, for Python and numpy floats."""

    @settings(max_examples=200, deadline=None)
    @given(records=record_lists())
    @example(records=[TrajectoryRecord(0, math.nan, math.inf, -math.inf, -0.0)])
    @example(records=[TrajectoryRecord(0, *map(np.float64, [math.nan, math.inf, -math.inf, -0.0]))])
    @example(records=[TrajectoryRecord(7, *map(np.float64, [1e-320, 5e-324, 1e16, 0.1]))])
    @example(records=_CYCLE)
    def test_record_line_is_shortest_round_trip(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.csv")
            write_records_csv(path, records)
            with open(path, newline="") as fh:
                assert fh.read() == "\n".join([CSV_HEADER, *map(_per_float_line, records), ""])

    def test_diagnostic_row(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(str(path), [TrajectoryRecord(0, 1.0, 2.0, 3.0, 4.0)], diagnostic_t=1)
        assert path.read_bytes() == f"{CSV_HEADER}\n0,1.0,2.0,3.0,4.0\n1,nan,nan,nan,nan\n".encode()
        write_records_csv(str(path), [], diagnostic_t=0)
        assert path.read_bytes() == f"{CSV_HEADER}\n0,nan,nan,nan,nan\n".encode()

    def test_summaries_print_first_hit_as_float(self, tmp_path):
        # first_hit is an int step or math.inf; f"{5}" would print "5"
        sweep = run_experiment(parse_config(SMALL_SWEEP), out_dir=str(tmp_path / "sweep"))
        bound = run_experiment(
            parse_config("kind = lower_bound\nfamily = quadratic\nkappa = 21, 101\nT = 300\n"),
            out_dir=str(tmp_path / "bound"),
        )
        for out in (sweep, bound):
            with open(out.summary_path, newline="") as fh:
                printed = [row["first_hit"] for row in csv.DictReader(fh)]
            hits = [row["first_hit"] for row in out.summary_rows]
            assert any(isinstance(hit, int) for hit in hits) and math.inf in hits
            assert printed == [repr(float(hit)) for hit in hits]
            assert "inf" in printed and all(p == "inf" or p.endswith(".0") for p in printed)


class TestSvg:
    def test_single_series_polyline(self, tmp_path):
        path = str(tmp_path / "p.svg")
        text = emit_svg_plot({"loss": ([0, 1, 2], [1.0, 0.1, 0.01])})
        assert text.count("<polyline") == 1
        write_text(path, text)
        with open(path, newline="") as fh:
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

    def test_polyline_points_match_per_point_formula(self):
        # the comprehension inlines sx and sy; a clamped zero, a NaN and an
        # int x must still give the per-point formula's text
        from muonlab import svgplot as sp

        xs, ys = [0, 1, 2, 3, 4], [1.0, 0.0, 3e-7, float("nan"), 42.0]
        text = emit_svg_plot({"a": (xs, ys)})
        ylo, yhi = math.floor(math.log10(sp._LOG_FLOOR)), math.ceil(math.log10(42.0))
        plot_w = sp._WIDTH - sp._MARGIN_L - sp._MARGIN_R
        plot_h = sp._HEIGHT - sp._MARGIN_T - sp._MARGIN_B
        plotted = [1.0, sp._LOG_FLOOR, 3e-7, float("nan"), 42.0]  # 0.0 clamped, NaN kept
        want = " ".join(
            f"{sp._MARGIN_L + (x - 0.0) / (4.0 - 0.0) * plot_w:.3f},"
            f"{sp._MARGIN_T + (1.0 - (math.log10(y) - ylo) / (yhi - ylo)) * plot_h:.3f}"
            for x, y in zip(xs, plotted)
        )
        assert f'<polyline points="{want}"' in text

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

    @pytest.mark.parametrize("steps", [(), []])
    def test_empty_steps_rejected(self, steps, tmp_path):
        from muonlab import PreconditionError

        with pytest.raises(PreconditionError, match="nonempty and nonnegative"):
            preconditioner_report(d=10, r=5, k=5, alpha=1e-10, steps=steps, seed=42, out_dir=str(tmp_path))

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

    def test_lowerbounds_suite_hits_every_cell(self):
        (line,) = verify("lowerbounds").lines
        assert line.startswith("SUITE lowerbounds PASS")
        assert "hit=inf" not in line and line.count("hit=") == 5

    def test_censored_lower_bound_fails_its_suite(self, monkeypatch):
        # a run that never reaches epsilon says nothing about the bound
        import dataclasses

        import muonlab.experiments as exp

        real = exp.run_lower_bound

        def censor_mf(family, kappa, T, **kw):
            res = real(family, kappa, T, **kw)
            return dataclasses.replace(res, first_hit=math.inf) if family == "mf" else res

        monkeypatch.setattr(exp, "run_lower_bound", censor_mf)
        report = exp.verify("lowerbounds")
        assert not report.passed
        assert report.lines[0].startswith("SUITE lowerbounds FAIL")

    def test_broken_norm_bridge_fails_its_suite(self, monkeypatch):
        # the covariance run's ||Q - Q*||_F = sqrt(2) ||z|| bridge is gated at
        # 1e-12; the printed line does not show it, so only the verdict moves
        import dataclasses

        import muonlab.experiments as exp

        real = exp.run_lower_bound

        def break_bridge(family, kappa, T, **kw):
            res = real(family, kappa, T, **kw)
            return dataclasses.replace(res, bridge_deviation=1e-9) if family == "icl" else res

        passing = exp.verify("lowerbounds")
        monkeypatch.setattr(exp, "run_lower_bound", break_bridge)
        report = exp.verify("lowerbounds")
        assert passing.passed and not report.passed
        assert report.lines[0] == passing.lines[0].replace("PASS", "FAIL", 1)


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
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        (csv_path,) = out.glob("mf_sweep_gd_*.csv")
        assert csv_path.read_text().endswith("\n1,nan,nan,nan,nan\n")

    def test_rank_deficient_scaledgd_cell_does_not_abort_the_sweep(self, tmp_path):
        # at k = d ScaledGD's extra columns decay until U^T U is singular,
        # long before the error reaches 1e-17; the cell ends like a diverged
        # one and the sweep goes on
        cfg_path = tmp_path / "dense.cfg"
        text = (ROOT / "tests" / "configs" / "mf_dense.cfg").read_text() + "epsilon = 1e-17\n"
        cfg_path.write_text(text + "epsilons = 1e-9, 1e-17\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(list(out.glob("mf_sweep_*.csv"))) == 8  # 4 algorithms x 2 kappas
        with open(out / "summary.csv") as fh:
            summary = [row for row in csv.DictReader(fh) if row["algorithm"] == "scaledgd"]
        assert len(summary) == 4
        for row in summary:
            label = "kappa1" if float(row["kappa"]) == 1.0 else "kappa25"
            lines = (out / f"mf_sweep_scaledgd_{label}_k12_rep0.csv").read_text().splitlines()[1:]
            t = int(row["iterations"])
            assert lines[-1] == f"{t + 1},nan,nan,nan,nan"  # the step from t + 1 was not taken
            errors = [float(line.split(",")[3]) for line in lines[:-1]]
            assert len(errors) == t + 1 and row["final_error"] == lines[-2].split(",")[3]
            eps = float(row["epsilon"])
            assert float(row["first_hit"]) == (math.inf if eps == 1e-17 else next(
                i for i, e in enumerate(errors) if e <= eps))

    def test_python_m_muonlab_runs_the_cli(self, tmp_path):
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "muonlab", "verify", "--suite", "msign"],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 and proc.stdout.startswith("SUITE msign PASS ")

    def test_verify_subcommand(self, capsys):
        assert main(["verify", "--suite", "gradients"]) == 0
        assert "SUITE gradients PASS" in capsys.readouterr().out
