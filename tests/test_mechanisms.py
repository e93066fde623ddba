"""Each theory mechanism has one implementation: the batched scalar
recursions behind every oracle path, the batched bound checkers, and the one
lower-bound family runner behind the CLI, the verify suite and the demos."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muonlab.lowerbounds as lb
from muonlab import (
    AlignedInit,
    ExponentialSchedule,
    OptimizerConfig,
    PreconditionError,
    RandomStream,
    SequenceSchedule,
    adversarial_quadratic_init,
    build_hard_icl_instance,
    build_hard_mf_instance,
    build_hard_quadratic,
    check_scalar_icl_bounds,
    check_scalar_mf_bounds,
    check_scalar_mf_bounds_varying,
    decoupled_mf_trajectory,
    icl_modes,
    materialize_etas,
    mf_modes,
    run_hard_icl,
    run_hard_mf,
    run_lower_bound,
    run_trajectory,
    scalar_icl_trajectory,
    scalar_muon_trajectory,
    signgd_quadratic_run,
)
from muonlab.cli import main
from muonlab.oracle import _powers, sweep_icl_bounds, sweep_mf_bounds, sweep_mf_bounds_varying
from muonlab.optimizers import PREFACTOR_RANGE

PROPERTY = settings(max_examples=40, deadline=None)


class TestPinnedSweeps:
    """Worst margins of the lemma sweeps, pinned to the last bit."""

    @pytest.mark.parametrize(
        "sweep, args, expected",
        [
            (sweep_mf_bounds, (1000, 60, 0.5), 1.0896136752213253e-16),
            (sweep_mf_bounds, (1000, 2024), -1.2507799531518663e-17),
            (sweep_icl_bounds, (1000, 61, 0.5), 5.939411804423436e-17),
            (sweep_icl_bounds, (1000, 2025), 3.968610160124443e-17),
            (sweep_mf_bounds_varying, (1000, 62, (2.0 / 3.0, 0.95)), -1.9368549540291144e-16),
            (sweep_mf_bounds_varying, (1000, 2026), -2.6087215128252986e-16),
        ],
    )
    def test_margin(self, sweep, args, expected):
        assert sweep(*args) == expected

    def test_sweeps_check_rho(self):
        with pytest.raises(PreconditionError):
            sweep_mf_bounds(10, 1, rho=0.4)
        with pytest.raises(PreconditionError):
            sweep_icl_bounds(10, 1, rho=1.0)
        with pytest.raises(PreconditionError):
            sweep_mf_bounds_varying(10, 1, rho_range=(0.5, 0.6))


# Per-trace parameters: (u0, lambda, eta0, rho) with u0 != 0 and rho in [1/2, 1).
trace_params = st.tuples(
    st.floats(0.01, 2.0) | st.floats(-2.0, -0.01),
    st.floats(0.0, 2.0),
    st.floats(0.1, 2.0),
    st.floats(0.5, 0.99),
)


def batch(params, T):
    u0, lam, eta0, rho = (np.array(col) for col in zip(*params))
    etas = eta0 * np.power.outer(rho, np.arange(T)).T  # (T, n), any per-trace schedule
    return u0, lam, etas


class TestBatchedRecursions:
    @PROPERTY
    @given(st.lists(trace_params, min_size=1, max_size=6), st.integers(0, 30))
    def test_mf_batch_equals_columns(self, params, T):
        u0, lam, etas = batch(params, T)
        values = mf_modes(u0, lam, etas)
        assert values.shape == (T + 1, len(params))
        for j in range(len(params)):
            np.testing.assert_array_equal(values[:, j], mf_modes(u0[j], lam[j], etas[:, j]))

    @PROPERTY
    @given(st.lists(trace_params, min_size=1, max_size=6), st.integers(0, 30))
    def test_scale_equals_materialized_etas(self, params, T):
        u0, lam, _ = batch(params, T)
        scale = np.array([p[2] for p in params])
        decay = 0.7 ** np.arange(T)
        np.testing.assert_array_equal(
            mf_modes(u0, lam, decay, scale=scale), mf_modes(u0, lam, scale * decay[:, None])
        )

    @PROPERTY
    @given(st.lists(trace_params, min_size=1, max_size=6), st.integers(0, 30))
    def test_icl_batch_equals_columns(self, params, T):
        _, lam, etas = batch(params, T)
        lam = lam + 0.1  # covariance eigenvalues are positive
        values = icl_modes(lam, etas)
        assert values.shape == (T + 1, len(params))
        for j in range(len(params)):
            np.testing.assert_array_equal(values[:, j], icl_modes(lam[j], etas[:, j]))

    @PROPERTY
    @given(
        st.lists(st.tuples(st.floats(0.01, 1.5), st.floats(0.0, 1.0)), min_size=1, max_size=5),
        st.floats(1.0, 2.0),
        st.floats(0.5, 0.99),
        st.integers(0, 30),
    )
    def test_decoupled_modes_equal_scalar_recursion(self, modes, c_eta, rho, T):
        sigma0 = np.array([m[0] for m in modes])
        lambdas = np.array([m[1] for m in modes])
        k = len(modes)
        init = AlignedInit(
            matrix=np.diag(sigma0), basis_left=np.eye(k), basis_right=np.eye(k),
            sigma0=sigma0, lambdas=lambdas,
        )
        _, etas = scalar_muon_trajectory(sigma0[0], lambdas[0], 1.0, rho, T, c_eta=c_eta)
        oracle = decoupled_mf_trajectory(init, etas)
        for j in range(k):
            values, etas_j = scalar_muon_trajectory(sigma0[j], lambdas[j], 1.0, rho, T, c_eta=c_eta)
            np.testing.assert_array_equal(etas_j, etas)
            np.testing.assert_array_equal(oracle.sigmas[:, j], values)

    def test_schedule_powers_match_exponential_schedule(self):
        # rho**t is Python's float pow, as in ExponentialSchedule
        _, etas = scalar_muon_trajectory(0.3, 0.5, 1.0, 0.77, 60, c_eta=1.3)
        sched = ExponentialSchedule(0.77, 1.0, fixed_prefactor=1.3)
        assert etas.tolist() == [sched.eta(t) for t in range(60)]


class TestPythonPow:
    """``_powers`` is Python's float pow to the last bit, for a shared base
    and for per-trace bases broadcast against other arrays."""

    bases = st.floats(0.5, 1.0, exclude_max=True)

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=np.float64).tobytes()

    @PROPERTY
    @given(base=bases, exponent=st.integers(0, 400))
    def test_scalar_base(self, base, exponent):
        # one row of the table, as the varying-prefactor check reads (1 - rho)**2
        assert np.shape(_powers(base, exponent + 1)[exponent]) == ()
        assert self.bits(_powers(base, exponent + 1)[exponent]) == self.bits(pow(base, exponent))

    @PROPERTY
    @given(rhos=st.lists(bases, min_size=0, max_size=20), exponent=st.integers(0, 400))
    def test_per_trace_bases(self, rhos, exponent):
        row = _powers(np.array(rhos), exponent + 1)[exponent]
        assert self.bits(row) == self.bits([pow(r, exponent) for r in rhos])

    @PROPERTY
    @given(rhos=st.lists(bases, min_size=1, max_size=20), n=st.integers(0, 120))
    def test_powers_down_the_leading_axis(self, rhos, n):
        per_trace = np.zeros(len(rhos))
        shared = _powers(rhos[0], n, per_trace)  # broadcasts against the traces
        assert shared.shape == (n, 1)
        assert self.bits(shared[:, 0]) == self.bits([pow(rhos[0], t) for t in range(n)])
        each = _powers(np.array(rhos), n, per_trace)
        assert each.shape == (n, len(rhos))
        assert self.bits(each) == self.bits([[pow(r, t) for r in rhos] for t in range(n)])


def single(args, j):
    """A check's arguments for trace j of a batched trace: the j-th column of
    its values and etas, and entry j of each per-trace constant (shared ones
    are scalars)."""
    values, etas, *constants = args
    return (values[:, j], etas[:, j], *(c if np.ndim(c) == 0 else c[j] for c in constants))


class TestBatchedCheckers:
    """A batched checker reports the minimum margin over its traces."""

    def assert_batch_agrees(self, check, args, n):
        assert check(*args) == min(check(*single(args, j)) for j in range(n))

    @PROPERTY
    @given(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(0.0, 1.0)), min_size=1, max_size=6))
    def test_fixed_prefactor(self, draws):
        u0 = np.array([d[0] for d in draws])
        u0[u0 == 0.0] = 0.5  # the lemma needs 0 < |u0| <= eta_0 = 1.5
        lam = np.array([d[1] for d in draws])
        values, etas = scalar_muon_trajectory(u0, lam, 1.0, 0.5, 25, c_eta=np.full(len(draws), 1.5))
        self.assert_batch_agrees(check_scalar_mf_bounds, (values, etas, lam, 0.5, 1.0), len(draws))

    @PROPERTY
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.floats(2.0 / 3.0, 0.95)),
                    min_size=1, max_size=6))
    def test_varying_prefactor(self, draws):
        u0, lam, rho = (np.array(col) for col in zip(*draws))
        u0[u0 == 0.0] = 0.5
        etas = 1.5 * np.power.outer(rho, np.arange(30)).T
        self.assert_batch_agrees(check_scalar_mf_bounds_varying, (mf_modes(u0, lam, etas), etas, lam, rho, 1.0),
                                 len(draws))

    @PROPERTY
    @given(st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(1.0, 100.0), st.floats(1.0, 2.0)),
                    min_size=1, max_size=6))
    def test_covariance(self, draws):
        lam_min, ratio, c = (np.array(col) for col in zip(*draws))
        values, etas = scalar_icl_trajectory(lam_min * ratio, lam_min, 0.5, c, 25)
        self.assert_batch_agrees(check_scalar_icl_bounds, (values, etas, lam_min * ratio), len(draws))

    def test_one_trace_outside_the_hypothesis_rejects_the_batch(self):
        # trace 1 starts outside |u0| <= eta_0, trace 0 inside
        lam = np.array([1.0, 1.0])
        values, etas = scalar_muon_trajectory(np.array([0.5, 10.0]), lam, 1.0, 0.5, 5, c_eta=np.array([1.0, 1.0]))
        with pytest.raises(PreconditionError, match="eta_0"):
            check_scalar_mf_bounds(values, etas, lam, 0.5, 1.0)
        assert check_scalar_mf_bounds(*single((values, etas, lam, 0.5, 1.0), 0)) == pytest.approx(0.0625)


class TestLowerBoundRunner:
    def test_quadratic_matches_construction(self):
        etas = np.array([0.98**t for t in range(301)])
        init = adversarial_quadratic_init(21.0, etas[0] / 21.0, etas, 300)
        hq = build_hard_quadratic(21.0)
        run = signgd_quadratic_run(hq, init, etas, 300)
        res = run_lower_bound("quadratic", 21.0, 300)
        assert res.first_hit == run.first_hit and res.epsilon == init.epsilon
        np.testing.assert_array_equal(res.metric, run.metric)
        traj = run_trajectory(hq, OptimizerConfig("signgd"), SequenceSchedule(etas), init.z0[:, None], 300,
                              keep_iterates=True)
        np.testing.assert_array_equal(res.metric, np.linalg.norm(np.stack(traj.iterates)[:, :, 0], axis=1))
        assert res.slice_deviation is None and res.bridge_deviation is None

    def test_mf_default_eta0_is_quarter_r0(self):
        etas = np.array([(1.0 / 64.0) * 0.98**t for t in range(201)])
        hard = build_hard_mf_instance(41.0, etas)
        direct = run_hard_mf(hard, etas, 200)
        res = run_lower_bound("mf", 41.0, 200)
        assert res.first_hit == direct.first_hit and res.epsilon == hard.epsilon
        np.testing.assert_array_equal(res.metric, direct.metric)

    def test_icl_matches_construction(self):
        etas = np.array([0.5 * 0.9**t for t in range(101)])
        hard = build_hard_icl_instance(101.0, etas)
        direct = run_hard_icl(hard, etas, 100)
        res = run_lower_bound("icl", 101.0, 100, rho=0.9, eta0=0.5)
        assert res.epsilon == hard.epsilon
        np.testing.assert_array_equal(res.metric, direct.metric)
        assert res.slice_deviation == direct.slice_deviation

    @pytest.mark.parametrize("family, eta0", [("quadratic", 1.0), ("mf", lb.R0_MAX / 4.0), ("icl", 1.0)])
    def test_etas_are_the_exponential_schedules(self, family, eta0, monkeypatch):
        # rho**t in Python's float pow: numpy's vectorized power misses it by
        # an ulp at 32 of these 601 etas
        seen, real = [], lb._signgd_run

        def record(inst, x0, etas, T):
            seen.append(np.array(etas))
            return real(inst, x0, etas, T)

        monkeypatch.setattr(lb, "_signgd_run", record)
        run_lower_bound(family, 21.0, 600, rho=0.98)
        expected = materialize_etas(ExponentialSchedule(0.98, eta0, fixed_prefactor=1.0), 601)
        assert len(seen) == 1 and seen[0].tobytes() == np.array(expected).tobytes()

    def test_unknown_family(self):
        with pytest.raises(PreconditionError):
            run_lower_bound("cubic", 5.0, 10)

    @pytest.mark.parametrize("rho", [0.0, -0.5, 1.5])
    def test_rho_outside_the_unit_interval(self, rho):
        # 1.5**2000 overflows Python's float pow; the etas must be a
        # positive, non-increasing sequence in any case
        with pytest.raises(PreconditionError, match=re.escape(f"rho must lie in (0, 1], got {rho}")):
            run_lower_bound("quadratic", 21.0, 2000, rho=rho)


class TestCliReport:
    def test_violated_bound_exits_1_from_both_entry_points(self, tmp_path, monkeypatch, capsys):
        # a first hit at t = 0 is below every bound (kappa - 1)/4 > 0
        monkeypatch.setattr(lb, "first_hit_time", lambda values, epsilon: 0)
        code = main(["lower-bound", "--family", "icl", "--kappa", "101", "--T", "100",
                     "--out", str(tmp_path / "cli")])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out
        cfg = tmp_path / "lb.cfg"
        cfg.write_text("kind = lower_bound\nfamily = icl\nkappa = 101\nT = 100\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "lower_bound_summary.csv" in out

    def test_censored_run_shows_the_bound_only_within_its_budget(self, tmp_path, capsys):
        # both runs are censored at T = 600: 601 reaches (2401 - 1)/4 = 600,
        # not (10001 - 1)/4 = 2500; the second once printed OK and exited 0
        code = main(["lower-bound", "--family", "quadratic", "--kappa", "2401,10001", "--out", str(tmp_path)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["quadratic kappa=2401: first_hit=inf >= bound=600? OK",
                             "quadratic kappa=10001: first_hit=inf >= bound=2500? UNDECIDED"]
        with open(tmp_path / "lower_bound_summary.csv", newline="") as fh:
            assert [row["satisfied"] for row in csv.DictReader(fh)] == ["1", "0"]

    def test_lower_bound_run_prints_checks_then_paths(self, tmp_path, capsys):
        cfg = tmp_path / "lb.cfg"
        cfg.write_text("kind = lower_bound\nfamily = quadratic\nkappa = 21\nT = 300\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("quadratic kappa=21: first_hit=") and lines[0].endswith("OK")
        assert all(line.startswith("wrote ") for line in lines[1:])

    def test_precond_viz_reports_and_writes_metadata(self, tmp_path, capsys):
        code = main(["precond-viz", "--d", "6", "--r", "3", "--k", "3", "--steps", "0,10",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "t=10: trace-normalized block difference" in out
        assert "precond_differences.csv" in out
        assert (tmp_path / "run_metadata.txt").exists()


def test_prefactor_range_is_fixed():
    assert PREFACTOR_RANGE == (1.0, 2.0)
    with pytest.raises(TypeError):
        ExponentialSchedule(0.5, 1.0, prefactor_range=(1.0, 3.0))
    assert ExponentialSchedule(0.5, 1.0).eta(0, stream=RandomStream(1)) == RandomStream(1).uniform(1.0, 2.0)
