"""Each theory mechanism has one implementation: the batched scalar
recursions behind every oracle path, the batched bound checkers, and the one
lower-bound family runner behind the CLI, the verify suite and the demos."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muonlab.lowerbounds as lb
from muonlab import (
    AlignedInit,
    ExponentialSchedule,
    PreconditionError,
    RandomStream,
    ScalarTrace,
    adversarial_quadratic_init,
    build_hard_icl_instance,
    build_hard_mf_instance,
    build_hard_quadratic,
    check_scalar_icl_bounds,
    check_scalar_mf_bounds,
    check_scalar_mf_bounds_varying,
    decoupled_mf_trajectory,
    icl_modes,
    mf_modes,
    run_hard_icl,
    run_hard_mf,
    run_lower_bound,
    scalar_icl_trajectory,
    scalar_muon_trajectory,
    signgd_quadratic_run,
)
from muonlab.cli import main
from muonlab.oracle import sweep_icl_bounds, sweep_mf_bounds, sweep_mf_bounds_varying
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
        etas = scalar_muon_trajectory(sigma0[0], lambdas[0], 1.0, rho, T, c_eta=c_eta).etas
        oracle = decoupled_mf_trajectory(init, etas)
        for j in range(k):
            trace = scalar_muon_trajectory(sigma0[j], lambdas[j], 1.0, rho, T, c_eta=c_eta)
            np.testing.assert_array_equal(trace.etas, etas)
            np.testing.assert_array_equal(oracle.sigmas[:, j], trace.values)

    def test_schedule_powers_match_exponential_schedule(self):
        # rho**t is Python's float pow, as in ExponentialSchedule
        trace = scalar_muon_trajectory(0.3, 0.5, 1.0, 0.77, 60, c_eta=1.3)
        sched = ExponentialSchedule(0.77, 1.0, fixed_prefactor=1.3)
        assert trace.etas.tolist() == [sched.eta(t) for t in range(60)]


def single(trace, j):
    """Trace j of a batched trace, as a one-trace ScalarTrace."""

    def pick(x):  # per-trace parameters are arrays, shared ones scalars
        return x if x is None or np.ndim(x) == 0 else x[j]

    return ScalarTrace(
        values=trace.values[:, j], etas=trace.etas[:, j], lambda_star=pick(trace.lambda_star),
        rho=pick(trace.rho), lambda_max=pick(trace.lambda_max), lambda_min=pick(trace.lambda_min),
    )


class TestBatchedCheckers:
    """A batched checker reports the minimum margin over its traces and the
    AND of their hypotheses."""

    def assert_batch_agrees(self, check, trace, n):
        whole = check(trace)
        parts = [check(single(trace, j)) for j in range(n)]
        assert whole.worst_margin == min(p.worst_margin for p in parts)
        assert whole.hypothesis_ok == all(p.hypothesis_ok for p in parts)
        assert whole.passed == all(p.passed for p in parts)

    @PROPERTY
    @given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1.0)), min_size=1, max_size=6))
    def test_fixed_prefactor(self, draws):
        u0 = np.array([d[0] for d in draws])
        u0[u0 == 0.0] = 0.5  # u0 = 0 is rejected; |u0| > eta_0 breaks the hypothesis
        lam = np.array([d[1] for d in draws])
        trace = scalar_muon_trajectory(u0, lam, 1.0, 0.5, 25, c_eta=np.full(len(draws), 1.5))
        self.assert_batch_agrees(check_scalar_mf_bounds, trace, len(draws))

    @PROPERTY
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.floats(2.0 / 3.0, 0.95)),
                    min_size=1, max_size=6))
    def test_varying_prefactor(self, draws):
        u0, lam, rho = (np.array(col) for col in zip(*draws))
        u0[u0 == 0.0] = 0.5
        etas = 1.5 * np.power.outer(rho, np.arange(30)).T
        trace = ScalarTrace(mf_modes(u0, lam, etas), etas, lam, rho, lambda_max=1.0)
        self.assert_batch_agrees(check_scalar_mf_bounds_varying, trace, len(draws))

    @PROPERTY
    @given(st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(1.0, 100.0), st.floats(1.0, 2.0)),
                    min_size=1, max_size=6))
    def test_covariance(self, draws):
        lam_min, ratio, c = (np.array(col) for col in zip(*draws))
        trace = scalar_icl_trajectory(lam_min * ratio, lam_min, 0.5, c, 25)
        self.assert_batch_agrees(check_scalar_icl_bounds, trace, len(draws))

    def test_one_failing_trace_fails_the_batch(self):
        # trace 1 starts outside |u0| <= eta_0: its hypothesis fails, trace 0's holds
        trace = scalar_muon_trajectory(np.array([0.5, 10.0]), np.array([1.0, 1.0]), 1.0, 0.5, 5,
                                       c_eta=np.array([1.0, 1.0]))
        assert not check_scalar_mf_bounds(trace).hypothesis_ok
        assert check_scalar_mf_bounds(single(trace, 0)).hypothesis_ok


class TestLowerBoundRunner:
    def test_quadratic_matches_construction(self):
        etas = 0.98 ** np.arange(301)
        init = adversarial_quadratic_init(21.0, etas[0] / 21.0, etas, 300)
        run = signgd_quadratic_run(build_hard_quadratic(21.0), init, etas, 300)
        res = run_lower_bound("quadratic", 21.0, 300)
        assert res.first_hit == run.first_hit and res.epsilon == init.epsilon
        np.testing.assert_array_equal(res.metric, np.linalg.norm(run.iterates, axis=1))
        assert res.slice_deviation is None

    def test_mf_default_eta0_is_quarter_r0(self):
        etas = (1.0 / 64.0) * 0.98 ** np.arange(201)
        hard = build_hard_mf_instance(41.0, etas)
        direct = run_hard_mf(hard, etas, 200)
        res = run_lower_bound("mf", 41.0, 200)
        assert res.first_hit == direct.first_hit and res.epsilon == hard.epsilon
        np.testing.assert_array_equal(res.metric, direct.metric)

    def test_icl_matches_construction(self):
        etas = 0.5 * 0.9 ** np.arange(101)
        hard = build_hard_icl_instance(101.0, etas)
        direct = run_hard_icl(hard, etas, 100)
        res = run_lower_bound("icl", 101.0, 100, rho=0.9, eta0=0.5)
        assert res.epsilon == hard.epsilon
        np.testing.assert_array_equal(res.metric, direct.metric)
        assert res.slice_deviation == direct.slice_deviation

    def test_unknown_family(self):
        with pytest.raises(PreconditionError):
            run_lower_bound("cubic", 5.0, 10)


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
