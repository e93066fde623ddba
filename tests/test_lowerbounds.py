"""Adversarial SignGD instances and the learning-rate-barrier construction."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from muonlab import (
    AdversarialInit,
    OptimizerConfig,
    PreconditionError,
    SequenceSchedule,
    TieEventError,
    adversarial_quadratic_init,
    build_hard_icl_instance,
    build_hard_mf_instance,
    build_hard_quadratic,
    first_hit_time,
    run_hard_icl,
    run_hard_mf,
    run_lower_bound,
    run_trajectory,
    signgd_quadratic_run,
)
from muonlab.cli import main
from muonlab.lowerbounds import HardRunResult, lower_bound_verdict

SQRT2 = math.sqrt(2.0)


class TestHardQuadratic:
    def test_kappa_three(self):
        hq = build_hard_quadratic(3.0)
        assert_allclose(hq.hessian, np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(np.linalg.eigvalsh(hq.hessian), [1.0, 3.0], atol=1e-12)

    def test_kappa_one_is_identity(self):
        assert_allclose(build_hard_quadratic(1.0).hessian, np.eye(2))

    def test_rotation_diagonalizes(self):
        hq = build_hard_quadratic(625.0)
        diag = hq.rotation.T @ hq.hessian @ hq.rotation
        assert_allclose(diag, np.diag([625.0, 1.0]), atol=1e-9)

    def test_rejects_small_kappa(self):
        with pytest.raises(PreconditionError):
            build_hard_quadratic(0.5)

    @pytest.mark.parametrize("kappa", [23176.0, 1e6, 1e8, 1e12, 1e15])
    def test_large_kappa_builds(self, kappa):
        # the unit eigenvalue rounds at the scale of the entries, about
        # kappa; an absolute 1e-12 first rejected integer kappa 23,176
        hq = build_hard_quadratic(kappa)
        diag = hq.rotation.T @ hq.hessian @ hq.rotation
        assert abs(diag[1, 1] - 1.0) <= 1e-12 * kappa

    def test_cli_large_kappa_runs_every_cell(self, tmp_path, capsys):
        # once exited 2 after writing the kappa-41 CSV; the run at 1e6 is
        # censored below its bound, so it ends UNDECIDED
        code = main(["lower-bound", "--family", "mf", "--kappa", "41,1e6", "--out", str(tmp_path)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("OK") and lines[1].endswith("UNDECIDED")
        assert (tmp_path / "lower_bound_summary.csv").exists()


class TestAdversarialInit:
    def test_worked_example(self):
        # kappa=2, eps=0.05, eta_t=0.5^t: barrier ends at t=2 (eta_2=0.25 >= 0.2),
        # chain backward from midpoint 0.125: 0.625, 0.375, 0.125
        etas = 0.5 ** np.arange(11)
        init = adversarial_quadratic_init(2.0, 0.05, etas, 10)
        assert init.barrier_steps == 2
        assert_allclose(init.x1_chain, [0.625, 0.375, 0.125])
        assert_allclose(init.x0, [0.625, 0.1])
        assert_allclose(init.z0, [0.525, 0.725], atol=1e-12)
        assert np.all(np.abs(init.z0) <= 2.0 * etas[0])

    def test_constant_schedule_alternation(self):
        eta0 = 0.8
        eps = eta0 / 8.0
        etas = np.full(21, eta0)
        init = adversarial_quadratic_init(4.0, eps, etas, 20)
        assert init.barrier_steps == 20
        assert np.all(init.x1_chain >= 2.0 * eps)
        assert np.all(init.x1_chain <= eta0 - 2.0 * eps)

    def test_forward_recursion_reproduces_chain(self):
        etas = 0.9 ** np.arange(40)
        init = adversarial_quadratic_init(5.0, 0.02, etas, 39)
        for t in range(init.barrier_steps):
            assert init.x1_chain[t + 1] == pytest.approx(etas[t] - init.x1_chain[t], abs=1e-15)

    def test_preconditions(self):
        etas = 0.5 ** np.arange(10)
        with pytest.raises(PreconditionError):
            adversarial_quadratic_init(2.0, 0.6, etas, 9)  # eps > eta0/kappa
        with pytest.raises(PreconditionError):
            adversarial_quadratic_init(1.0, 0.3, etas, 9)  # eta0 < 4*eps: empty barrier
        with pytest.raises(PreconditionError):
            adversarial_quadratic_init(2.0, 0.05, np.array([0.5, 1.0]), 1)  # increasing


class TestQuadraticRun:
    def test_zero_start_hits_immediately(self):
        etas = 0.5 ** np.arange(6)
        hq = build_hard_quadratic(4.0)
        zero_init = AdversarialInit(
            z0=np.zeros(2), x0=np.zeros(2), barrier_steps=0, epsilon=0.1,
            x1_chain=np.zeros(1),
        )
        run = signgd_quadratic_run(hq, zero_init, etas, 5)
        assert run.first_hit == 0

    def test_barrier_freezes_second_coordinate(self):
        kappa, T = 101.0, 400
        etas = 0.98 ** np.arange(T + 1)
        init = adversarial_quadratic_init(kappa, 1.0 / kappa, etas, T)
        hq = build_hard_quadratic(kappa)
        run = signgd_quadratic_run(hq, init, etas, T)
        traj = run_trajectory(hq, OptimizerConfig("signgd"), SequenceSchedule(etas), init.z0[:, None], T,
                              keep_iterates=True)
        zs = np.stack(traj.iterates)[:, :, 0]
        assert run.metric.tobytes() == np.linalg.norm(zs, axis=1).tobytes()
        frozen = (zs @ hq.rotation)[: init.barrier_steps + 1, 1]  # rows are (R^T z_t)^T
        assert np.abs(frozen - SQRT2 * kappa * init.epsilon).max() <= 1e-12

    @pytest.mark.parametrize("kappa", [21.0, 101.0])
    def test_iteration_lower_bound(self, kappa):
        T = 600
        etas = 0.98 ** np.arange(T + 1)
        init = adversarial_quadratic_init(kappa, 1.0 / kappa, etas, T)
        run = signgd_quadratic_run(build_hard_quadratic(kappa), init, etas, T)
        assert run.first_hit >= (kappa - 1.0) / 4.0


def _hand_init(z0) -> AdversarialInit:
    return AdversarialInit(
        z0=np.array(z0), x0=np.zeros(2), barrier_steps=0, epsilon=1e-3, x1_chain=np.zeros(1)
    )


def reference_quadratic_run(hq, init, etas, T):
    """The hand-written SignGD loop ``signgd_quadratic_run`` once ran, with
    its switching-law checks inside the step loop; the metric is ||z_t|| of
    the kept iterates, as ``run_lower_bound`` once took it."""
    etas = np.asarray(etas, dtype=np.float64)
    z = init.z0.astype(np.float64).copy()
    zs = np.empty((T + 1, 2))
    zt = np.empty((T + 1, 2))
    zs[0] = z
    zt[0] = hq.rotation.T @ z
    norm = float(np.linalg.norm(z))
    first_hit = 0 if norm <= init.epsilon else math.inf
    (x0, x1), (y0, y1) = z.tolist(), zt[0].tolist()
    for t, eta in enumerate(etas[:T].tolist()):
        if (x0 != 0.0 or x1 != 0.0) and abs(hq.kappa * y0) == abs(y1):
            raise TieEventError(f"switching tie at t={t}: ztilde={zt[t]}")
        z = z - eta * np.sign(hq.hessian @ z)
        zs[t + 1] = z
        zt[t + 1] = hq.rotation.T @ z
        (w0, w1), (v0, v1) = z.tolist(), zt[t + 1].tolist()
        a0, a1 = abs(v0 - y0), abs(v1 - y1)
        moved = (a0 > 0.5 * SQRT2 * eta) + (a1 > 0.5 * SQRT2 * eta)
        peak = max(a0, a1) if a0 == a0 and a1 == a1 else math.nan
        size_tol = 1e-9 * eta + 1e-13 * norm
        if (w0 != x0 or w1 != x1) and (moved != 1 or abs(peak - SQRT2 * eta) > size_tol):
            raise TieEventError(f"switching law violated at t={t}: delta={zt[t + 1] - zt[t]}")
        norm = float(np.linalg.norm(z))
        if math.isinf(first_hit) and norm <= init.epsilon:
            first_hit = t + 1
        x0, x1, y0, y1 = w0, w1, v0, v1
    return HardRunResult(first_hit, np.linalg.norm(zs, axis=1), slice_deviation=None, epsilon=init.epsilon)


def _outcome(run, *args):
    """A run's metric as bytes, its first hit and epsilon, or its tie message."""
    try:
        res = run(*args)
    except TieEventError as exc:
        return str(exc)
    return res.metric.tobytes(), res.first_hit, res.epsilon


@settings(max_examples=60, deadline=None)
@given(kappa=st.floats(1.0, 1e4), T=st.integers(1, 600), rho=st.floats(0.5, 0.999),
       level=st.floats(0.0, 1.0, exclude_min=True))
def test_quadratic_run_is_the_reference_loop_bitwise(kappa, T, rho, level):
    # the adversarial start of run_lower_bound, at any admissible epsilon
    etas = rho ** np.arange(T + 1)
    try:
        init = adversarial_quadratic_init(kappa, level * etas[0] / max(kappa, 4.0), etas, T)
    except PreconditionError:
        assume(False)
    hq = build_hard_quadratic(kappa)
    assert _outcome(signgd_quadratic_run, hq, init, etas, T) == _outcome(reference_quadratic_run, hq, init, etas, T)


class TestQuadraticRunTieEvents:
    """Both ``TieEventError`` paths, with the step and message they report."""

    def test_exact_switching_tie(self):
        # kappa = 1, H = I: z = (2, 1) steps by (1, 1) to (1, 0), whose
        # rotated coordinates (c, -c) tie exactly at t = 1
        hq = build_hard_quadratic(1.0)
        with pytest.raises(TieEventError) as err:
            signgd_quadratic_run(hq, _hand_init([2.0, 1.0]), np.ones(5), 5)
        ztil = hq.rotation.T @ np.array([1.0, 0.0])
        assert abs(ztil[0]) == abs(ztil[1])
        assert str(err.value) == f"switching tie at t=1: ztilde={ztil}"

    def test_switching_law_violation(self):
        # H = [[1, 0], [1, -1]] walks (3, 1) -> (2, 0) -> (1, -1) -> (0, -2),
        # each a one-coordinate rotated move; at (0, -2) sign(H z) = (0, 1)
        # moves each rotated coordinate by eta/sqrt(2), so not exactly one moves
        hq = replace(build_hard_quadratic(21.0), hessian=np.array([[1.0, 0.0], [1.0, -1.0]]))
        with pytest.raises(TieEventError) as err:
            signgd_quadratic_run(hq, _hand_init([3.0, 1.0]), np.ones(6), 6)
        delta = hq.rotation.T @ np.array([0.0, -3.0]) - hq.rotation.T @ np.array([0.0, -2.0])
        assert str(err.value) == f"switching law violated at t=3: delta={delta}"

    @pytest.mark.parametrize("nan_column", [0, 1])
    def test_nan_delta_skips_the_size_test(self, nan_column):
        # a rotation with a nan column keeps that rotated coordinate nan; the
        # other moves by 2*eta, not sqrt(2)*eta, yet numpy's max of |delta|
        # is nan, so the size test never fires, whichever column holds it
        rotation = np.ones((2, 2))
        rotation[:, nan_column] = math.nan
        hq = replace(build_hard_quadratic(21.0), rotation=rotation)
        zt = [hq.rotation.T @ z for z in ([1.0, 1.0], [0.0, 0.0])]  # z_0, and z_1 = z_0 - sign(H z_0)
        assert np.isnan(zt[0][nan_column]) and np.isnan(zt[1][nan_column])
        assert [zt[0][1 - nan_column], zt[1][1 - nan_column]] == [2.0, 0.0]
        run = signgd_quadratic_run(hq, _hand_init([1.0, 1.0]), np.ones(2), 1)  # raises no TieEventError
        assert run.metric.tolist() == [SQRT2, 0.0] and run.first_hit == 1


class TestHardMf:
    def test_square_root_target(self):
        # H(4) has eigenvalues (4, 1), so U* = R diag(2, 1) R^T
        etas = (1.0 / 64.0) * 0.98 ** np.arange(200)
        hard = build_hard_mf_instance(4.0, etas)
        assert_allclose(np.linalg.eigvalsh(hard.optimum), [1.0, 2.0], atol=1e-12)
        assert_allclose(hard.optimum @ hard.optimum.T, hard.instance.target, atol=1e-12)

    def test_init_inside_ball_and_slice(self):
        etas = (1.0 / 64.0) * 0.98 ** np.arange(200)
        hard = build_hard_mf_instance(41.0, etas)  # at the default r0 = 1/16
        assert np.linalg.norm(hard.start - hard.optimum) <= 1.0 / 16.0
        assert hard.start[0, 0] == hard.start[1, 1]
        assert hard.start[0, 1] == hard.start[1, 0]

    def test_kappa_below_two_rejected(self):
        etas = (1.0 / 64.0) * 0.98 ** np.arange(50)
        with pytest.raises(PreconditionError):
            build_hard_mf_instance(1.0, etas)

    def test_eta0_cap(self):
        with pytest.raises(PreconditionError):
            build_hard_mf_instance(4.0, np.full(50, 0.5))  # eta0 > r0

    def test_slice_invariance_under_signgd(self):
        etas = (1.0 / 64.0) * 0.98 ** np.arange(50)
        hard = build_hard_mf_instance(8.0, etas)
        res = run_hard_mf(hard, etas, 20)
        assert res.slice_deviation <= 1e-14

    def test_first_hit_bound(self):
        T = 600
        etas = (1.0 / 64.0) * 0.98 ** np.arange(T + 1)
        hard = build_hard_mf_instance(41.0, etas)
        res = run_hard_mf(hard, etas, T)
        assert res.first_hit >= 10.0


class TestHardIcl:
    def test_covariance_and_minimizer_spectra(self):
        # kappa = 8: S has eigenvalues (2, 1) and Q* = S^-1 has (0.5, 1)
        etas = 0.98 ** np.arange(100)
        hard = build_hard_icl_instance(8.0, etas)
        assert_allclose(np.sort(np.linalg.eigvalsh(hard.instance.covariance)), [1.0, 2.0])
        assert_allclose(np.sort(np.linalg.eigvalsh(hard.optimum)), [0.5, 1.0])
        lam = hard.instance.eigenvalues
        assert (lam[0] / lam[-1]) ** 3 == pytest.approx(8.0, rel=1e-12)

    def test_kappa_one_rejected(self):
        with pytest.raises(PreconditionError):
            build_hard_icl_instance(1.0, 0.98 ** np.arange(10))

    def test_run_invariants_and_bound(self):
        T = 600
        etas = 0.98 ** np.arange(T + 1)
        hard = build_hard_icl_instance(101.0, etas)
        res = run_hard_icl(hard, etas, T)
        assert res.first_hit >= 25.0
        assert res.slice_deviation <= 1e-14
        assert res.bridge_deviation <= 1e-12


class TestFamilyRunners:
    """One ``HardInstance`` type serves both families, so each runner checks
    it was given its own family's instance."""

    def test_mf_runner_rejects_a_covariance_instance(self):
        etas = (1.0 / 64.0) * 0.98 ** np.arange(50)
        with pytest.raises(PreconditionError, match="build_hard_mf_instance"):
            run_hard_mf(build_hard_icl_instance(8.0, etas), etas, 20)

    def test_icl_runner_rejects_a_factorization_instance(self):
        etas = (1.0 / 64.0) * 0.98 ** np.arange(50)
        with pytest.raises(PreconditionError, match="build_hard_icl_instance"):
            run_hard_icl(build_hard_mf_instance(8.0, etas), etas, 20)


class TestFirstHit:
    def test_immediate(self):
        assert first_hit_time([0.5, 0.2], 0.6) == 0

    def test_geometric_closed_form(self):
        # lam * rho^t <= eps first at ceil(log(lam/eps) / log(1/rho))
        lam, rho, eps = 1.0, 0.5, 0.01
        values = lam * rho ** np.arange(20)
        expected = math.ceil(math.log(lam / eps) / math.log(1.0 / rho))
        assert first_hit_time(values, eps) == expected

    def test_never(self):
        assert first_hit_time([1.0, 1.0], 0.5) == math.inf

    def test_epsilon_guard(self):
        with pytest.raises(PreconditionError):
            first_hit_time([1.0], 0.0)


def _verdict(first_hit, kappa, T, slice_deviation=None, bridge_deviation=None):
    res = HardRunResult(first_hit, np.zeros(1), slice_deviation, 1e-3, bridge_deviation)
    return lower_bound_verdict(res, kappa, T)


class TestLowerBoundVerdict:
    @pytest.mark.parametrize("first_hit, T, slice_dev, bridge_dev, verdict", [
        # kappa = 41 throughout: (kappa - 1)/4 = 10
        (10, 600, 0.0, None, "OK"),
        (9, 600, 0.0, None, "VIOLATED"),
        (math.inf, 8, 0.0, None, "UNDECIDED"),  # censored: shows only T + 1 = 9
        (math.inf, 9, 0.0, None, "OK"),  # censored: T + 1 = 10 reaches the bound
        (10, 600, 1e-14, 1e-12, "OK"),  # at both gates
        (10, 600, 2e-14, None, "OFF-SLICE"),
        (10, 600, 0.0, 2e-12, "OFF-SLICE"),
        (10, 600, math.nan, None, "OFF-SLICE"),
        (10, 600, 0.0, math.nan, "OFF-SLICE"),
        (9, 600, 2e-14, None, "OFF-SLICE"),  # off the slice, the bound says nothing
        (math.inf, 8, None, 2e-12, "OFF-SLICE"),
        (10, 600, None, None, "OK"),  # None: a run without the deviation
        (9, 600, None, None, "VIOLATED"),
        (math.inf, 8, None, None, "UNDECIDED"),
    ])
    def test_table(self, first_hit, T, slice_dev, bridge_dev, verdict):
        assert _verdict(first_hit, 41.0, T, slice_dev, bridge_dev) == verdict

    def test_finite_hit_against_the_bound(self):
        # kappa = 41: (kappa - 1)/4 = 10
        assert [_verdict(hit, 41.0, 600) for hit in (10, 600, 9, 0)] == ["OK", "OK", "VIOLATED", "VIOLATED"]

    def test_censored_run_shows_only_its_budget(self):
        # first_hit = inf after T steps shows first_hit >= T + 1, nothing more
        assert _verdict(math.inf, 41.0, 9) == "OK" and _verdict(math.inf, 41.0, 8) == "UNDECIDED"
        assert _verdict(math.inf, 2405.0, 600) == "OK" and _verdict(math.inf, 2409.0, 600) == "UNDECIDED"

    def test_cli_off_slice_run_exits_1(self, tmp_path, capsys):
        # at rho = 0.9 and eta0 = 0.01 this run drifts 1.2e-13 off its slice
        argv = ["lower-bound", "--family", "mf", "--kappa", "5", "--rho", "0.9", "--eta0", "0.01"]
        assert run_lower_bound("mf", 5.0, 600, rho=0.9, eta0=0.01).slice_deviation > 1e-13
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines()[0].endswith("? OFF-SLICE")
        with open(tmp_path / "lower_bound_summary.csv", newline="") as fh:
            assert [row["satisfied"] for row in csv.DictReader(fh)] == ["0"]


class TestDefaultEpsilon:
    """Each family accepts its own default epsilon at every integer kappa:
    sqrt(2) * eta_0/kappa / sqrt(2) rounds one ulp above eta_0/kappa at 109
    of them (21 among them), and below kappa = 4 the barrier needs
    eta_0 >= 4 * epsilon."""

    @pytest.mark.parametrize("family", ["icl", "quadratic"])
    def test_every_integer_kappa(self, family):
        for kappa in range(2, 1001):
            res = run_lower_bound(family, float(kappa), 5)
            assert res.epsilon > 0.0

    def test_icl_quadratic_level(self):
        # the instance's quadratic runs at eta_0/kappa exactly, where
        # epsilon / sqrt(2) would round above it
        hard = build_hard_icl_instance(21.0, 0.98 ** np.arange(10))
        assert hard.quad_init.epsilon == 1.0 / 21.0
        assert hard.epsilon == SQRT2 / 21.0

    def test_cli_kappa_21(self, tmp_path, capsys):
        code = main(["lower-bound", "--family", "icl", "--kappa", "21", "--T", "100",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "icl kappa=21: " in capsys.readouterr().out
