"""Decoupled scalar/diagonal dynamics and their bound checkers."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from muonlab import (
    AlignedInit,
    ExponentialSchedule,
    MfInstance,
    OptimizerConfig,
    PreconditionError,
    RandomStream,
    SequenceSchedule,
    aligned_mf_init,
    check_scalar_icl_bounds,
    check_scalar_mf_bounds,
    check_scalar_mf_bounds_varying,
    decoupled_icl_trajectory,
    decoupled_mf_trajectory,
    icl_modes,
    make_icl_instance,
    make_mf_instance,
    materialize_etas,
    mf_modes,
    oracle_vs_full_divergence,
    run_trajectory,
    scalar_icl_trajectory,
    scalar_muon_trajectory,
)
from muonlab.oracle import (
    FLOAT_SLACK,
    decoupling_gap,
    sweep_icl_bounds,
    sweep_mf_bounds,
    sweep_mf_bounds_varying,
    sweep_never_zero,
)


class TestScalarMuon:
    def test_hand_recursion(self):
        # u0=0.5: sign((0.25-1)*0.5) = -1 so u1 = 1.5; then sign((1.25)*1.5) = +1
        # so u2 = 1.0 = sqrt(lambda), stationary after that
        values, etas = scalar_muon_trajectory(0.5, 1.0, 1.0, 0.5, 5, c_eta=1.0)
        assert_allclose(values, [0.5, 1.5, 1.0, 1.0, 1.0, 1.0])
        assert_allclose(etas, [1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_fixed_point(self):
        # lambda = 4 so the root is exactly representable and sign(0) = 0 fires
        values, _ = scalar_muon_trajectory(2.0, 4.0, 4.0, 0.5, 10, c_eta=1.5)
        assert_allclose(values, 2.0 * np.ones(11), rtol=0)

    def test_zero_lambda_oscillates_within_eta(self):
        values, etas = scalar_muon_trajectory(1.0, 0.0, 1.0, 0.5, 40, c_eta=1.0)
        for t in range(1, 41):
            assert abs(values[t]) <= etas[t - 1] + 1e-15

    def test_rejects_zero_start(self):
        with pytest.raises(PreconditionError):
            scalar_muon_trajectory(0.0, 1.0, 1.0, 0.5, 3, c_eta=1.0)


class TestScalarBounds:
    def test_hand_checked_margins(self):
        values, etas = scalar_muon_trajectory(0.5, 1.0, 1.0, 0.5, 5, c_eta=1.0)
        # hand margins: t=0 gives eta_0 - |1.5 - 1| = 0.5; the stationary tail
        # gives exactly eta_t per step, so the minimum is the last eta, 1/16
        assert check_scalar_mf_bounds(values, etas, 1.0, 0.5, 1.0) == pytest.approx(0.0625)

    def test_sweep_mf(self):
        assert sweep_mf_bounds(1000, seed=2024) >= -FLOAT_SLACK

    def test_sweep_varying(self):
        assert sweep_mf_bounds_varying(1000, seed=2025) >= -FLOAT_SLACK

    @pytest.mark.parametrize("u0", [10.0, -1.0 - 1e-15, 0.0])  # |u0| > eta_0 = 1, or u0 = 0
    @pytest.mark.parametrize("check, rho", [(check_scalar_mf_bounds, 0.5), (check_scalar_mf_bounds_varying, 0.8)])
    def test_start_outside_the_hypothesis_is_rejected(self, check, rho, u0):
        etas = rho ** np.arange(5.0)
        with pytest.raises(PreconditionError, match=re.escape("0 < |u0| <= eta_0")):
            check(mf_modes(u0, 1.0, etas), etas, 1.0, rho, 1.0)
        assert check(mf_modes(-1.0, 1.0, etas), etas, 1.0, rho, 1.0) >= -FLOAT_SLACK
        with pytest.raises(PreconditionError, match="T >= 1"):  # no eta_0 to bound u0 by
            check(np.array([0.5]), np.empty(0), 1.0, rho, 1.0)

    @pytest.mark.parametrize("check, constants", [
        (check_scalar_mf_bounds, (1.0, 0.5, 1.0)),
        (check_scalar_mf_bounds_varying, (1.0, 0.8, 1.0)),
        (check_scalar_icl_bounds, (1.0,)),
    ])
    def test_mismatched_lengths_are_rejected(self, check, constants):
        # T + 1 values need T etas; here one eta is missing
        with pytest.raises(PreconditionError, match=re.escape("len(values) == len(etas) + 1")):
            check(np.zeros(5), np.ones(3), *constants)


class TestScalarIcl:
    def test_hand_recursion(self):
        # lambda*=2, lambda_min=1, C=1: theta = (0, 1, 0.5, 0.5, ...)
        values, etas = scalar_icl_trajectory(2.0, 1.0, 0.5, 1.0, 4)
        assert_allclose(values, [0.0, 1.0, 0.5, 0.5, 0.5])
        # margins: 1 - 0.5, then eta_t exactly along the stationary tail
        assert check_scalar_icl_bounds(values, etas, 2.0) == pytest.approx(0.125)

    def test_nonzero_start_is_rejected(self):
        values, etas = scalar_icl_trajectory(2.0, 1.0, 0.5, 1.0, 4)
        with pytest.raises(PreconditionError, match="need th_0 = 0"):
            check_scalar_icl_bounds(values + 0.25, etas, 2.0)

    def test_one_step_exact_hit(self):
        values, _ = scalar_icl_trajectory(1.0, 1.0, 0.5, 1.0, 5)
        assert_allclose(values[1:], np.ones(5))

    def test_sweep(self):
        assert sweep_icl_bounds(1000, seed=2026) >= -FLOAT_SLACK


class TestNeverZero:
    def test_small_sweep(self):
        assert sweep_never_zero(1000, 200, seed=2027)


def error(inst, u) -> float:
    """The recovery error ``run_trajectory`` records for factor u: the instance's
    error of the operand ``loss_grad`` returns."""
    return inst.operand_errors(inst.loss_grad(u)[2][None])[0]


def hand_aligned_init():
    """d=2, r=k=1, lambda=1, V=e1, right basis (1), sigma0=0.5."""
    inst = MfInstance(
        d=2, r=1, k=1,
        eigenvalues=np.array([1.0]),
        eigenvectors=np.array([[1.0], [0.0]]),
        target=np.diag([1.0, 0.0]),
    )
    init = AlignedInit(
        matrix=np.array([[0.5], [0.0]]),
        basis_left=np.array([[1.0], [0.0]]),
        basis_right=np.array([[1.0]]),
        sigma0=np.array([0.5]),
        lambdas=np.array([1.0]),
    )
    return inst, init


class TestDecoupledMf:
    def test_hand_example_embeds_scalar_recursion(self):
        inst, init = hand_aligned_init()
        etas = [0.5**t for t in range(3)]
        predicted = decoupled_mf_trajectory(init, etas)
        assert predicted.shape == (4, 2, 1)
        assert_allclose(predicted[:, 0, 0], [0.5, 1.5, 1.0, 1.0])
        assert_allclose(predicted[:, 1, 0], 0.0, atol=0)
        u2 = predicted[2]
        assert_allclose(u2 @ u2.T, inst.target, atol=1e-15)

    def test_exact_start_is_stationary(self):
        inst = make_mf_instance(RandomStream(31), 6, 2, 4, 9.0)
        init = aligned_mf_init(inst, np.sqrt(inst.eigenvalues), RandomStream(32))
        predicted = decoupled_mf_trajectory(init, [0.5**t for t in range(20)])
        np.testing.assert_array_equal(predicted[0], init.matrix)
        assert_allclose(predicted[-1], predicted[0], rtol=0)
        assert error(inst, predicted[19]) <= 1e-12

    def test_spectral_error_equals_worst_mode(self):
        inst = make_mf_instance(RandomStream(33), 8, 3, 5, 16.0)
        stream = RandomStream(34)
        init = aligned_mf_init(inst, stream.uniforms(3, 0.1, 1.0), stream)
        etas = [0.7 * 0.5**t for t in range(10)]
        predicted = decoupled_mf_trajectory(init, etas)
        modes = mf_modes(init.sigma0, init.lambdas, etas)
        for t in (1, 5, 10):
            expected = np.abs(modes[t] ** 2 - init.lambdas).max()
            assert error(inst, predicted[t]) == pytest.approx(expected, abs=1e-12)

    def test_full_equivalence_all_search_ranks(self):
        master = RandomStream(35)
        r = 4
        for i, k in enumerate((r, r + 3, 20)):
            inst = make_mf_instance(master.derive(i), 20, r, k, 25.0)
            assert decoupling_gap(inst, master.derive(100 + i), 50) <= 1e-10


class TestDecoupledIcl:
    def test_first_step_matches_msign_example(self):
        # S = diag(2,1) from Q0=0: both modes step by eta_0 = 1, so Q_1 = I
        inst = make_icl_instance(RandomStream(36), 2, 2.0, sigma_min=1.0)
        predicted = decoupled_icl_trajectory(inst, [1.0, 0.5])
        assert predicted.shape == (3, 2, 2)
        assert_allclose(predicted[1], np.eye(2), atol=1e-15)

    def test_scaled_identity_modes_identical(self):
        inst = make_icl_instance(RandomStream(37), 5, 1.0, sigma_min=2.0)
        etas = [0.5**t for t in range(10)]
        predicted, modes = decoupled_icl_trajectory(inst, etas), icl_modes(inst.eigenvalues, etas)
        for t in range(11):
            assert np.ptp(modes[t]) == 0.0
            assert_allclose(predicted[t], modes[t, 0] * np.eye(5), atol=1e-15)

    def test_error_bound_per_step(self):
        inst = make_icl_instance(RandomStream(38), 6, 3.0, sigma_min=1.0)
        etas = [1.0 * 0.5**t for t in range(20)]
        predicted = decoupled_icl_trajectory(inst, etas)
        for t in range(1, 21):
            # ||Q_t - S^-1||_2 is the worst mode's |th_t - 1/lam|
            err = np.linalg.norm(predicted[t] - inst.inverse, 2)
            assert err <= etas[t - 1] + 1e-15

    def test_full_equivalence(self):
        inst = make_icl_instance(RandomStream(39), 20, 625.0 ** (1.0 / 3.0), sigma_min=1.0)
        assert decoupling_gap(inst, RandomStream(40), 50) <= 1e-10


class TestDecouplingGap:
    def test_equals_the_hand_written_composition(self):
        # factorization: k > r, so the aligned init also draws a basis completion
        inst = make_mf_instance(RandomStream(41), 12, 3, 5, 25.0)
        stream = RandomStream(42)
        etas = materialize_etas(ExponentialSchedule(0.5, 1.0), 31, stream)
        init = aligned_mf_init(inst, stream.uniforms(3, 0.05, 0.95) * etas[0], stream)
        full = run_trajectory(
            inst, OptimizerConfig("muon"), SequenceSchedule(etas), init.matrix, 30, keep_iterates=True,
        )
        expected = oracle_vs_full_divergence(decoupled_mf_trajectory(init, etas[:30]), full.iterates)
        assert decoupling_gap(inst, RandomStream(42), 30) == expected
        # covariance from Q_0 = 0, written with T etas; decoupling_gap draws T + 1
        inst = make_icl_instance(RandomStream(43), 12, 5.0, sigma_min=1.0)
        etas = materialize_etas(ExponentialSchedule(0.5, 1.0), 30, RandomStream(44))
        full = run_trajectory(
            inst, OptimizerConfig("muon"), SequenceSchedule(etas), np.zeros((12, 12)), 30, keep_iterates=True,
        )
        expected = oracle_vs_full_divergence(decoupled_icl_trajectory(inst, etas), full.iterates)
        assert decoupling_gap(inst, RandomStream(44), 30) == expected


class TestDivergenceHelper:
    def test_zero_steps_zero_gap(self):
        inst, init = hand_aligned_init()
        predicted = decoupled_mf_trajectory(init, [])
        assert oracle_vs_full_divergence(predicted, [init.matrix]) == 0.0

    def test_length_mismatch(self):
        inst, init = hand_aligned_init()
        predicted = decoupled_mf_trajectory(init, [1.0])
        with pytest.raises(PreconditionError):
            oracle_vs_full_divergence(predicted, [init.matrix])
