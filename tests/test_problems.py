"""Objective/gradient/error contracts for the two case-study problems."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from muonlab import (
    IclInstance,
    MfInstance,
    PreconditionError,
    RandomStream,
    icl_loss_grad,
    icl_monte_carlo_loss,
    make_icl_instance,
    make_mf_instance,
    mf_loss_grad,
)
from muonlab.experiments import finite_difference_gradient


def diag_icl_instance(lam):
    """Hand-built instance with S = diag(lam), identity eigenbasis."""
    lam = np.asarray(lam, dtype=np.float64)
    d = lam.shape[0]
    return IclInstance(
        d=d,
        covariance=np.diag(lam),
        eigenvalues=lam,
        eigenvectors=np.eye(d),
        inverse=np.diag(1.0 / lam),
    )


def error(inst, x) -> float:
    """The recovery error ``run_trajectory`` records for iterate x: the instance's
    error of the operand ``loss_grad`` returns."""
    return inst.operand_errors(inst.loss_grad(x)[2][None])[0]


class TestMfInstance:
    def test_paper_grid_point(self):
        inst = make_mf_instance(RandomStream(1), 100, 2, 2, 625.0, lambda_max=1.0)
        assert_allclose(inst.eigenvalues, [1.0, 1.0 / 625.0])
        lam = np.linalg.eigvalsh(inst.target)  # ascending: the top two are the spectrum
        assert lam[-1] / lam[-2] == pytest.approx(625.0, rel=1e-8)

    def test_kappa_one_degenerate(self):
        inst = make_mf_instance(RandomStream(2), 10, 3, 3, 1.0, lambda_max=2.0)
        assert inst.eigenvalues.tobytes() == np.full(3, 2.0).tobytes()

    def test_log_uniform_midpoint(self):
        inst = make_mf_instance(RandomStream(3), 10, 3, 3, 100.0, lambda_max=1.0)
        assert inst.eigenvalues[1] == pytest.approx(0.1, rel=1e-12)

    def test_target_well_formed(self):
        inst = make_mf_instance(RandomStream(4), 12, 4, 6, 25.0)
        v, lam = inst.eigenvectors, inst.eigenvalues
        assert np.linalg.norm(inst.target - (v * lam) @ v.T) <= 1e-10
        assert inst.eigenvalues[0] / inst.eigenvalues[-1] == pytest.approx(25.0, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            make_mf_instance(RandomStream(0), 4, 5, 5, 2.0)  # r > d
        with pytest.raises(PreconditionError):
            make_mf_instance(RandomStream(0), 4, 2, 2, 0.5)  # kappa < 1


class TestMfLossGrad:
    def test_global_minimum(self):
        inst = make_mf_instance(RandomStream(5), 6, 2, 2, 4.0)
        u = inst.eigenvectors * np.sqrt(inst.eigenvalues)
        loss, grad = mf_loss_grad(inst, u)
        assert loss == pytest.approx(0.0, abs=1e-20)
        assert np.abs(grad).max() <= 1e-10
        assert error(inst, u) <= 1e-10

    def test_hand_example(self):
        # M = diag(1, 0), U = (2, 0)^T: loss = 9/4, grad = (6, 0)^T
        inst = MfInstance(
            d=2, r=1, k=1,
            eigenvalues=np.array([1.0]),
            eigenvectors=np.array([[1.0], [0.0]]),
            target=np.diag([1.0, 0.0]),
        )
        u = np.array([[2.0], [0.0]])
        loss, grad = mf_loss_grad(inst, u)
        assert loss == pytest.approx(2.25)
        assert_allclose(grad, np.array([[6.0], [0.0]]))
        assert error(inst, u) == pytest.approx(3.0)

    def test_origin_saddle(self):
        inst = make_mf_instance(RandomStream(6), 5, 2, 3, 2.0)
        loss, grad = mf_loss_grad(inst, np.zeros((5, 3)))
        assert loss == pytest.approx(0.25 * np.sum(inst.target**2))
        assert_allclose(grad, np.zeros((5, 3)))
        assert error(inst, np.zeros((5, 3))) == pytest.approx(inst.eigenvalues[0])

    def test_loss_orthogonal_right_invariance(self):
        inst = make_mf_instance(RandomStream(7), 6, 2, 3, 3.0)
        stream = RandomStream(8)
        u = stream.gaussian_matrix(6, 3)
        o = stream.haar_orthonormal(3, 3)
        l1, _ = mf_loss_grad(inst, u)
        l2, _ = mf_loss_grad(inst, u @ o)
        assert l2 == pytest.approx(l1, rel=1e-10)

    def test_shape_mismatch(self):
        inst = make_mf_instance(RandomStream(9), 4, 2, 2, 2.0)
        with pytest.raises(PreconditionError):
            mf_loss_grad(inst, np.zeros((4, 3)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_same_bits_as_the_reference_expressions(self, data):
        """The in-place loss and gradient equal ``delta = U U^T - M``,
        ``0.25 * (delta * delta).sum()`` and ``delta @ U`` bit for bit, at any
        (d, r, k), k > d and square U included; the gradient is a fresh array
        and M is left as it was.  The error operand is delta, bit for bit,
        where the error is dense (2(k + r) > d), else U itself."""
        d = data.draw(st.integers(1, 30))
        k = data.draw(st.one_of(st.just(d), st.integers(1, d), st.integers(d + 1, d + 8)))
        r = data.draw(st.integers(1, min(d, k)))
        kappa = 1.0 if r == 1 else data.draw(st.floats(1.0, 1e3))
        stream = RandomStream(data.draw(st.integers(0, 2**31)))
        inst = make_mf_instance(stream.derive(1), d, r, k, kappa)
        u = stream.derive(2).gaussian_matrix(d, k) * 10.0 ** data.draw(st.floats(-8.0, 2.0))
        target, u_before = inst.target.copy(), u.copy()
        delta = u @ u.T - inst.target
        want_loss, want_grad = 0.25 * float((delta * delta).sum()), delta @ u
        loss, grad, op = inst.loss_grad(u)
        assert type(loss) is float and loss.hex() == want_loss.hex()
        assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
        assert grad.tobytes() == want_grad.tobytes()
        if 2 * (k + r) > d:
            assert op.shape == delta.shape and op.tobytes() == delta.tobytes()
            assert not np.shares_memory(op, grad) and not np.shares_memory(op, inst.target)
        else:
            assert op is u
        assert not np.shares_memory(grad, u) and not np.shares_memory(grad, inst.target)
        assert inst.target.tobytes() == target.tobytes() and u.tobytes() == u_before.tobytes()


class TestIclInstance:
    def test_effective_condition_number(self):
        inst = make_icl_instance(RandomStream(10), 100, 625.0 ** (1.0 / 3.0))
        assert (inst.eigenvalues[0] / inst.eigenvalues[-1]) ** 3 == pytest.approx(625.0, rel=1e-6)

    def test_kappa_one_is_scaled_identity(self):
        inst = make_icl_instance(RandomStream(11), 5, 1.0, sigma_min=0.7)
        assert inst.eigenvalues.tobytes() == np.full(5, 0.7).tobytes()
        assert_allclose(inst.covariance, 0.7 * np.eye(5), atol=1e-12)

    def test_endpoints(self):
        inst = make_icl_instance(RandomStream(12), 2, 2.0, sigma_min=1.0)
        assert_allclose(inst.eigenvalues, [2.0, 1.0])

    def test_samples_reproduce_covariance_exactly(self):
        inst = make_icl_instance(RandomStream(13), 8, 5.0)
        x = inst.samples
        emp = x.T @ x / x.shape[0]
        assert np.linalg.norm(emp - inst.covariance) <= 1e-10


class TestIclLossGrad:
    def test_minimizer(self):
        inst = make_icl_instance(RandomStream(14), 6, 3.0)
        loss, grad = icl_loss_grad(inst, inst.inverse)
        assert loss == pytest.approx(0.0, abs=1e-20)
        assert np.abs(grad).max() <= 1e-12
        assert error(inst, inst.inverse) <= 1e-12

    def test_hand_example(self):
        # S = diag(2, 1), Q = 0: grad = -S^2, loss = tr(S)/2
        inst = diag_icl_instance([2.0, 1.0])
        loss, grad = icl_loss_grad(inst, np.zeros((2, 2)))
        assert loss == pytest.approx(1.5)
        assert_allclose(grad, np.diag([-4.0, -1.0]))
        assert error(inst, np.eye(2)) == pytest.approx(0.5)

    def test_zero_iterate_error(self):
        inst = make_icl_instance(RandomStream(15), 5, 4.0, sigma_min=0.5)
        assert error(inst, np.zeros((5, 5))) == pytest.approx(1.0 / 0.5, rel=1e-10)

    def test_nonnegative_loss(self):
        inst = make_icl_instance(RandomStream(16), 5, 2.0)
        stream = RandomStream(17)
        for _ in range(10):
            loss, _ = icl_loss_grad(inst, stream.gaussian_matrix(5, 5))
            assert loss >= 0.0


class TestMonteCarloLoss:
    def test_zero_at_minimizer(self):
        inst = make_icl_instance(RandomStream(18), 5, 3.0)
        est, se = icl_monte_carlo_loss(inst, inst.inverse, RandomStream(19), 500)
        assert est == pytest.approx(0.0, abs=1e-22)
        assert se == pytest.approx(0.0, abs=1e-22)

    def test_zero_parameter_value(self):
        # E_w (w^T x)^2 = ||x||^2, so the risk at Q = 0 is mean ||x_q||^2 / 2
        inst = make_icl_instance(RandomStream(20), 4, 2.0)
        est, se = icl_monte_carlo_loss(inst, np.zeros((4, 4)), RandomStream(21), 50_000)
        expected = 0.5 * np.mean(np.sum(inst.samples**2, axis=1))
        assert abs(est - expected) <= 5.0 * se

    def test_matches_closed_form(self):
        inst = make_icl_instance(RandomStream(22), 5, 2.0)
        q = RandomStream(23).gaussian_matrix(5, 5) * 0.3
        closed, _ = icl_loss_grad(inst, q)
        est, se = icl_monte_carlo_loss(inst, q, RandomStream(24), 100_000)
        assert abs(est - closed) <= 5.0 * se

    def test_requires_samples_and_size(self):
        inst = make_icl_instance(RandomStream(25), 4, 2.0)
        with pytest.raises(PreconditionError):
            icl_monte_carlo_loss(replace(inst, samples=None), np.eye(4), RandomStream(0), 1000)
        with pytest.raises(PreconditionError):
            icl_monte_carlo_loss(inst, np.eye(4), RandomStream(0), 99)

    @pytest.mark.parametrize("shape", [(5, 5), (6, 7)])
    def test_rejects_a_parameter_of_the_wrong_shape(self, shape):
        # the shape check icl_loss_grad makes, not a numpy broadcasting error
        inst = make_icl_instance(RandomStream(26), 6, 2.0)
        message = f"Q must have shape (6, 6), got {shape}"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            icl_loss_grad(inst, np.zeros(shape))
        with pytest.raises(PreconditionError, match=re.escape(message)):
            icl_monte_carlo_loss(inst, np.zeros(shape), RandomStream(0), 1000)


def _two_copies_fd(loss_fn, x, h=1e-5):
    """Reference central differences: two fresh copies of x per entry."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (loss_fn(xp) - loss_fn(xm)) / (2.0 * h)
    return g


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("kind", ["mf", "icl", "icl_transposed_view"])
    def test_same_bits_as_two_copies_and_input_untouched(self, kind):
        stream = RandomStream(28)
        if kind == "mf":
            inst, loss_grad = make_mf_instance(stream.derive(0), 6, 2, 3, 8.0), mf_loss_grad
            x = stream.derive(1).gaussian_matrix(6, 3)
        else:
            inst, loss_grad = make_icl_instance(stream.derive(0), 5, 3.0), icl_loss_grad
            x = stream.derive(1).gaussian_matrix(5, 5)
            x = x.T if kind == "icl_transposed_view" else x

        def loss(v):
            return loss_grad(inst, v)[0]

        before = x.copy()
        got = finite_difference_gradient(loss, x)
        assert x.tobytes() == before.tobytes()
        want = _two_copies_fd(loss, before)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_mf(self):
        master = RandomStream(26)
        for i in range(5):
            inst = make_mf_instance(master.derive(i), 6, 2, 3, 8.0)
            u = master.derive(100 + i).gaussian_matrix(6, 3)
            _, grad = mf_loss_grad(inst, u)
            fd = finite_difference_gradient(lambda x: mf_loss_grad(inst, x)[0], u)
            assert np.linalg.norm(fd - grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))

    def test_icl(self):
        master = RandomStream(27)
        for i in range(5):
            inst = make_icl_instance(master.derive(i), 5, 3.0)
            q = master.derive(100 + i).gaussian_matrix(5, 5)
            _, grad = icl_loss_grad(inst, q)
            fd = finite_difference_gradient(lambda x: icl_loss_grad(inst, x)[0], q)
            assert np.linalg.norm(fd - grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))
