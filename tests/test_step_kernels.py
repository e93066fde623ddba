"""Bitwise guards for the per-step kernels of ``run_trajectory``.

Each kernel was rewritten to drop numpy calls whose answer the driver
already has, or checks of inputs ``run_trajectory`` has already checked.  Every
test keeps the earlier expression as its reference and requires the kernel
to return the same bits, so the sweep outputs cannot move through these
kernels.
"""

import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from muonlab import (
    ExponentialSchedule,
    PreconditionError,
    RandomStream,
    make_icl_instance,
    make_mf_instance,
    run_trajectory,
)
from muonlab.cli import main
from muonlab.experiments import _psd_sqrt
from muonlab.linalg import RANK_TOL
from muonlab.msign import _msign_from_svd
from muonlab.optimizers import OptimizerConfig, _muon_update, _scaledgd_update

PROPERTY = settings(max_examples=150, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
# Entries span many decades, include signed zeros and repeats, and stay
# small enough that no product of two overflows.
ENTRIES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=True)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def mf_points(draw):
    d = draw(st.integers(2, 40))
    k = draw(st.integers(1, d))
    r = draw(st.integers(1, k))
    kappa = 1.0 if r == 1 else draw(st.floats(1.0, 1e4))
    inst = make_mf_instance(RandomStream(draw(SEEDS)), d, r, k, kappa, draw(st.floats(1e-3, 1e3)))
    return inst, draw(arrays(np.float64, (d, k), elements=ENTRIES))


@st.composite
def icl_points(draw):
    d = draw(st.integers(1, 24))
    kappa = 1.0 if d == 1 else draw(st.floats(1.0, 1e3))
    inst = make_icl_instance(RandomStream(draw(SEEDS)), d, kappa)
    return inst, draw(arrays(np.float64, (d, d), elements=ENTRIES))


class TestLossGrad:
    @PROPERTY
    @given(mf_points())
    def test_mf_bitwise_the_np_sum_form(self, point):
        inst, u = point
        delta = u @ u.T - inst.target
        loss, grad, _ = inst.loss_grad(u)
        assert same_bits(loss, 0.25 * float(np.sum(delta * delta)))
        assert same_bits(grad, delta @ u)

    @PROPERTY
    @given(icl_points())
    def test_icl_bitwise_the_eye_and_trace_form(self, point):
        inst, q = point
        s = inst.covariance
        resid = s @ q - np.eye(inst.d)
        loss, grad, op = inst.loss_grad(q)
        assert same_bits(loss, 0.5 * float(np.trace(resid @ s @ resid.T)))
        assert same_bits(grad, s @ resid @ s)
        assert op is q

    def test_icl_leaves_its_input_and_covariance_alone(self):
        inst = make_icl_instance(RandomStream(3), 5, 10.0)
        q, s = np.eye(5), inst.covariance.copy()
        inst.loss_grad(q)
        assert same_bits(q, np.eye(5)) and same_bits(inst.covariance, s)


def count_and_slice(u, s, vt):
    """The rank rule as one count and two slices, for every input."""
    r = int(np.count_nonzero(s > RANK_TOL * s[:1]))
    return u[:, :r] @ np.asfortranarray(vt[:r])


@st.composite
def svd_inputs(draw, rank):
    """Compact SVD factors of a tall or square d x k matrix of the given kind:
    "full" (s[-1] > RANK_TOL * s[0]), "deficient" (rank below k, so
    s[-1] <= RANK_TOL * s[0]) or "zero"."""
    k = draw(st.integers(1, 24))
    d = k if draw(st.booleans()) else draw(st.integers(k + 1, 30))
    stream = RandomStream(draw(SEEDS))
    scale = 10.0 ** draw(st.floats(-100.0, 100.0))
    if rank == "zero":
        z = np.zeros((d, k))
    elif rank == "full":
        z = scale * stream.gaussian_matrix(d, k)
    else:
        assume(k >= 2)
        r = draw(st.integers(1, k - 1))
        z = scale * (stream.gaussian_matrix(d, r) @ stream.gaussian_matrix(r, k))
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    full = s[-1] > RANK_TOL * s[0]
    assume(full if rank == "full" else not full)
    return u, s, vt


class TestMsignFromSvd:
    @PROPERTY
    @given(svd_inputs("full"))
    def test_full_rank(self, factors):
        assert same_bits(_msign_from_svd(*factors), count_and_slice(*factors))

    @PROPERTY
    @given(svd_inputs("deficient"))
    def test_rank_deficient(self, factors):
        assert same_bits(_msign_from_svd(*factors), count_and_slice(*factors))

    @PROPERTY
    @given(svd_inputs("zero"))
    def test_zero(self, factors):
        m = _msign_from_svd(*factors)
        assert same_bits(m, count_and_slice(*factors))
        assert not np.any(m) and not np.any(np.signbit(m))


class TestMuonUpdate:
    @PROPERTY
    @given(st.data(), st.floats(1e-300, 1e300))
    def test_zero_gradient_factors_return_x(self, data, eta):
        # the loop hands over the SVD of the gradient; at a zero gradient the
        # step must leave the iterate as it is, signed zeros included
        k = data.draw(st.integers(1, 30))
        x = data.draw(arrays(np.float64, (data.draw(st.integers(k, 30)), k), elements=ENTRIES))
        grad = np.zeros_like(x)
        out = _muon_update(x, grad, eta, np.linalg.svd(grad, full_matrices=False))
        assert same_bits(out, x)


def descending_eig(a):
    """The eigendecomposition the kernels used to take: eigenvalues and
    eigenvectors in descending order, as contiguous copies."""
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


@st.composite
def gram_factors(draw, tall):
    """A d x k factor with k >= 3, where the order of a k-term sum shows in
    its bits; ``tall`` keeps d >= k, so its Gram matrix is invertible."""
    k = draw(st.integers(3, 12))
    d = draw(st.integers(k, 30)) if tall else draw(st.integers(1, 30))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return scale * RandomStream(draw(SEEDS)).gaussian_matrix(d, k)


class TestEigenKernels:
    @PROPERTY
    @given(gram_factors(tall=True), st.data(), st.floats(1e-6, 1e3))
    def test_scaledgd_bitwise_the_descending_copy_form(self, u, data, eta):
        grad = RandomStream(data.draw(SEEDS)).gaussian_matrix(*u.shape)
        lam, vecs = descending_eig(u.T @ u)
        assume(lam[-1] > (1e-12) ** 2 * lam[0])
        out = _scaledgd_update(u, grad, eta, None)
        assert same_bits(out, u - eta * grad @ ((vecs / lam) @ vecs.T))

    @PROPERTY
    @given(gram_factors(tall=False))
    def test_psd_sqrt_bitwise_the_descending_copy_form(self, g):
        lam, vecs = descending_eig(g.T @ g)
        assert same_bits(_psd_sqrt(g.T @ g), (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.T)


UNDERFLOW_SWEEP = """
kind = mf_sweep
d = 30
r = 2
k = 2
kappa = 1, 5, 25
algorithms = muon
schedule = exponential
rho = 0.5
T = 2000
epsilon = 1e-12
epsilons = 1e-6, 1e-9
seed = 42
"""


class TestMuonEta:
    """Muon checks its first eta where it enters; a later eta, even one a
    schedule underflowed to 0 (0.5**1075 == 0.0), is used as given."""

    def test_underflowed_sweep_writes_every_cell(self, tmp_path):
        cfg, out = tmp_path / "underflow.cfg", tmp_path / "out"
        cfg.write_text(UNDERFLOW_SWEEP)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        names = set(os.listdir(out))
        for kappa in (1, 5, 25):
            assert f"mf_sweep_muon_kappa{kappa}_k2_rep0.csv" in names
        assert "summary.csv" in names

    def test_library_run_past_the_underflow_stays_put(self):
        inst = make_mf_instance(RandomStream(4), 10, 2, 2, 5.0)
        init = 0.1 * RandomStream(5).haar_orthonormal(10, 2)
        sched = ExponentialSchedule(0.5, 1.0, fixed_prefactor=1.0)
        traj = run_trajectory(inst, OptimizerConfig("muon"), sched, init, 1080, keep_iterates=True)
        assert traj.records[1074].eta > 0.0
        assert all(rec.eta == 0.0 for rec in traj.records[1075:])
        assert all(same_bits(x, traj.iterates[1075]) for x in traj.iterates[1076:])
        assert same_bits(traj.final, traj.iterates[1075])

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.inf, np.nan])
    def test_run_rejects_a_nonpositive_or_non_finite_first_eta(self, eta):
        class Fixed:  # a schedule that returns eta as given, unchecked
            def eta(self, t, current_loss=None, stream=None):
                return eta

        inst = make_mf_instance(RandomStream(4), 3, 2, 2, 2.0)
        with pytest.raises(PreconditionError):
            run_trajectory(inst, OptimizerConfig("muon"), Fixed(), np.ones((3, 2)), 2)
