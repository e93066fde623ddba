"""Bitwise guards for the per-step kernels of ``run_trajectory``.

Each kernel was rewritten to drop numpy calls whose answer the driver
already has.  Every test keeps the earlier expression as its reference and
requires the kernel to return the same bits, so the sweep outputs cannot
move through these kernels.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from muonlab import RandomStream, make_icl_instance, make_mf_instance
from muonlab.linalg import RANK_TOL
from muonlab.msign import _msign_from_svd
from muonlab.optimizers import MuonState, OptimizerConfig, _muon_update

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
    inst = make_icl_instance(RandomStream(draw(SEEDS)), d, kappa, with_samples=False)
    return inst, draw(arrays(np.float64, (d, d), elements=ENTRIES))


class TestLossGrad:
    @PROPERTY
    @given(mf_points())
    def test_mf_bitwise_the_np_sum_form(self, point):
        inst, u = point
        delta = u @ u.T - inst.target
        loss, grad = inst.loss_grad(u)
        assert same_bits(loss, 0.25 * float(np.sum(delta * delta)))
        assert same_bits(grad, delta @ u)

    @PROPERTY
    @given(icl_points())
    def test_icl_bitwise_the_eye_and_trace_form(self, point):
        inst, q = point
        s = inst.covariance
        resid = s @ q - np.eye(inst.d)
        loss, grad = inst.loss_grad(q)
        assert same_bits(loss, 0.5 * float(np.trace(resid @ s @ resid.T)))
        assert same_bits(grad, s @ resid @ s)

    def test_icl_leaves_its_input_and_covariance_alone(self):
        inst = make_icl_instance(RandomStream(3), 5, 10.0, with_samples=False)
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
        state = MuonState.zeros(x.shape)
        out, state_out, converged = _muon_update(
            x, grad, eta, state, OptimizerConfig("muon"), np.linalg.svd(grad, full_matrices=False))
        assert same_bits(out, x)
        assert state_out is state and converged
