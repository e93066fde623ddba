"""The factorization spectral error ||U U^T - M|| from its rank-(k+r) core
agrees with the dense spectral norm on both sides of the dispatch rule, and
a d = 100 trajectory stops where the dense reference would.  Each instance's
stacked error kernel equals its per-matrix error bitwise, and the floor it
derives from the loss stays below the error."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muonlab import RandomStream, first_hit_time, make_icl_instance, make_mf_instance
from muonlab.experiments import default_eta0, scaled_orthonormal_init
from muonlab.optimizers import OptimizerConfig, PlateauSchedule, run_trajectory

PROPERTY = settings(max_examples=60, deadline=None)
KINDS = ("random", "near_converged", "zero")


@st.composite
def shapes(draw, low_rank: bool):
    """(d, r, k) with r <= min(d, k), d <= 40, on one side of 2(k + r) <= d."""
    if low_rank:
        d = draw(st.integers(4, 40))
        r = draw(st.integers(1, d // 4))
        k = draw(st.integers(r, d // 2 - r))
    else:
        d = draw(st.integers(1, 40))
        r = draw(st.integers(1, d))
        k = draw(st.integers(max(r, d // 2 + 1 - r), 40))
    assert (2 * (k + r) <= d) == low_rank
    return d, r, k


def _iterate(inst, kind: str, stream: RandomStream) -> np.ndarray:
    d, r, k = inst.d, inst.r, inst.k
    if kind == "zero":
        return np.zeros((d, k))
    if kind == "random":
        return stream.gaussian_matrix(d, k)
    # [V sqrt(lam), 0] O + 1e-13 noise: U U^T - M is of order 1e-13
    aligned = np.zeros((d, k))
    aligned[:, :r] = inst.eigenvectors * np.sqrt(inst.eigenvalues)
    return aligned @ stream.haar_orthonormal(k, k) + 1e-13 * stream.gaussian_matrix(d, k)


@pytest.mark.parametrize("low_rank", [True, False])
@PROPERTY
@given(data=st.data())
def test_agrees_with_dense_spectral_norm(low_rank, data):
    d, r, k = data.draw(shapes(low_rank))
    kappa = 1.0 if r == 1 else data.draw(st.floats(1.0, 1e3))
    lam_max = data.draw(st.floats(0.1, 10.0))
    kind = data.draw(st.sampled_from(KINDS))
    stream = RandomStream(data.draw(st.integers(0, 2**31)))
    inst = make_mf_instance(stream.derive(1), d, r, k, kappa, lambda_max=lam_max)
    u = _iterate(inst, kind, stream.derive(2))
    dense = np.linalg.norm(u @ u.T - inst.target, 2)
    scale = max(1.0, np.linalg.norm(u, 2) ** 2, inst.lambda_max)
    assert abs(inst.spectral_error(u) - dense) <= 1e-14 * scale


def test_icl_error_is_the_dense_spectral_norm():
    inst = make_icl_instance(RandomStream(3), d=20, kappa_s=10.0, with_samples=False)
    q = RandomStream(4).gaussian_matrix(20, 20)
    assert inst.spectral_error(q) == np.linalg.norm(q - inst.inverse, 2)


def test_d100_muon_first_hit_matches_dense_reference():
    """A d = 100, k = 2 Muon run (low-rank core) stops at 1e-10 on the step
    where the dense error of the same iterates first reaches 1e-10."""
    master = RandomStream(42)
    inst = make_mf_instance(master.derive(1002), 100, 2, 2, 5.0, lambda_max=1.0)
    init = scaled_orthonormal_init(master.derive(2002), 100, 2, 0.1)
    traj = run_trajectory(
        inst, OptimizerConfig("muon"), PlateauSchedule(initial_eta=default_eta0("muon", inst)),
        init, 5000, stream=master.derive(3002), keep_iterates=True, stop_below=1e-10,
    )
    dense = [np.linalg.norm(u @ u.T - inst.target, 2) for u in traj.iterates]
    hit = first_hit_time([rec.spectral_error for rec in traj.records], 1e-10)
    assert hit <= 5000
    assert hit == first_hit_time(dense, 1e-10)


@pytest.mark.parametrize("low_rank", [True, False])
@PROPERTY
@given(data=st.data())
def test_stacked_errors_are_the_per_matrix_errors(low_rank, data):
    d, r, k = data.draw(shapes(low_rank))
    kappa = 1.0 if r == 1 else data.draw(st.floats(1.0, 1e3))
    stream = RandomStream(data.draw(st.integers(0, 2**31)))
    inst = make_mf_instance(stream.derive(1), d, r, k, kappa)
    kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    us = np.stack([_iterate(inst, kind, stream.derive(2 + i)) for i, kind in enumerate(kinds)])
    assert inst.spectral_errors(us).tolist() == [inst.spectral_error(u) for u in us]


@PROPERTY
@given(d=st.integers(1, 20), n=st.integers(1, 6), seed=st.integers(0, 2**31))
def test_icl_stacked_errors_are_the_per_matrix_errors(d, n, seed):
    stream = RandomStream(seed)
    inst = make_icl_instance(stream.derive(1), d, 1.0 if d == 1 else 10.0, with_samples=False)
    qs = stream.derive(2).gaussian_matrix(n * d, d).reshape(n, d, d)
    assert inst.spectral_errors(qs).tolist() == [inst.spectral_error(q) for q in qs]


@PROPERTY
@given(data=st.data())
def test_mf_error_floor_is_below_the_error(data):
    d, r, k = data.draw(shapes(data.draw(st.booleans())))
    kappa = 1.0 if r == 1 else data.draw(st.floats(1.0, 1e3))
    lam_max = 10.0 ** data.draw(st.floats(-3.0, 3.0))
    stream = RandomStream(data.draw(st.integers(0, 2**31)))
    inst = make_mf_instance(stream.derive(1), d, r, k, kappa, lambda_max=lam_max)
    u = _iterate(inst, data.draw(st.sampled_from(KINDS)), stream.derive(2))
    assert inst.error_floor(inst.loss_grad(u)[0]) <= inst.spectral_error(u)


@PROPERTY
@given(data=st.data())
def test_icl_error_floor_is_below_the_error(data):
    d = data.draw(st.integers(1, 20))
    kappa = 1.0 if d == 1 else data.draw(st.floats(1.0, 1e3))
    lam_max = 10.0 ** data.draw(st.floats(-3.0, 3.0))
    stream = RandomStream(data.draw(st.integers(0, 2**31)))
    inst = make_icl_instance(stream.derive(1), d, kappa, sigma_min=lam_max / kappa, with_samples=False)
    kind = data.draw(st.sampled_from(KINDS))
    q = {"zero": np.zeros((d, d)), "random": stream.derive(2).gaussian_matrix(d, d) / inst.sigma_min,
         "near_converged": inst.inverse + 1e-13 * stream.derive(2).gaussian_matrix(d, d)}[kind]
    assert inst.error_floor(inst.loss_grad(q)[0]) <= inst.spectral_error(q)


@pytest.mark.parametrize("lam_max", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("d, r, k", [(2, 1, 1), (8, 2, 2), (30, 2, 3), (12, 3, 9)])
def test_error_floor_where_it_is_tight(lam_max, d, r, k):
    """Factor columns orthogonal to M's range with U U^T = lam P: the k + r
    eigenvalues of U U^T - M all have size lam, so floor and error meet."""
    inst = make_mf_instance(RandomStream(d), d, r, k, 1.0, lambda_max=lam_max)
    basis = np.linalg.qr(np.hstack([inst.eigenvectors, RandomStream(d + 1).gaussian_matrix(d, k)]))[0]
    u = basis[:, r:] * np.sqrt(lam_max)
    err = inst.spectral_error(u)
    assert err == pytest.approx(2.0 * np.sqrt(inst.loss_grad(u)[0]) / np.sqrt(k + r), rel=1e-12)
    assert inst.error_floor(inst.loss_grad(u)[0]) <= err


@pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("d", [1, 5, 20])
def test_icl_error_floor_where_it_is_tight(sigma, d):
    """S = sigma I and Q = S^-1 + c I: ||S E S^1/2||_F = sigma^3/2 sqrt(d) |c|."""
    inst = make_icl_instance(RandomStream(d), d, 1.0, sigma_min=sigma, with_samples=False)
    for c in (1e-12 / sigma, 1.0 / sigma):
        q = inst.inverse + c * np.eye(d)
        err = inst.spectral_error(q)
        assert err == pytest.approx(c, rel=1e-3)
        assert inst.error_floor(inst.loss_grad(q)[0]) <= err
