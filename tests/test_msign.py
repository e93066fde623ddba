"""Matrix sign operator contracts: exact and Newton-Schulz."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from muonlab import (
    PreconditionError,
    RandomStream,
    msign_exact,
    msign_newton_schulz,
)
from muonlab import msign
from muonlab.linalg import RANK_TOL


def random_with_spectrum(stream, d, k, svals):
    u = stream.haar_orthonormal(d, k)
    v = stream.haar_orthonormal(k, k)
    return (u * svals) @ v.T


class TestMsignExact:
    def test_identity(self):
        assert_allclose(msign_exact(np.eye(2)), np.eye(2), atol=1e-12)

    def test_diagonal_sign(self):
        assert_allclose(msign_exact(np.diag([3.0, -2.0])), np.diag([1.0, -1.0]), atol=1e-12)

    def test_rotation_like(self):
        z = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert_allclose(msign_exact(z), np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)

    def test_zero_matrix(self):
        assert_allclose(msign_exact(np.zeros((3, 2))), np.zeros((3, 2)))

    def test_rank_deficient_diagonal(self):
        d = np.diag([4.0, -1.0, 0.0])
        assert_allclose(msign_exact(d), np.diag(np.sign(np.diag(d))), atol=1e-12)

    def test_properties_random(self):
        # orthogonality on the effective rank, idempotence, scale invariance
        stream = RandomStream(101)
        for _ in range(200):
            d = 2 + int(stream.uniform(0, 31))
            k = 1 + int(stream.uniform(0, min(d, 16)))
            z = stream.gaussian_matrix(d, k)
            m = msign_exact(z)
            gram = m.T @ m if d >= k else m @ m.T
            assert np.linalg.norm(gram - np.eye(min(d, k))) <= 1e-10
            assert np.linalg.norm(msign_exact(m) - m, 2) <= 1e-10
            c = stream.uniform(1e-3, 1e3)
            assert np.linalg.norm(msign_exact(c * z) - m, 2) <= 1e-10

    def test_diagonal_factorization_identity(self):
        # msign(V D R^T) = V sign(D) R^T for orthonormal V, R, diagonal D with distinct |D|
        stream = RandomStream(103)
        v = stream.haar_orthonormal(8, 4)
        r = stream.haar_orthonormal(5, 4)
        d = np.diag([3.0, -2.0, 1.0, -0.5])
        lhs = msign_exact(v @ d @ r.T)
        rhs = v @ np.diag(np.sign(np.diag(d))) @ r.T
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-10


PROPERTY = settings(max_examples=100, deadline=None)
DIMS = st.integers(1, 12)


@st.composite
def spectral_inputs(draw, full_rank=False, dims=DIMS, deficient=False):
    """(Z, rank) with Z = U diag(s) V^T for Haar U, V, rank-many singular
    values spanning at most four decades, and Z's overall scale anywhere in
    1e-100..1e100.  ``deficient`` draws rank < min(d, k)."""
    d, k = draw(dims), draw(dims)
    assume(not deficient or min(d, k) >= 2)
    r = min(d, k) if full_rank else draw(st.integers(1, min(d, k) - int(deficient)))
    stream = RandomStream(draw(st.integers(0, 2**32 - 1)))
    svals = 10.0 ** (draw(st.floats(-100.0, 100.0)) - np.sort(stream.uniforms(r, 0.0, 4.0)))
    return (stream.haar_orthonormal(d, r) * svals) @ stream.haar_orthonormal(k, r).T, r


class TestMsignExactProperties:
    @PROPERTY
    @given(spectral_inputs(full_rank=True))
    def test_orthonormal_on_full_rank(self, zr):
        z, r = zr
        m = msign_exact(z)
        gram = m.T @ m if z.shape[0] >= z.shape[1] else m @ m.T
        assert np.linalg.norm(gram - np.eye(r)) <= 1e-12

    @PROPERTY
    @given(spectral_inputs())
    def test_idempotent(self, zr):
        m = msign_exact(zr[0])
        assert np.linalg.norm(msign_exact(m) - m, 2) <= 1e-12

    @PROPERTY
    @given(spectral_inputs(), st.floats(-100.0, 100.0))
    def test_positive_scale_invariant(self, zr, log_c):
        z = zr[0]
        assert np.linalg.norm(msign_exact(10.0**log_c * z) - msign_exact(z), 2) <= 1e-9

    @PROPERTY
    @given(spectral_inputs(dims=st.integers(12, 40)))
    def test_bitwise_the_compact_svd_product(self, zr):
        # the one msign arithmetic rounds as U @ V.T of copied rank-r compact
        # SVD factors; from about 17 x 17 up, U @ Vt with a C-ordered Vt does not
        u, s, vt = np.linalg.svd(zr[0], full_matrices=False)
        r = np.count_nonzero(s > RANK_TOL * s[0])
        left, right = u[:, :r].copy(), vt[:r].T.copy()
        assert np.array_equal(msign_exact(zr[0]), left @ right.T)

    @given(DIMS, DIMS)
    def test_zero_maps_to_zero(self, d, k):
        m = msign_exact(np.zeros((d, k)))
        assert m.shape == (d, k)
        assert not np.any(m) and not np.any(np.signbit(m))


class TestMsignExactRankDeficient:
    # rank-deficient input takes the count-and-slice side of the rank rule,
    # full-rank input (above) the side that skips it

    @PROPERTY
    @given(spectral_inputs(deficient=True))
    def test_partial_isometry(self, zr):
        z, r = zr
        svals = np.linalg.svd(msign_exact(z), compute_uv=False)
        assert np.abs(svals[:r] - 1.0).max() <= 1e-12 and np.abs(svals[r:]).max() <= 1e-12

    @PROPERTY
    @given(spectral_inputs(deficient=True))
    def test_idempotent(self, zr):
        m = msign_exact(zr[0])
        assert np.linalg.norm(msign_exact(m) - m, 2) <= 1e-12

    @PROPERTY
    @given(spectral_inputs(deficient=True), st.floats(-100.0, 100.0))
    def test_positive_scale_invariant(self, zr, log_c):
        z = zr[0]
        assert np.linalg.norm(msign_exact(10.0**log_c * z) - msign_exact(z), 2) <= 1e-9


class TestNewtonSchulz:
    def test_unit_column_fixed_point(self):
        # a unit column has ||Z||_F = 1, so the seed is already the sign:
        # X X^T X = X and the first iterate leaves it unchanged
        q = np.array([[0.6], [0.8]])
        res = msign_newton_schulz(q)
        assert res.converged
        assert res.iterations == 1
        assert res.residual <= 1e-14
        assert_allclose(res.matrix, q, atol=1e-14)

    def test_orthonormal_input_recovered(self):
        q = RandomStream(107).haar_orthonormal(6, 3)
        res = msign_newton_schulz(q)
        assert res.converged
        assert np.linalg.norm(res.matrix - q, 2) <= 1e-7

    def test_diagonal_seed_converges_to_identity(self):
        z = np.diag([3.0, 2.0]) / np.sqrt(13.0)
        res = msign_newton_schulz(z)
        assert res.converged
        assert res.iterations <= 64
        assert np.linalg.norm(res.matrix - msign_exact(z), 2) <= 1e-6

    def test_agrees_with_exact_well_conditioned(self):
        stream = RandomStream(109)
        for _ in range(100):
            svals = stream.uniforms(4, 0.1, 1.0)
            svals[::-1].sort()
            svals[0] = 1.0
            z = random_with_spectrum(stream, 8, 4, svals)
            res = msign_newton_schulz(z)
            assert res.converged
            assert np.linalg.norm(res.matrix - msign_exact(z), 2) <= 1e-6

    def test_zero_matrix_rejected(self):
        with pytest.raises(PreconditionError):
            msign_newton_schulz(np.zeros((2, 2)))

    @pytest.mark.parametrize("d, k", [(3, 7), (6, 12)])
    def test_wide_input_is_the_transposed_tall_run(self, d, k):
        # msign(Z^T) = msign(Z)^T: a wide input iterates on its transpose
        z = RandomStream(117).gaussian_matrix(d, k)
        wide, tall = msign_newton_schulz(z), msign_newton_schulz(np.ascontiguousarray(z.T))
        assert wide.converged and (wide.iterations, wide.residual) == (tall.iterations, tall.residual)
        assert np.array_equal(wide.matrix, tall.matrix.T)
        assert np.linalg.norm(wide.matrix - msign_exact(z), 2) <= 1e-6

    def test_stops_at_the_first_iterate_within_tolerance(self, monkeypatch):
        z = random_with_spectrum(RandomStream(111), 6, 3, np.array([1.0, 0.5, 0.1]))
        res = msign_newton_schulz(z)
        assert res.converged and res.residual <= msign.NS_ORTH_TOL
        monkeypatch.setattr(msign, "NS_MAX_ITERS", res.iterations - 1)
        short = msign_newton_schulz(z)
        assert not short.converged and short.residual > msign.NS_ORTH_TOL

    def test_non_convergence_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(msign, "NS_MAX_ITERS", 8)
        stream = RandomStream(113)
        z = random_with_spectrum(stream, 6, 3, np.array([1.0, 1e-7, 1e-8]))
        res = msign_newton_schulz(z)
        assert not res.converged
        assert res.iterations == 8
        assert res.residual > msign.NS_ORTH_TOL

    @pytest.mark.parametrize("d, k, svals, budget", [
        (3, 7, None, 64), (6, 12, None, 64), (8, 4, None, 64), (30, 16, None, 64), (5, 5, None, 64),
        (12, 3, [1.0, 1e-3, 1e-3], 64),  # the edge of the documented regime
        (3, 6, [1.0, 1e-7, 1e-8], 8),  # runs out of its budget
    ])
    def test_one_gram_per_iteration_matches_the_two_gram_loop(self, d, k, svals, budget, monkeypatch):
        # the loop forms X^T X once per iteration and reuses the Gram of the
        # residual as the next step's; the loop that formed it twice stays
        # here as the reference, compared bitwise
        def two_gram_reference(z):
            wide = z.shape[0] < z.shape[1]
            x = np.ascontiguousarray(z.T if wide else z)
            x = x / np.linalg.norm(x)
            eye = np.eye(x.shape[1])
            for it in range(1, msign.NS_MAX_ITERS + 1):
                gram = x.T @ x
                x = 1.5 * x - 0.5 * (x @ gram)
                gram = x.T @ x
                residual = float(np.linalg.norm(gram - eye))
                if residual <= msign.NS_ORTH_TOL:
                    break
            return x.T if wide else x, it, residual, residual <= msign.NS_ORTH_TOL

        monkeypatch.setattr(msign, "NS_MAX_ITERS", budget)
        stream = RandomStream(119)
        if svals is None:
            z = stream.gaussian_matrix(d, k)
        else:
            z = random_with_spectrum(stream, max(d, k), min(d, k), np.array(svals))
            z = z if d >= k else z.T
        res = msign_newton_schulz(z)
        matrix, iterations, residual, converged = two_gram_reference(z)
        assert np.array_equal(res.matrix, matrix)
        assert (res.iterations, res.residual, res.converged) == (iterations, residual, converged)
        assert res.converged == (budget == 64)
