"""Dense linear algebra kernel contracts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from muonlab import PreconditionError, RandomStream, qr_householder, symmetric_eig


class TestSymmetricEig:
    def test_identity(self):
        f = symmetric_eig(np.eye(3))
        assert_allclose(f.eigenvalues, np.ones(3))
        assert_allclose(f.eigenvectors.T @ f.eigenvectors, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        f = symmetric_eig(np.diag([5.0, 2.0, -1.0]))
        assert_allclose(f.eigenvalues, [5.0, 2.0, -1.0])
        # permutation-signed identity: one +-1 per row/column
        assert_allclose(np.abs(f.eigenvectors), np.eye(3), atol=1e-12)

    def test_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 = 1 -> x in {3, 1}
        f = symmetric_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(f.eigenvalues, [3.0, 1.0], atol=1e-12)
        v0 = f.eigenvectors[:, 0] * np.sign(f.eigenvectors[0, 0])
        v1 = f.eigenvectors[:, 1] * np.sign(f.eigenvectors[0, 1])
        assert_allclose(v0, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
        assert_allclose(v1, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            symmetric_eig(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(PreconditionError):
            symmetric_eig(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(PreconditionError):
            symmetric_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_reconstruction_random(self):
        stream = RandomStream(3)
        for _ in range(20):
            n = 2 + int(stream.uniform(0, 63))
            g = stream.gaussian_matrix(n, n)
            a = (g + g.T) / 2.0
            f = symmetric_eig(a)
            assert np.all(np.diff(f.eigenvalues) <= 1e-12)
            assert np.linalg.norm(f.eigenvectors.T @ f.eigenvectors - np.eye(n)) <= 1e-10 * n
            rebuilt = (f.eigenvectors * f.eigenvalues) @ f.eigenvectors.T
            assert np.linalg.norm(rebuilt - a) <= 1e-10 * max(1.0, np.linalg.norm(a))


class TestQr:
    def test_identity(self):
        q, r = qr_householder(np.eye(3))
        assert_allclose(q, np.eye(3), atol=1e-12)
        assert_allclose(r, np.eye(3), atol=1e-12)

    def test_single_column(self):
        q, r = qr_householder(np.array([[3.0], [4.0]]))
        assert_allclose(q, np.array([[0.6], [0.8]]), atol=1e-12)
        assert_allclose(r, np.array([[5.0]]), atol=1e-12)

    def test_random_invariants(self):
        stream = RandomStream(11)
        for _ in range(20):
            k = 1 + int(stream.uniform(0, 16))
            d = k + int(stream.uniform(0, 16))
            g = stream.gaussian_matrix(d, k)
            q, r = qr_householder(g)
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-10
            assert np.linalg.norm(q @ r - g) <= 1e-10 * max(1.0, np.linalg.norm(g))
            assert np.all(np.diag(r) >= 0)
            assert_allclose(r, np.triu(r), atol=1e-12)

    def test_rejects_wide(self):
        with pytest.raises(PreconditionError):
            qr_householder(np.zeros((2, 3)))
