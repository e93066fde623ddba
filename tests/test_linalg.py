"""Dense linear algebra kernel contracts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from muonlab import PreconditionError, RandomStream, qr_householder


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
