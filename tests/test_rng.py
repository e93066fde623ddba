"""Deterministic random stream contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from muonlab import PreconditionError, RandomStream


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomStream(42, 7)
        b = RandomStream(42, 7)
        assert [a.uniform(0.0, 1.0) for _ in range(10)] == [
            b.uniform(0.0, 1.0) for _ in range(10)
        ]
        assert_allclose(a.gaussians(11), b.gaussians(11), rtol=0)
        assert_allclose(a.haar_orthonormal(5, 3), b.haar_orthonormal(5, 3), rtol=0)

    def test_distinct_stream_ids_differ(self):
        master = RandomStream(42)
        assert master.derive(1).gaussians(1)[0] != master.derive(2).gaussians(1)[0]

    def test_scalar_vector_gaussian_consistency(self):
        a = RandomStream(9)
        b = RandomStream(9)
        scalars = np.array([a.gaussians(1)[0] for _ in range(5)])
        assert_allclose(scalars, b.gaussians(5), rtol=0)


class TestUniform:
    def test_interval(self):
        stream = RandomStream(1)
        draws = [stream.uniform(1.0, 2.0) for _ in range(1000)]
        assert all(1.0 <= v < 2.0 for v in draws)

    def test_mean(self):
        # law of large numbers: mean of U[1,2) is 1.5
        stream = RandomStream(2)
        assert abs(stream.uniforms(100_000, 1.0, 2.0).mean() - 1.5) <= 0.01

    def test_rejects_bad_interval(self):
        with pytest.raises(PreconditionError):
            RandomStream(0).uniform(2.0, 1.0)


class TestGaussian:
    def test_moments(self):
        z = RandomStream(3).gaussians(100_000)
        assert abs(z.mean()) <= 0.02  # 3 sigma / sqrt(n) headroom
        assert abs(z.var() - 1.0) <= 0.03


class _BlockedBoxMuller:
    """Reference sampler: Box-Muller in blocks of at most 8,192 pairs, each
    block from its own uniform draw, on the generator ``RandomStream(seed,
    stream_id)`` wraps.  Earlier versions drew this way, so the golden digests
    hold only if one pass over a request draws the same bits."""

    def __init__(self, seed, stream_id=0):
        self.gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream_id))))
        self.cached = None

    def gaussians(self, n):
        parts = [] if self.cached is None else [np.array([self.cached])]
        self.cached = None
        rest = n - len(parts)
        while rest > 0:
            pairs = min((rest + 1) // 2, 8192)
            u = self.gen.random(2 * pairs)
            radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
            angle = 2.0 * np.pi * u[1::2]
            z = np.empty(2 * pairs)
            z[0::2] = radius * np.cos(angle)
            z[1::2] = radius * np.sin(angle)
            if 2 * pairs > rest:
                self.cached = float(z[rest])
            parts.append(z[:rest])
            rest -= len(parts[-1])
        return np.concatenate(parts)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestGaussianOnePass:
    """One Box-Muller pass over a request draws the bits of the blocked draw.
    The sizes end on 8,191, 8,192, 8,193 and 16,385 pairs, each with an even
    and an odd count; put the reference's block boundary (8,192 pairs) at the
    last normal, one past it and one short of it; and fill a Monte-Carlo chunk
    (4,096 tasks of d = 6: 24,576 normals)."""

    @pytest.mark.parametrize(
        "n",
        [1, 16_381, 16_382, 16_383, 16_384, 16_385, 16_386, 24_576, 24_577, 32_769, 32_770, 600_000],
    )
    @pytest.mark.parametrize("leftover", [False, True])
    def test_matches_blocked(self, n, leftover):
        stream, ref = RandomStream(11, 3), _BlockedBoxMuller(11, 3)
        if leftover:  # an odd first call caches the second output of its pair
            _assert_same_bits(stream.gaussians(3), ref.gaussians(3))
            assert stream._cached_gaussian == ref.cached is not None
        _assert_same_bits(stream.gaussians(n), ref.gaussians(n))
        assert stream._cached_gaussian == ref.cached
        _assert_same_bits(stream.gaussians(5), ref.gaussians(5))

    def test_split_calls_straddle_a_block_boundary(self):
        stream, ref = RandomStream(12), _BlockedBoxMuller(12)
        first = stream.gaussians(16_381)  # odd: caches its last pair's sine
        second = stream.gaussians(16_391)  # the cached normal, then 8,195 pairs
        _assert_same_bits(np.concatenate([first, second]), ref.gaussians(32_772))
        assert stream._cached_gaussian == ref.cached


class TestAfterGaussians:
    """``after_gaussians(n)`` is a copy of the stream past the uniforms its
    next n normals take, caching no sine, and the stream does not move;
    ``skip(n)`` moves the stream itself n uniforms ahead, keeping its sine."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), cached=st.booleans(), n=st.integers(0, 20_000), k=st.integers(0, 50))
    def test_copy_stands_where_n_normals_leave_the_stream(self, seed, cached, n, k):
        stream, ref = RandomStream(seed, 3), RandomStream(seed, 3)
        if cached:  # one normal caches the sine of its pair
            stream.gaussians(1), ref.gaussians(1)
        state = stream._gen.bit_generator.state
        ahead = stream.after_gaussians(n)
        assert stream._gen.bit_generator.state == state and (stream._cached_gaussian is not None) == cached
        ref.gaussians(n)
        assert ahead._cached_gaussian is None
        assert ahead.uniforms(k).tolist() == ref.uniforms(k).tolist()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(0, 20_000), k=st.integers(1, 50))
    def test_skip_keeps_the_cached_sine(self, seed, n, k):
        stream, ref = RandomStream(seed), RandomStream(seed)
        stream.gaussians(1), ref.gaussians(1)
        stream.skip(n)
        ref.uniforms(n)
        assert stream.gaussians(k).tolist() == ref.gaussians(k).tolist()

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            RandomStream(0).after_gaussians(-1)
        with pytest.raises(PreconditionError):
            RandomStream(0).skip(-1)


class TestHaar:
    @pytest.mark.parametrize("d,k", [(3, 3), (5, 2), (64, 64), (200, 200), (200, 37)])
    def test_orthonormal_columns(self, d, k):
        q = RandomStream(4).haar_orthonormal(d, k)
        assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-10

    def test_rejects_wide(self):
        with pytest.raises(PreconditionError):
            RandomStream(0).haar_orthonormal(2, 3)

    def test_is_the_sign_normalized_q_of_its_gaussian(self):
        # q^T g is R: upper triangular with a nonnegative diagonal, and q spans g
        sizes = RandomStream(11)
        for i in range(20):
            k = 1 + int(sizes.uniform(0, 16))
            d = k + int(sizes.uniform(0, 16))
            q = RandomStream(12, i).haar_orthonormal(d, k)
            g = RandomStream(12, i).gaussian_matrix(d, k)  # its twin stream's draw
            r = q.T @ g
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-10
            assert np.linalg.norm(q @ r - g) <= 1e-10 * max(1.0, np.linalg.norm(g))
            assert_allclose(r, np.triu(r), atol=1e-12)
            assert np.all(np.diag(r) >= 0)

    def test_first_entry_second_moment(self):
        # a Haar column's first coordinate is uniform on the sphere:
        # E[Q_11^2] = 1/d, Var[Q_11^2] = 2(d-1)/(d^2(d+2))
        d, n = 4, 10_000
        stream = RandomStream(5)
        vals = np.array([stream.haar_orthonormal(d, 2)[0, 0] ** 2 for _ in range(n)])
        se = np.sqrt(2.0 * (d - 1) / (d**2 * (d + 2)) / n)
        assert abs(vals.mean() - 1.0 / d) <= 3.0 * se

    def test_rotation_invariance_statistic(self):
        d, n = 4, 10_000
        w = RandomStream(99).haar_orthonormal(d, d)
        stream = RandomStream(6)
        plain, rotated = np.empty(n), np.empty(n)
        for i in range(n):
            q = stream.haar_orthonormal(d, 2)
            plain[i] = q[0, 0] ** 2
            rotated[i] = (w @ q)[0, 0] ** 2
        se = np.sqrt(plain.var(ddof=1) / n + rotated.var(ddof=1) / n)
        assert abs(plain.mean() - rotated.mean()) <= 3.0 * se
