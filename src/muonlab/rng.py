"""Deterministic, seedable random sources.

A ``RandomStream`` wraps numpy's PCG64 bit generator (O'Neill's permuted
congruential generator, the documented default of ``numpy.random``) seeded
through ``SeedSequence((seed, stream_id))``.  All Gaussian draws go through an
explicit Box-Muller transform on PCG64 uniforms, with both outputs of each
pair consumed in order, so a (seed, stream_id, call order) triple pins every
sequence this library produces, independent of numpy's own normal sampler.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .linalg import qr_householder

# Box-Muller pairs per block of ``RandomStream.gaussians``: bounds its
# temporaries; the transform is elementwise, so it never changes a draw.
GAUSSIAN_BLOCK_PAIRS = 8192


class RandomStream:
    """Single-owner random source; derive one stream per trajectory.

    Two streams built from the same (seed, stream_id) reproduce identical
    sequences; distinct stream_ids under one master seed are independent for
    practical purposes.  Instances are mutable and must not be shared between
    concurrent consumers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise PreconditionError("seed and stream_id must be nonnegative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream_id))))
        self._cached_gaussian: float | None = None

    def derive(self, stream_id: int) -> "RandomStream":
        """Child stream under the same master seed."""
        return RandomStream(self.seed, stream_id)

    def after_gaussians(self, n: int) -> "RandomStream":
        """A copy of this stream past the uniforms of n more normals (their
        Box-Muller pairs, after any sine cached here), caching no sine; this
        stream does not move.  PCG64 jumps there in O(log n) steps, so a caller
        can draw what follows a long draw before, or alongside, the draw itself."""
        if n < 0:
            raise PreconditionError(f"cannot skip {n} normals")
        ahead = RandomStream(self.seed, self.stream_id)
        ahead._gen.bit_generator.state = self._gen.bit_generator.state
        ahead.skip(2 * ((n - (self._cached_gaussian is not None) + 1) // 2))
        return ahead

    def skip(self, n: int) -> None:
        """Move this stream n uniforms ahead in place, in O(log n) steps,
        keeping any cached Box-Muller sine."""
        if n < 0:
            raise PreconditionError(f"cannot skip {n} uniforms")
        self._gen.bit_generator.advance(n)

    def uniform(self, lo: float, hi: float) -> float:
        """One draw from the half-open interval [lo, hi)."""
        if not lo < hi:
            raise PreconditionError(f"uniform needs lo < hi, got [{lo}, {hi})")
        return lo + (hi - lo) * float(self._gen.random())

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        if not lo < hi:
            raise PreconditionError(f"uniform needs lo < hi, got [{lo}, {hi})")
        return lo + (hi - lo) * self._gen.random(n)

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller pairs, leftover output cached."""
        out = np.empty(n)
        start = 0
        if self._cached_gaussian is not None and n > 0:
            out[0] = self._cached_gaussian
            self._cached_gaussian = None
            start = 1
        while start < n:
            pairs = min((n - start + 1) // 2, GAUSSIAN_BLOCK_PAIRS)
            # each pair consumes two consecutive uniforms, so blocked, batched
            # and one-at-a-time calls walk the underlying stream identically
            u = self._gen.random(2 * pairs)
            # 1 - u lies in (0, 1], keeping the log finite.
            radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
            angle = 2.0 * np.pi * u[1::2]
            stop = min(start + 2 * pairs, n)
            out[start:stop:2] = radius * np.cos(angle)
            sines = radius * np.sin(angle)
            out[start + 1 : stop : 2] = sines[: (stop - start) // 2]
            if stop - start < 2 * pairs:
                self._cached_gaussian = float(sines[-1])
            start = stop
        return out

    def gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols i.i.d. standard normals, filled row-major."""
        return self.gaussians(rows * cols).reshape(rows, cols)

    def haar_orthonormal(self, d: int, k: int) -> np.ndarray:
        """d x k matrix with orthonormal columns, Haar-distributed.

        The Q factor of a Gaussian matrix under the sign-normalized QR of
        ``qr_householder`` (nonnegative R diagonal), which is the standard
        Haar-measure correction.
        """
        if k > d:
            raise PreconditionError(f"haar_orthonormal needs k <= d, got d={d}, k={k}")
        q, _ = qr_householder(self.gaussian_matrix(d, k))
        return q
