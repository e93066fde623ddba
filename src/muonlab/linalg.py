"""Dense linear algebra kernels used throughout the library.

Everything is double precision and desk scale (matrices up to a few hundred
rows), so the implementations lean on LAPACK via ``numpy.linalg`` and add the
contracts the rest of the library relies on: descending spectra, compact SVD
with an explicit effective-rank cutoff, sign-normalized QR, and structured
errors for violated preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, RankDeficiencyError

# Relative cutoff below which a singular value counts as numerically zero.
RANK_TOL = 1e-12


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array with finite entries.

    Raises
    ------
    PreconditionError
        If the input is not 2-D or contains NaN/Inf.
    """
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise PreconditionError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise PreconditionError(f"{name} contains non-finite entries")
    return out


def check_matrices(shape: tuple[int, ...], **named) -> list[np.ndarray]:
    """``check_matrix`` on each keyword argument (its name labels errors),
    then ``PreconditionError`` unless each has ``shape``; returns the
    coerced arrays in argument order."""
    out = []
    for name, a in named.items():
        a = check_matrix(a, name)
        if a.shape != tuple(shape):
            raise PreconditionError(f"{name} must have shape {tuple(shape)}, got {a.shape}")
        out.append(a)
    return out


@dataclass(frozen=True)
class SymEigFactors:
    """Eigendecomposition A = V @ diag(eigenvalues) @ V.T.

    ``eigenvalues`` are sorted descending; ``eigenvectors`` holds the matching
    orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        n = self.eigenvalues.shape[0]
        if self.eigenvectors.shape != (self.eigenvectors.shape[0], n):
            raise PreconditionError("eigenvector/eigenvalue shape mismatch")
        if not (np.all(np.isfinite(self.eigenvalues)) and np.all(np.isfinite(self.eigenvectors))):
            raise PreconditionError("non-finite eigendecomposition")

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


@dataclass(frozen=True)
class SvdFactors:
    """Compact SVD Z = left @ diag(singular_values) @ right.T.

    Only components with sigma_i > RANK_TOL * sigma_1 are kept, so ``rank``
    (the number of retained singular values) is the numerical rank.  An
    all-zero input yields empty factors with ``rank == 0``.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        r = self.singular_values.shape[0]
        if self.left.shape[1] != r or self.right.shape[1] != r:
            raise PreconditionError("SVD factor shape mismatch")
        if r and not np.all(np.diff(self.singular_values) <= 0):
            raise PreconditionError("singular values must be descending")

    @property
    def rank(self) -> int:
        return int(self.singular_values.shape[0])

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.T


def symmetric_eig(a) -> SymEigFactors:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input must be square and symmetric to 1e-12 relative in Frobenius
    norm; asymmetry beyond that raises ``PreconditionError`` rather than
    being silently symmetrized.
    """
    a = check_matrix(a, "symmetric_eig input")
    n, m = a.shape
    if n != m:
        raise PreconditionError(f"symmetric_eig needs a square matrix, got {n}x{m}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > 1e-12 * max(scale, 1e-300):
        raise PreconditionError("symmetric_eig input is not symmetric to 1e-12 relative")
    vals, vecs = np.linalg.eigh(a)
    return SymEigFactors(eigenvalues=vals[::-1].copy(), eigenvectors=vecs[:, ::-1].copy())


def _numerical_rank(s: np.ndarray) -> int:
    """How many of the descending singular values ``s`` exceed RANK_TOL * sigma_1."""
    return int(np.count_nonzero(s > RANK_TOL * s[:1]))


def svd(z) -> SvdFactors:
    """Compact SVD with effective-rank truncation at RANK_TOL * sigma_1."""
    z = check_matrix(z, "svd input")
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    r = _numerical_rank(s)
    return SvdFactors(left=u[:, :r].copy(), singular_values=s[:r].copy(), right=vt[:r].T.copy())


def qr_householder(g):
    """Thin QR of a tall matrix with a nonnegative diagonal of R.

    Returns (Q, R) with Q of shape (d, k) orthonormal and R upper triangular;
    the sign of each R diagonal entry is absorbed into the matching column of
    Q so the factorization is unique for full-rank input.
    """
    g = check_matrix(g, "qr input")
    d, k = g.shape
    if d < k:
        raise PreconditionError(f"qr_householder needs d >= k, got {d}x{k}")
    q, r = np.linalg.qr(g, mode="reduced")
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs, signs[:, None] * r


def spectral_norm(z) -> float:
    """Largest singular value; 0.0 for an all-zero matrix."""
    z = check_matrix(z, "spectral_norm input")
    s = np.linalg.svd(z, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def condition_number(a, rank: int) -> float:
    """lambda_1 / lambda_rank of a symmetric PSD matrix of declared rank.

    Raises ``RankDeficiencyError`` when the declared rank exceeds the
    numerical rank (lambda_rank <= RANK_TOL * lambda_1).
    """
    factors = symmetric_eig(a)
    n = factors.eigenvalues.shape[0]
    if not 1 <= rank <= n:
        raise PreconditionError(f"declared rank {rank} out of range for {n}x{n} matrix")
    lam1 = factors.eigenvalues[0]
    lam_r = factors.eigenvalues[rank - 1]
    if lam1 <= 0.0 or lam_r <= RANK_TOL * lam1:
        raise RankDeficiencyError(
            f"matrix is rank deficient at declared rank {rank}: "
            f"lambda_1={lam1:.3e}, lambda_r={lam_r:.3e}"
        )
    return float(lam1 / lam_r)
