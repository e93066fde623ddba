"""Matrix sign operators: exact (via SVD) and Newton-Schulz.

``msign_exact(Z)`` is the nearest matrix with orthonormal rows or columns in
Frobenius norm, computed as left @ right.T from the compact SVD.  Components
with sigma below the rank cutoff contribute zero, which extends the operator
continuously to rank-deficient input (msign(0) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import RANK_TOL, check_matrix


@dataclass(frozen=True)
class NewtonSchulzConfig:
    """Parameters of the cubic Newton-Schulz iteration.

    The cubic map 1.5*X - 0.5*X @ X.T @ X contracts every singular value in
    (0, sqrt(3)) toward 1; Frobenius pre-normalization puts the seed inside
    that basin.
    """

    max_iters: int = 64
    orth_tol: float = 1e-8
    coefficients: tuple[float, float] = (1.5, -0.5)

    def __post_init__(self):
        if self.max_iters < 1:
            raise PreconditionError("max_iters must be >= 1")
        if self.orth_tol <= 0:
            raise PreconditionError("orth_tol must be positive")


@dataclass(frozen=True)
class NewtonSchulzResult:
    matrix: np.ndarray
    iterations: int
    residual: float
    converged: bool


def msign_exact(z) -> np.ndarray:
    """Exact matrix sign U_Z @ V_Z.T from the compact SVD of Z; non-2-D or
    non-finite Z raises ``PreconditionError``."""
    z = check_matrix(z, "msign input")
    return _msign_from_svd(*np.linalg.svd(z, full_matrices=False))


def _msign_from_svd(u, s, vt) -> np.ndarray:
    """msign from a trusted compact SVD.  A Fortran-ordered right factor
    multiplies bitwise as U @ V.T always has, which a C-ordered one does not."""
    r = int(np.count_nonzero(s > RANK_TOL * s[:1]))
    return u[:, :r] @ np.asfortranarray(vt[:r])


def msign_newton_schulz(z, config: NewtonSchulzConfig | None = None) -> NewtonSchulzResult:
    """Approximate matrix sign via the cubic Newton-Schulz iteration.

    The iteration is seeded at Z / ||Z||_F and stopped once the small-side
    Gram matrix is within ``orth_tol`` of the identity in Frobenius norm.
    Accuracy is only guaranteed in the documented regime
    sigma_min/sigma_max >= 1e-3; outside it the result is returned with
    ``converged=False`` instead of raising, so long experiments can log the
    event and continue.
    """
    z = check_matrix(z, "msign input")
    if config is None:
        config = NewtonSchulzConfig()
    norm = np.linalg.norm(z)
    if norm == 0.0:
        raise PreconditionError("msign_newton_schulz: input is the zero matrix")
    a, b = config.coefficients
    d, k = z.shape
    x = z / norm
    m = min(d, k)
    residual = np.inf
    for it in range(1, config.max_iters + 1):
        if d >= k:
            gram = x.T @ x
            x = a * x + b * (x @ gram)
            gram = x.T @ x
        else:
            gram = x @ x.T
            x = a * x + b * (gram @ x)
            gram = x @ x.T
        residual = float(np.linalg.norm(gram - np.eye(m)))
        if residual <= config.orth_tol:
            return NewtonSchulzResult(matrix=x, iterations=it, residual=residual, converged=True)
    return NewtonSchulzResult(
        matrix=x, iterations=config.max_iters, residual=residual, converged=False
    )
