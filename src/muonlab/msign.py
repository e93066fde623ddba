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
    if s[-1] > RANK_TOL * s[0]:  # full rank: s is descending
        return u @ np.asfortranarray(vt)
    r = int(np.count_nonzero(s > RANK_TOL * s[:1]))
    return u[:, :r] @ np.asfortranarray(vt[:r])


# The Newton-Schulz iteration budget, and the Frobenius distance of the
# small-side Gram matrix from the identity at which it stops.
NS_MAX_ITERS = 64
NS_ORTH_TOL = 1e-8


def msign_newton_schulz(z) -> NewtonSchulzResult:
    """Approximate matrix sign via the cubic Newton-Schulz iteration.

    The cubic map 1.5*X - 0.5*X @ X.T @ X contracts every singular value in
    (0, sqrt(3)) toward 1; seeding the iteration at Z / ||Z||_F puts it
    inside that basin.  It stops once the small-side Gram matrix is within
    ``NS_ORTH_TOL`` of the identity, or after ``NS_MAX_ITERS`` steps.
    Accuracy is only guaranteed in the documented regime
    sigma_min/sigma_max >= 1e-3; outside it the result is returned with
    ``converged=False`` instead of raising, so long experiments can log the
    event and continue.
    """
    z = check_matrix(z, "msign input")
    wide = z.shape[0] < z.shape[1]  # msign(Z^T) = msign(Z)^T: iterate on the tall side
    x = np.ascontiguousarray(z.T if wide else z)  # one layout: a wide run is its transpose's
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise PreconditionError("msign_newton_schulz: input is the zero matrix")
    x = x / norm
    eye = np.eye(x.shape[1])
    gram = x.T @ x  # each Gram serves one residual and the next step
    for it in range(1, NS_MAX_ITERS + 1):
        x = 1.5 * x - 0.5 * (x @ gram)
        gram = x.T @ x
        residual = float(np.linalg.norm(gram - eye))
        if residual <= NS_ORTH_TOL:
            break
    return NewtonSchulzResult(matrix=x.T if wide else x, iterations=it, residual=residual,
                              converged=residual <= NS_ORTH_TOL)
