"""Dense linear algebra kernels used throughout the library.

Everything is double precision and desk scale (matrices up to a few hundred
rows), so the implementations lean on LAPACK via ``numpy.linalg`` and add the
contracts the rest of the library relies on: an explicit effective-rank
cutoff, sign-normalized QR, and structured errors for violated
preconditions.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

# Relative cutoff below which a singular value counts as numerically zero.
RANK_TOL = 1e-12


def check_matrix(a, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array with finite entries and, unless
    ``shape`` is None, that shape.

    Raises
    ------
    PreconditionError
        If the input is not 2-D, contains NaN/Inf or has another shape; its
        message names the input ``name``.
    """
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise PreconditionError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise PreconditionError(f"{name} contains non-finite entries")
    if shape is not None and out.shape != tuple(shape):
        raise PreconditionError(f"{name} must have shape {tuple(shape)}, got {out.shape}")
    return out


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
