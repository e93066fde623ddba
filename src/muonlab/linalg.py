"""The contracts the library's dense linear algebra relies on.

Everything is double precision and desk scale (matrices up to a few hundred
rows), so the library leans on LAPACK via ``numpy.linalg``; this module adds
an explicit effective-rank cutoff and structured errors for violated
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
