"""The two case-study objectives: symmetric matrix factorization and the
in-context-learning quadratic for linear transformers.

Matrix factorization seeks U with U @ U.T equal to a rank-r PSD target;
the ICL problem seeks the inverse of an empirical covariance S through the
quadratic 0.5 * tr((S@Q - I) @ S @ (S@Q - I).T).  Instance generators place
eigenvalues log-uniformly between the extremes so a requested condition
number exercises the whole spectrum, not just its endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import check_matrix
from .rng import RandomStream

# Tasks per chunk of ``icl_monte_carlo_loss``: bounds its draws and per-task
# temporaries; each task's value is computed from its own row alone, and
# chunked draws walk the stream as one draw does, so chunking never changes one.
ICL_TASK_CHUNK = 4096


def _max_abs_eigs(s: np.ndarray) -> np.ndarray:
    """Each stacked symmetric matrix's spectral norm: its largest |eigenvalue|."""
    w = np.linalg.eigvalsh(s)
    return np.maximum(abs(w[:, 0]), abs(w[:, -1]))


@dataclass(frozen=True)
class MfInstance:
    """Rank-r PSD factorization target M = V diag(lam) V.T in d dimensions.

    ``k`` is the search rank of the factor U (k >= r allows
    over-parameterization).
    """

    d: int
    r: int
    k: int
    eigenvalues: np.ndarray  # (r,), descending, positive
    eigenvectors: np.ndarray  # (d, r), orthonormal columns
    target: np.ndarray  # (d, d) cached V diag(lam) V.T

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    def iterate_shape(self) -> tuple[int, int]:
        return (self.d, self.k)

    @property
    def _dense(self) -> bool:
        # us per call, eigvalsh of the loss's D / core: d = 100, k = 2: 558/61,
        # k = 25: 531/167, k = 66: 517/601, k = 100: 601/735; d = 30, k = 2: 60/64.
        # Hence the core only when 2(k + r) <= d; the rule fixes the outputs' bytes too.
        return 2 * (self.k + self.r) > self.d

    def loss_grad(self, u):
        """Loss 0.25 * ||U U^T - M||_F^2, its gradient (U U^T - M) U, and the
        ``operand_errors`` operand: D = U U^T - M itself if dense, else U.

        Unchecked: U must already be a finite d x k array, as
        ``run_trajectory`` guarantees.  ``mf_loss_grad`` checks first.
        """
        delta = u @ u.T
        delta -= self.target
        if self._dense:  # D is the operand: its square is a copy, freed before the gradient
            return 0.25 * float(np.add.reduce(delta * delta, axis=None)), delta @ u, delta
        grad = delta @ u
        delta *= delta  # the bytes of (delta * delta).sum(), with no other temporaries
        return 0.25 * float(np.add.reduce(delta, axis=None)), grad, u

    def operand_errors(self, ops) -> np.ndarray:
        """Recovery error ||U U^T - M|| of each ``loss_grad`` operand in an
        (n, ...) stack, unchecked.  With [U, V] = Q [A, B], U U^T - M = Q (A A^T
        - B diag(lam) B^T) Q^T: the (k+r) x (k+r) core holds its eigenvalues."""
        if self._dense:
            return _max_abs_eigs(ops)
        v = np.broadcast_to(self.eigenvectors, (len(ops), self.d, self.r))
        rr = np.linalg.qr(np.concatenate([ops, v], axis=2), mode="r")
        a, b = rr[:, :, : self.k], rr[:, :, self.k :]
        return _max_abs_eigs(a @ np.swapaxes(a, 1, 2) - (b * self.eigenvalues) @ np.swapaxes(b, 1, 2))

    def error_floor(self, loss: float) -> float:
        """A lower bound on the computed spectral error from the loss
        alone: error_floor(loss) > s rules out error <= s.

        D = U U^T - M has rank <= rho = min(d, k + r), so ||D|| >= ||D||_F /
        sqrt(rho) = 2 sqrt(loss) / sqrt(rho).  Rounding perturbs D by about
        d (k + r) eps (||U||_F^2 + r lam_max), where ||U||_F^2 <= rho ||D|| +
        r lam_max.  The floor gives up twice its relative and absolute parts
        (measured gaps stay below 1/30 and 1/10 of them, down to d = 2).  A
        contract ``run_trajectory`` relies on: nondecreasing in the loss, as
        sqrt, positive factors and a constant subtracted keep order in floats."""
        rho = min(self.d, self.k + self.r)
        rounding = 2 * self.d * (self.k + self.r) * math.ulp(1.0)
        bound = 2.0 * math.sqrt(loss) / math.sqrt(rho)
        return bound * (1 - rho * rounding) - 2 * rounding * self.r * self.lambda_max


@dataclass(frozen=True)
class IclInstance:
    """Symmetric positive-definite covariance S with cached eigensystem.

    ``samples`` (when present) is an N x d array whose empirical covariance
    equals S exactly; it feeds the Monte-Carlo loss oracle.
    """

    d: int
    covariance: np.ndarray  # S, (d, d)
    eigenvalues: np.ndarray  # (d,), descending, positive
    eigenvectors: np.ndarray  # (d, d)
    inverse: np.ndarray  # S^-1 via the eigensystem
    samples: np.ndarray | None = None

    @property
    def sigma_min(self) -> float:
        return float(self.eigenvalues[-1])

    def iterate_shape(self) -> tuple[int, int]:
        return (self.d, self.d)

    def loss_grad(self, q):
        """Loss 0.5 * tr((SQ - I) S (SQ - I)^T), gradient S (SQ - I) S and Q.

        Unchecked: Q must already be a finite d x d array, as
        ``run_trajectory`` guarantees.  ``icl_loss_grad`` checks first.
        """
        s = self.covariance
        resid = s @ q
        resid.ravel()[:: self.d + 1] -= 1.0  # SQ - I; a fresh product, so ravel is a view
        loss = 0.5 * float((resid @ s @ resid.T).trace())
        return loss, s @ resid @ s, q

    def operand_errors(self, qs) -> np.ndarray:
        """Distance ||Q - S^-1|| of each ``loss_grad`` operand, Q itself, in an
        (n, d, d) stack to the minimizer, unchecked, in one stacked values-only SVD."""
        return np.linalg.svd(qs - self.inverse, compute_uv=False)[:, 0]

    def error_floor(self, loss: float) -> float:
        """``MfInstance.error_floor`` for Q: with E = Q - S^-1, loss =
        ||S E S^1/2||_F^2 / 2 <= lam_max^3 d ||E||^2 / 2.  Loss and SVD round
        E by about d^2 eps relative, ``inverse`` by d^2 eps kappa_s / sigma_min;
        the floor gives up 4 and 8 times those (measured gaps: 1/5 and 1/4).
        Nondecreasing in the loss, as ``MfInstance.error_floor`` is."""
        lam, rounding = self.eigenvalues, self.d**2 * math.ulp(1.0)
        bound = math.sqrt(2.0 * loss / (lam[0] ** 3 * self.d))
        return bound * (1 - 4 * rounding) - 8 * rounding * lam[0] / lam[-1] ** 2


def _log_uniform_spectrum(top: float, bottom: float, n: int) -> np.ndarray:
    """n values log-uniformly spaced from top down to bottom, endpoints exact."""
    if n == 1:
        return np.array([top])
    expo = np.arange(n) / (n - 1)
    vals = top * (bottom / top) ** expo
    vals[0], vals[-1] = top, bottom
    return vals


def make_mf_instance(
    stream: RandomStream, d: int, r: int, k: int, kappa: float, lambda_max: float = 1.0
) -> MfInstance:
    """Random factorization instance at a prescribed condition number.

    Eigenvalues run log-uniformly from lambda_max down to lambda_max/kappa;
    the eigenbasis is Haar-distributed.
    """
    if not (1 <= r <= min(d, k)):
        raise PreconditionError(f"need 1 <= r <= min(d, k), got d={d}, r={r}, k={k}")
    if kappa < 1.0:
        raise PreconditionError(f"kappa must be >= 1, got {kappa}")
    if lambda_max <= 0.0:
        raise PreconditionError("lambda_max must be positive")
    if r == 1 and kappa != 1.0:
        raise PreconditionError("a rank-1 spectrum cannot realize kappa > 1")
    lam = _log_uniform_spectrum(lambda_max, lambda_max / kappa, r)
    v = stream.haar_orthonormal(d, r)
    target = (v * lam) @ v.T
    return MfInstance(d=d, r=r, k=k, eigenvalues=lam, eigenvectors=v, target=target)


def mf_loss_grad(inst: MfInstance, u):
    """Loss 0.25 * ||U U^T - M||_F^2 and its gradient (U U^T - M) U, for a
    finite d x k factor U."""
    u = check_matrix(u, "U", inst.iterate_shape())
    return inst.loss_grad(u)[:2]


def make_icl_instance(
    stream: RandomStream, d: int, kappa_s: float, sigma_min: float = 1.0
) -> IclInstance:
    """Random SPD covariance with eigenvalues from kappa_s*sigma_min down to
    sigma_min (log-uniform) and a Haar eigenbasis.

    Also builds N = d samples x_i = sqrt(d) * S^(1/2) q_i for an orthonormal
    basis {q_i}, drawn after the eigenbasis, so the empirical covariance
    (1/N) sum x_i x_i^T equals S exactly rather than approximately.
    """
    if kappa_s < 1.0:
        raise PreconditionError(f"kappa_s must be >= 1, got {kappa_s}")
    if sigma_min <= 0.0:
        raise PreconditionError("sigma_min must be positive")
    if d == 1 and kappa_s != 1.0:
        raise PreconditionError("a 1-dimensional spectrum cannot realize kappa_s > 1")
    lam = _log_uniform_spectrum(kappa_s * sigma_min, sigma_min, d)
    v = stream.haar_orthonormal(d, d)
    cov = (v * lam) @ v.T
    inv = (v / lam) @ v.T
    sqrt_cov = (v * np.sqrt(lam)) @ v.T
    basis = stream.haar_orthonormal(d, d)
    samples = (np.sqrt(d) * (sqrt_cov @ basis)).T  # row i is x_i
    return IclInstance(
        d=d, covariance=cov, eigenvalues=lam, eigenvectors=v, inverse=inv, samples=samples
    )


def icl_loss_grad(inst: IclInstance, q):
    """Loss 0.5 * tr((SQ - I) S (SQ - I)^T) and gradient S (SQ - I) S, for
    a finite d x d parameter Q."""
    q = check_matrix(q, "Q", inst.iterate_shape())
    return inst.loss_grad(q)[:2]


def icl_monte_carlo_loss(
    inst: IclInstance, q, stream: RandomStream, n_tasks: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of the ICL prediction risk, with standard error.

    Each task draws w ~ N(0, I) and a query x_q uniform over the sample set,
    predicts w^T S Q x_q against the true label w^T x_q, and averages the
    squared halves.  The closed-form loss is the exact expectation of this
    estimator, so the pair (estimate, standard_error) is an independent
    check on ``icl_loss_grad``.

    On ``stream``, every task's w comes first, then every query index.  The
    indices are read from a copy of the stream jumped past the whole w draw
    (``RandomStream.after_gaussians``), so both are drawn ``ICL_TASK_CHUNK``
    tasks at a time and only the per-task values scale with ``n_tasks``.  The
    stream is left where one whole draw of each leaves it: the same next
    uniform and the same cached Box-Muller sine.
    """
    q = check_matrix(q, "Q", inst.iterate_shape())
    if inst.samples is None:
        raise PreconditionError("instance carries no sample set")
    if n_tasks < 100:
        raise PreconditionError(f"need n_tasks >= 100, got {n_tasks}")
    n_samples = inst.samples.shape[0]
    queries = stream.after_gaussians(n_tasks * inst.d)
    # prediction error w^T (S Q - I) x_q, one dot product per task; the
    # sample set has only N = d rows, so each is mapped once
    table = inst.samples @ (inst.covariance @ q - np.eye(inst.d)).T
    vals = np.empty(n_tasks)
    for start in range(0, n_tasks, ICL_TASK_CHUNK):
        rows = min(ICL_TASK_CHUNK, n_tasks - start)
        w = stream.gaussian_matrix(rows, inst.d)
        idx = np.floor(queries.uniforms(rows, 0.0, float(n_samples))).astype(np.intp)
        vals[start : start + rows] = 0.5 * np.einsum("ij,ij->i", w, table[idx]) ** 2
    del w, idx  # freed before the statistics' temporaries
    stream.skip(n_tasks)  # past the indices too, keeping the sine w left cached
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_tasks))
    return estimate, stderr
