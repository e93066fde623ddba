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
from .linalg import check_matrix, check_matrices
from .rng import RandomStream


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
    def kappa(self) -> float:
        return float(self.eigenvalues[0] / self.eigenvalues[-1])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    def iterate_shape(self) -> tuple[int, int]:
        return (self.d, self.k)

    def loss_grad(self, u):
        """Loss 0.25 * ||U U^T - M||_F^2 and its gradient (U U^T - M) U.

        Unchecked: U must already be a finite d x k array, as
        ``run_trajectory`` guarantees.  ``mf_loss_grad`` checks first.
        """
        delta = u @ u.T - self.target
        loss = 0.25 * float(np.sum(delta * delta))
        return loss, delta @ u

    def spectral_error(self, u) -> float:
        """Spectral-norm recovery error ||U U^T - M||, unchecked like
        ``loss_grad``: the batch of one of ``spectral_errors``."""
        return float(self.spectral_errors(u[None])[0])

    def spectral_errors(self, us) -> np.ndarray:
        """``spectral_error`` of each factor in an (n, d, k) stack, in one
        stacked call.  With [U, V] = Q [A, B], U U^T - M = Q (A A^T - B
        diag(lam) B^T) Q^T: the (k+r) x (k+r) core holds its eigenvalues."""
        # us per call, dense SVD / dense eigvalsh / core: d = 100, k = 2:
        # 731/531/50, k = 25: 682/412/100, k = 66: 493/472/580; d = 30, k = 2:
        # 76/64/56.  Hence the core only when 2(k + r) <= d.
        if 2 * (self.k + self.r) <= self.d:
            v = np.broadcast_to(self.eigenvectors, (len(us), self.d, self.r))
            rr = np.linalg.qr(np.concatenate([us, v], axis=2), mode="r")
            a, b = rr[:, :, : self.k], rr[:, :, self.k :]
            return _max_abs_eigs(a @ np.swapaxes(a, 1, 2) - (b * self.eigenvalues) @ np.swapaxes(b, 1, 2))
        return _max_abs_eigs(us @ np.swapaxes(us, 1, 2) - self.target)

    def error_floor(self, loss: float) -> float:
        """A lower bound on the computed ``spectral_error`` from the loss
        alone: error_floor(loss) > s rules out error <= s.

        D = U U^T - M has rank <= rho = min(d, k + r), so ||D|| >= ||D||_F /
        sqrt(rho) = 2 sqrt(loss) / sqrt(rho).  Rounding perturbs D by about
        d (k + r) eps (||U||_F^2 + r lam_max), where ||U||_F^2 <= rho ||D|| +
        r lam_max.  The floor gives up twice its relative and absolute parts
        (measured gaps stay below 1/30 and 1/10 of them, down to d = 2)."""
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
    def kappa_s(self) -> float:
        return float(self.eigenvalues[0] / self.eigenvalues[-1])

    @property
    def kappa_eff(self) -> float:
        return self.kappa_s**3

    @property
    def sigma_min(self) -> float:
        return float(self.eigenvalues[-1])

    def iterate_shape(self) -> tuple[int, int]:
        return (self.d, self.d)

    def loss_grad(self, q):
        """Loss 0.5 * tr((SQ - I) S (SQ - I)^T) and gradient S (SQ - I) S.

        Unchecked: Q must already be a finite d x d array, as
        ``run_trajectory`` guarantees.  ``icl_loss_grad`` checks first.
        """
        s = self.covariance
        resid = s @ q - np.eye(self.d)
        loss = 0.5 * float(np.trace(resid @ s @ resid.T))
        return loss, s @ resid @ s

    def spectral_error(self, q) -> float:
        """Spectral-norm distance to the minimizer, ||Q - S^-1||, unchecked
        like ``loss_grad``: the batch of one of ``spectral_errors``."""
        return float(self.spectral_errors(q[None])[0])

    def spectral_errors(self, qs) -> np.ndarray:
        """``spectral_error`` of each parameter in an (n, d, d) stack, in one
        stacked values-only SVD."""
        return np.linalg.svd(qs - self.inverse, compute_uv=False)[:, 0]

    def error_floor(self, loss: float) -> float:
        """``MfInstance.error_floor`` for Q: with E = Q - S^-1, loss =
        ||S E S^1/2||_F^2 / 2 <= lam_max^3 d ||E||^2 / 2.  Loss and SVD round
        E by about d^2 eps relative, ``inverse`` by d^2 eps kappa_s / sigma_min;
        the floor gives up 4 and 8 times those (measured gaps: 1/5 and 1/4)."""
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
    lam = (
        np.full(r, lambda_max)
        if kappa == 1.0
        else _log_uniform_spectrum(lambda_max, lambda_max / kappa, r)
    )
    v = stream.haar_orthonormal(d, r)
    target = (v * lam) @ v.T
    return MfInstance(d=d, r=r, k=k, eigenvalues=lam, eigenvectors=v, target=target)


def mf_loss_grad(inst: MfInstance, u):
    """Loss 0.25 * ||U U^T - M||_F^2 and its gradient (U U^T - M) U, for a
    finite d x k factor U."""
    (u,) = check_matrices(inst.iterate_shape(), U=u)
    return inst.loss_grad(u)


def make_icl_instance(
    stream: RandomStream,
    d: int,
    kappa_s: float,
    sigma_min: float = 1.0,
    with_samples: bool = True,
) -> IclInstance:
    """Random SPD covariance with eigenvalues from kappa_s*sigma_min down to
    sigma_min (log-uniform) and a Haar eigenbasis.

    With ``with_samples``, builds N = d vectors x_i = sqrt(d) * S^(1/2) q_i
    for an orthonormal basis {q_i}, so the empirical covariance
    (1/N) sum x_i x_i^T equals S exactly rather than approximately.
    """
    if kappa_s < 1.0:
        raise PreconditionError(f"kappa_s must be >= 1, got {kappa_s}")
    if sigma_min <= 0.0:
        raise PreconditionError("sigma_min must be positive")
    if d == 1 and kappa_s != 1.0:
        raise PreconditionError("a 1-dimensional spectrum cannot realize kappa_s > 1")
    lam = (
        np.full(d, sigma_min)
        if kappa_s == 1.0
        else _log_uniform_spectrum(kappa_s * sigma_min, sigma_min, d)
    )
    v = stream.haar_orthonormal(d, d)
    cov = (v * lam) @ v.T
    inv = (v / lam) @ v.T
    samples = None
    if with_samples:
        sqrt_cov = (v * np.sqrt(lam)) @ v.T
        basis = stream.haar_orthonormal(d, d)
        samples = (np.sqrt(d) * (sqrt_cov @ basis)).T  # row i is x_i
    return IclInstance(
        d=d, covariance=cov, eigenvalues=lam, eigenvectors=v, inverse=inv, samples=samples
    )


def icl_loss_grad(inst: IclInstance, q):
    """Loss 0.5 * tr((SQ - I) S (SQ - I)^T) and gradient S (SQ - I) S, for
    a finite d x d parameter Q."""
    (q,) = check_matrices(inst.iterate_shape(), Q=q)
    return inst.loss_grad(q)


def icl_monte_carlo_loss(
    inst: IclInstance, q, stream: RandomStream, n_tasks: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of the ICL prediction risk, with standard error.

    Each task draws w ~ N(0, I) and a query x_q uniform over the sample set,
    predicts w^T S Q x_q against the true label w^T x_q, and averages the
    squared halves.  The closed-form loss is the exact expectation of this
    estimator, so the pair (estimate, standard_error) is an independent
    check on ``icl_loss_grad``.
    """
    q = check_matrix(q, "parameter Q")
    if inst.samples is None:
        raise PreconditionError("instance carries no sample set")
    if n_tasks < 100:
        raise PreconditionError(f"need n_tasks >= 100, got {n_tasks}")
    n_samples = inst.samples.shape[0]
    w = stream.gaussian_matrix(n_tasks, inst.d)
    idx = np.floor(stream.uniforms(n_tasks, 0.0, float(n_samples))).astype(np.intp)
    queries = inst.samples[idx]  # (n_tasks, d)
    # prediction error w^T (S Q - I) x_q, one dot product per task
    mapped = queries @ (inst.covariance @ q - np.eye(inst.d)).T
    vals = 0.5 * np.einsum("ij,ij->i", w, mapped) ** 2
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_tasks))
    return estimate, stderr
