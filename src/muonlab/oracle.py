"""Decoupled spectral dynamics and inequality checkers.

With an eigen-aligned initialization, the full matrix Muon iteration reduces
exactly to independent scalar recursions, one per eigenvalue:

    factorization:  u_{t+1} = u_t - eta_t * sign((u_t^2 - lam) u_t)
    covariance:     th_{t+1} = th_t - eta_t * sign(lam * th_t - 1)

Each recursion is coded once (``mf_modes``, ``icl_modes``) and runs every
mode or trace at once along a trailing axis.  This module evolves the
recursions, reconstructs the matrix iterates they imply, and measures how far
a full matrix trajectory drifts from them.  It also bundles checkers for the
per-step error bounds the scalar dynamics satisfy, plus the randomized sweeps
used by verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .optimizers import PREFACTOR_RANGE
from .problems import IclInstance, MfInstance
from .rng import RandomStream


def mf_modes(u0, lambdas, etas, scale=1.0) -> np.ndarray:
    """Factorization recursion u <- u - eta_t * sign((u^2 - lam) u) for every
    mode at once, with eta_t = scale * etas[t].

    ``u0`` and ``lambdas`` hold one entry per mode (a scalar for one mode);
    ``etas[t]`` broadcasts against them, so a (T,) schedule drives all modes
    and a (T, n) one gives each of n traces its own.  A per-mode ``scale``
    times a (T,) decay gives each trace its own etas without materializing
    them.  Returns the values, shape (T+1,) + mode shape.
    """
    u = np.asarray(u0, dtype=np.float64)
    etas = np.asarray(etas, dtype=np.float64)
    shape = np.broadcast_shapes(u.shape, np.shape(lambdas), etas.shape[1:], np.shape(scale))
    values = np.empty((etas.shape[0] + 1,) + shape)
    values[0] = u
    for t, eta in enumerate(etas):
        u = u - scale * eta * np.sign((u * u - lambdas) * u)
        values[t + 1] = u
    return values


def icl_modes(lambdas, etas) -> np.ndarray:
    """Covariance recursion th <- th - eta_t * sign(lam * th - 1) from th = 0,
    for every mode at once; shapes as in ``mf_modes``."""
    etas = np.asarray(etas, dtype=np.float64)
    th = np.zeros(np.broadcast_shapes(np.shape(lambdas), etas.shape[1:]))
    values = np.empty((etas.shape[0] + 1,) + th.shape)
    values[0] = th
    for t, eta in enumerate(etas):
        th = th - eta * np.sign(lambdas * th - 1.0)
        values[t + 1] = th
    return values


def _pow(base, exponent) -> np.ndarray:
    """Python's float pow, elementwise.  The schedules raise rho**t through
    it, and numpy's vectorized power can differ from it in the last ulp."""
    return np.asarray(np.frompyfunc(pow, 2, 1)(base, exponent), dtype=np.float64)


def _powers(rho, n: int, *per_trace) -> np.ndarray:
    """rho**t for t = 0..n-1 down a leading axis that broadcasts against
    the per-trace arrays (``rho`` among them)."""
    return _pow(rho, np.arange(n).reshape((n,) + (1,) * np.broadcast(rho, *per_trace).ndim))


def _check_rho(rho, lo: float):
    if not np.all((lo <= rho) & (rho < 1.0)):
        raise PreconditionError(f"rho must lie in [{lo}, 1), got {rho}")


@dataclass(frozen=True)
class ScalarTrace:
    """Scalar recursions: values (length T+1), the etas that drove them
    (length T), and the parameters needed to check their bounds.  A trailing
    axis on ``values`` and ``etas`` holds one trace per entry; the parameters
    are then per-trace arrays or shared scalars."""

    values: np.ndarray
    etas: np.ndarray
    lambda_star: float | np.ndarray
    rho: float | np.ndarray
    lambda_max: float | np.ndarray | None = None  # factorization traces
    lambda_min: float | np.ndarray | None = None  # covariance traces

    def __post_init__(self):
        if self.values.shape[0] != self.etas.shape[0] + 1:
            raise PreconditionError("trace needs len(values) == len(etas) + 1")


# The lemma inequalities are exact-arithmetic statements; the recursion and
# the bounds are both evaluated in float64, so a correct implementation can
# cross a bound by a few ulps.  Violations are classified at this absolute
# resolution (values are O(1)-scale); genuine bound violations are O(eta),
# many orders larger.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class BoundsCheck:
    passed: bool
    worst_margin: float  # min over steps and traces of (bound - |deviation|)
    hypothesis_ok: bool  # holds for every trace


def _bounds_check(margins, hypothesis_ok) -> BoundsCheck:
    worst = float(np.min(margins, initial=np.inf))
    ok = bool(np.all(hypothesis_ok))
    return BoundsCheck(passed=worst >= -FLOAT_SLACK, worst_margin=worst, hypothesis_ok=ok)


def scalar_muon_trajectory(
    u0: float,
    lambda_star: float,
    lambda_max: float,
    rho: float,
    T: int,
    c_eta: float,
) -> ScalarTrace:
    """Scalar factorization recursion with eta_t = C * sqrt(lambda_max) * rho^t
    for a fixed prefactor C = ``c_eta``; ``u0``, ``lambda_star``,
    ``lambda_max`` and ``c_eta`` may be per-trace arrays."""
    if np.any(u0 == 0.0):
        raise PreconditionError("u0 must be nonzero")
    if not np.all((0.0 <= lambda_star) & (lambda_star <= lambda_max)):
        raise PreconditionError("need 0 <= lambda_star <= lambda_max")
    _check_rho(rho, 0.5)
    etas = c_eta * np.sqrt(lambda_max) * _powers(rho, T, u0, lambda_star, lambda_max, c_eta)
    values = mf_modes(u0, lambda_star, etas)
    return ScalarTrace(values, etas, lambda_star, rho, lambda_max=lambda_max)


def _mf_hypothesis(trace: ScalarTrace):
    if trace.lambda_max is None:
        raise PreconditionError("not a factorization trace")
    u0 = trace.values[0]
    return (np.abs(u0) <= trace.etas[0]) & (u0 != 0.0)


def check_scalar_mf_bounds(trace: ScalarTrace) -> BoundsCheck:
    """Fixed-prefactor bounds: ||u_{t+1}| - sqrt(lam)| <= eta_t and
    |u_{t+1}^2 - lam| <= 8 * lambda_max * rho^t for every t."""
    hypothesis_ok = _mf_hypothesis(trace)
    u = trace.values[1:]
    powers = _powers(trace.rho, len(u), trace.values[0])
    m1 = trace.etas - np.abs(np.abs(u) - np.sqrt(trace.lambda_star))
    m2 = 8.0 * trace.lambda_max * powers - np.abs(u * u - trace.lambda_star)
    return _bounds_check(np.minimum(m1, m2), hypothesis_ok)


def check_scalar_mf_bounds_varying(trace: ScalarTrace) -> BoundsCheck:
    """Per-step-prefactor bounds (rho >= 2/3):
    ||u_t| - sqrt(lam)| <= (2/(1-rho)) * sqrt(lambda_max) * rho^t and
    |u_t^2 - lam| <= (4/(1-rho)^2 + 4/(1-rho)) * lambda_max * rho^t."""
    hypothesis_ok = _mf_hypothesis(trace)
    rho = trace.rho
    if np.any(rho < 2.0 / 3.0):
        raise PreconditionError("varying-prefactor bounds need rho >= 2/3")
    u = trace.values
    c1 = 2.0 / (1.0 - rho) * np.sqrt(trace.lambda_max)
    c2 = (4.0 / _pow(1.0 - rho, 2) + 4.0 / (1.0 - rho)) * trace.lambda_max
    powers = _powers(rho, len(u), u[0])
    m1 = c1 * powers - np.abs(np.abs(u) - np.sqrt(trace.lambda_star))
    m2 = c2 * powers - np.abs(u * u - trace.lambda_star)
    return _bounds_check(np.minimum(m1, m2), hypothesis_ok)


def scalar_icl_trajectory(
    lambda_star: float, lambda_min: float, rho: float, c_eta: float, T: int
) -> ScalarTrace:
    """Scalar covariance recursion from th_0 = 0 with
    eta_t = (C / lambda_min) * rho^t; ``lambda_star``, ``lambda_min`` and
    ``c_eta`` may be per-trace arrays."""
    if not np.all((0.0 < lambda_min) & (lambda_min <= lambda_star)):
        raise PreconditionError("need 0 < lambda_min <= lambda_star")
    _check_rho(rho, 0.5)
    if np.any(c_eta < 1.0):
        raise PreconditionError("c_eta must be >= 1")
    etas = c_eta / lambda_min * _powers(rho, T, lambda_star, lambda_min, c_eta)
    return ScalarTrace(icl_modes(lambda_star, etas), etas, lambda_star, rho, lambda_min=lambda_min)


def check_scalar_icl_bounds(trace: ScalarTrace) -> BoundsCheck:
    """Covariance-trace bound: |th_{t+1} - 1/lam| <= eta_t for every t."""
    if trace.lambda_min is None:
        raise PreconditionError("not a covariance trace")
    margins = trace.etas - np.abs(trace.values[1:] - 1.0 / trace.lambda_star)
    return _bounds_check(margins, trace.values[0] == 0.0)


@dataclass(frozen=True)
class AlignedInit:
    """Eigen-aligned factor initialization U_0 = V diag(sigma0) R^T.

    ``basis_left`` extends the instance's eigenvectors to k orthonormal
    columns; ``lambdas`` pads the spectrum with zeros past the true rank, so
    every diagonal mode has an eigenvalue to chase.
    """

    matrix: np.ndarray  # (d, k)
    basis_left: np.ndarray  # (d, k), first r columns are the true eigenvectors
    basis_right: np.ndarray  # (k, k) orthogonal
    sigma0: np.ndarray  # (k,)
    lambdas: np.ndarray  # (k,), zeros past rank r


def aligned_mf_init(inst: MfInstance, sigma0, stream: RandomStream) -> AlignedInit:
    """Construct an exactly aligned initialization for a factorization
    instance (requires k <= d so the eigenbasis can be extended).

    ``sigma0`` holds the r initial mode values; modes past the target rank
    start at zero and stay there, which is what keeps the full matrix
    trajectory and the diagonal oracle in exact agreement.  (A nonzero start
    on a zero-eigenvalue mode decays like sigma^3 and its sign drops below
    float noise while eta is still large, so that form cannot be tracked to
    high accuracy by any finite-precision run.)
    """
    sigma0 = np.asarray(sigma0, dtype=np.float64)
    if sigma0.shape != (inst.r,):
        raise PreconditionError(f"sigma0 must have shape ({inst.r},)")
    sigma0 = np.concatenate([sigma0, np.zeros(inst.k - inst.r)])
    if inst.k > inst.d:
        raise PreconditionError("aligned init needs k <= d")
    v = inst.eigenvectors
    if inst.k > inst.r:
        extra = stream.gaussian_matrix(inst.d, inst.k - inst.r)
        # two projection passes keep the completion orthogonal to V to ~1e-15
        extra -= v @ (v.T @ extra)
        extra -= v @ (v.T @ extra)
        q, _ = np.linalg.qr(extra, mode="reduced")
        v = np.hstack([v, q])
    r_basis = stream.haar_orthonormal(inst.k, inst.k)
    lambdas = np.concatenate([inst.eigenvalues, np.zeros(inst.k - inst.r)])
    u0 = (v * sigma0) @ r_basis.T
    return AlignedInit(matrix=u0, basis_left=v, basis_right=r_basis, sigma0=sigma0, lambdas=lambdas)


@dataclass(frozen=True)
class DiagonalTrajectory:
    """Diagonal-mode trajectory: sigmas[t] holds the k mode values at step t,
    and matrix_at(t) rebuilds the implied matrix iterate."""

    sigmas: np.ndarray  # (T+1, k)
    basis_left: np.ndarray
    basis_right: np.ndarray
    lambdas: np.ndarray
    etas: np.ndarray

    def matrix_at(self, t: int) -> np.ndarray:
        return (self.basis_left * self.sigmas[t]) @ self.basis_right.T

    def __len__(self) -> int:
        return self.sigmas.shape[0]


def decoupled_mf_trajectory(init: AlignedInit, etas) -> DiagonalTrajectory:
    """Evolve the k independent factorization modes from an aligned init."""
    etas = np.asarray(etas, dtype=np.float64)
    return DiagonalTrajectory(
        sigmas=mf_modes(init.sigma0, init.lambdas, etas),
        basis_left=init.basis_left,
        basis_right=init.basis_right,
        lambdas=init.lambdas,
        etas=etas,
    )


def decoupled_icl_trajectory(inst: IclInstance, etas) -> DiagonalTrajectory:
    """Evolve the d independent covariance modes from Q_0 = 0."""
    etas = np.asarray(etas, dtype=np.float64)
    return DiagonalTrajectory(
        sigmas=icl_modes(inst.eigenvalues, etas),
        basis_left=inst.eigenvectors,
        basis_right=inst.eigenvectors,
        lambdas=inst.eigenvalues,
        etas=etas,
    )


def oracle_vs_full_divergence(oracle: DiagonalTrajectory, iterates) -> float:
    """Max over steps of the spectral-norm gap between a full matrix
    trajectory and the oracle's reconstruction.  Both sides must come from
    the same initialization and the same eta draws."""
    if len(iterates) != len(oracle):
        raise PreconditionError(
            f"trajectory lengths disagree: {len(iterates)} vs {len(oracle)}"
        )
    recon = (oracle.basis_left * oracle.sigmas[:, None, :]) @ oracle.basis_right.T
    gaps = np.asarray(iterates, dtype=np.float64) - recon
    if not np.all(np.isfinite(gaps)):
        raise PreconditionError("iterates must be finite")
    return float(np.max(np.linalg.svd(gaps, compute_uv=False)[:, :1], initial=0.0))


# ---------------------------------------------------------------------------
# Randomized sweeps over the scalar lemmas (shared by tests and `verify`).
# Each takes one batched draw, laid out as a trace-by-trace loop would take
# its draws, and evolves every trace in one recursion call.
# ---------------------------------------------------------------------------


def _trace_draws(seed: int, n_traces: int, m: int) -> np.ndarray:
    """m raw uniforms per trace in per-trace order; row j holds every
    trace's j-th draw."""
    return RandomStream(seed, 0).uniforms(n_traces * m).reshape(n_traces, m).T


def _scaled(u, lo, hi):
    """``RandomStream.uniform(lo, hi)`` rebuilt, bit for bit, from its raw draw."""
    return lo + (hi - lo) * u


def sweep_mf_bounds(n_traces: int, seed: int, rho: float = 0.5, T: int = 45) -> float:
    """Worst margin of the fixed-prefactor factorization bounds over random
    (lambda, C, u0) draws; nonnegative means zero violations.

    T is capped so the geometric bound stays above the float64 rounding
    floor of the recursion itself.
    """
    draws = _trace_draws(seed, n_traces, 4)
    lambda_max = _scaled(draws[0], 0.5, 2.0)
    lambda_star = _scaled(draws[1], 0.0, lambda_max)
    c = _scaled(draws[2], *PREFACTOR_RANGE)
    eta0 = c * np.sqrt(lambda_max)
    u0 = _scaled(draws[3], -eta0, eta0)
    u0 = np.where(u0 == 0.0, eta0 / 2.0, u0)
    trace = scalar_muon_trajectory(u0, lambda_star, lambda_max, rho, T, c_eta=c)
    return check_scalar_mf_bounds(trace).worst_margin


def sweep_mf_bounds_varying(
    n_traces: int, seed: int, rho_range: tuple[float, float] = (2.0 / 3.0, 0.95), T: int = 100
) -> float:
    """Worst margin of the per-step-prefactor bounds over random draws."""
    draws = _trace_draws(seed, n_traces, 4 + T)
    rho = _scaled(draws[0], *rho_range)
    _check_rho(rho, 2.0 / 3.0)
    lambda_max = _scaled(draws[1], 0.5, 2.0)
    lambda_star = _scaled(draws[2], 0.0, lambda_max)
    eta0_min = np.sqrt(lambda_max)
    u0 = _scaled(draws[3], -eta0_min, eta0_min)
    u0 = np.where(u0 == 0.0, eta0_min / 2.0, u0)
    etas = _scaled(draws[4:], *PREFACTOR_RANGE) * np.sqrt(lambda_max) * _powers(rho, T)
    trace = ScalarTrace(mf_modes(u0, lambda_star, etas), etas, lambda_star, rho, lambda_max=lambda_max)
    return check_scalar_mf_bounds_varying(trace).worst_margin


def sweep_icl_bounds(n_traces: int, seed: int, rho: float = 0.5, T: int = 45) -> float:
    """Worst margin of the covariance-trace bound over random draws."""
    draws = _trace_draws(seed, n_traces, 3)
    lambda_min = _scaled(draws[0], 0.1, 2.0)
    lambda_star = lambda_min * _scaled(draws[1], 1.0, 100.0)
    trace = scalar_icl_trajectory(lambda_star, lambda_min, rho, _scaled(draws[2], *PREFACTOR_RANGE), T)
    return check_scalar_icl_bounds(trace).worst_margin


def sweep_never_zero(n_traces: int, steps: int, seed: int, rho: float = 0.5) -> bool:
    """Empirical check that randomly seeded scalar recursions never hit
    exactly zero: True when no iterate equals 0.0 across all traces."""
    stream = RandomStream(seed, 0)
    lambda_max = 1.0
    c = stream.uniforms(n_traces, *PREFACTOR_RANGE)
    lam = stream.uniforms(n_traces, 0.0, lambda_max)
    eta0 = c * np.sqrt(lambda_max)
    u = stream.uniforms(n_traces, -1.0, 1.0) * eta0
    u[u == 0.0] = eta0[u == 0.0] / 2.0
    values = mf_modes(u, lam, _powers(rho, steps), scale=c * np.sqrt(lambda_max))
    return not np.any(values == 0.0)
