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
from .optimizers import (PREFACTOR_RANGE, ExponentialSchedule, OptimizerConfig, SequenceSchedule,
                         materialize_etas, run_trajectory)
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


def _powers(rho, n: int, *per_trace) -> np.ndarray:
    """rho**t for t = 0..n-1 down a leading axis that broadcasts against
    the per-trace arrays (``rho`` among them), in Python's float pow, one
    row of Python floats at a time.  The schedules raise rho**t so, and
    numpy's vectorized power can differ from it in the last ulp."""
    bases = np.ravel(rho).tolist()
    out = np.empty((n, len(bases)))
    for t in range(n):
        out[t] = [b**t for b in bases]
    lead = (n,) + (1,) * (np.broadcast(rho, *per_trace).ndim - np.ndim(rho))
    return out.reshape(lead + np.shape(rho))


def _check_rho(rho, lo: float):
    if not np.all((lo <= rho) & (rho < 1.0)):
        raise PreconditionError(f"rho must lie in [{lo}, 1), got {rho}")


# The lemma inequalities are exact-arithmetic statements; the recursion and
# the bounds are both evaluated in float64, so a correct implementation can
# cross a bound by a few ulps.  A worst margin (the minimum over steps and
# traces of bound - |deviation|) passes down to this absolute resolution
# (values are O(1)-scale); genuine bound violations are O(eta), many orders
# larger.
FLOAT_SLACK = 1e-12


def scalar_muon_trajectory(
    u0: float,
    lambda_star: float,
    lambda_max: float,
    rho: float,
    T: int,
    c_eta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar factorization recursion with eta_t = C * sqrt(lambda_max) * rho^t
    for a fixed prefactor C = ``c_eta``: its values (length T+1) and etas
    (length T).  ``u0``, ``lambda_star``, ``lambda_max`` and ``c_eta`` may be
    per-trace arrays, giving one trace per entry along a trailing axis."""
    if np.any(u0 == 0.0):
        raise PreconditionError("u0 must be nonzero")
    if not np.all((0.0 <= lambda_star) & (lambda_star <= lambda_max)):
        raise PreconditionError("need 0 <= lambda_star <= lambda_max")
    _check_rho(rho, 0.5)
    etas = c_eta * np.sqrt(lambda_max) * _powers(rho, T, u0, lambda_star, lambda_max, c_eta)
    return mf_modes(u0, lambda_star, etas), etas


def _check_lengths(values, etas):
    if values.shape[0] != etas.shape[0] + 1:
        raise PreconditionError("trace needs len(values) == len(etas) + 1")


def _check_mf_hypothesis(values, etas):
    _check_lengths(values, etas)
    u0 = values[0]
    if len(etas) == 0 or not np.all((np.abs(u0) <= etas[0]) & (u0 != 0.0)):
        raise PreconditionError("factorization bounds need T >= 1 and 0 < |u0| <= eta_0")


def check_scalar_mf_bounds(values, etas, lambda_star, rho, lambda_max) -> float:
    """Worst margin of the fixed-prefactor bounds ||u_{t+1}| - sqrt(lam)| <=
    eta_t and |u_{t+1}^2 - lam| <= 8 * lambda_max * rho^t over every t and
    trace; the constants are per-trace arrays or shared scalars."""
    _check_mf_hypothesis(values, etas)
    u = values[1:]
    m1 = etas - np.abs(np.abs(u) - np.sqrt(lambda_star))
    m2 = 8.0 * lambda_max * _powers(rho, len(u), values[0]) - np.abs(u * u - lambda_star)
    return float(np.min(np.minimum(m1, m2), initial=np.inf))


def check_scalar_mf_bounds_varying(values, etas, lambda_star, rho, lambda_max) -> float:
    """Worst margin of the per-step-prefactor bounds (rho >= 2/3)
    ||u_t| - sqrt(lam)| <= (2/(1-rho)) * sqrt(lambda_max) * rho^t and
    |u_t^2 - lam| <= (4/(1-rho)^2 + 4/(1-rho)) * lambda_max * rho^t."""
    _check_mf_hypothesis(values, etas)
    if np.any(rho < 2.0 / 3.0):
        raise PreconditionError("varying-prefactor bounds need rho >= 2/3")
    c1 = 2.0 / (1.0 - rho) * np.sqrt(lambda_max)
    c2 = (4.0 / _powers(1.0 - rho, 3)[2] + 4.0 / (1.0 - rho)) * lambda_max
    powers = _powers(rho, len(values), values[0])
    m1 = c1 * powers - np.abs(np.abs(values) - np.sqrt(lambda_star))
    m2 = c2 * powers - np.abs(values * values - lambda_star)
    return float(np.min(np.minimum(m1, m2), initial=np.inf))


def scalar_icl_trajectory(
    lambda_star: float, lambda_min: float, rho: float, c_eta: float, T: int
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar covariance recursion from th_0 = 0 with
    eta_t = (C / lambda_min) * rho^t: its values and etas, as in
    ``scalar_muon_trajectory``; ``lambda_star``, ``lambda_min`` and ``c_eta``
    may be per-trace arrays."""
    if not np.all((0.0 < lambda_min) & (lambda_min <= lambda_star)):
        raise PreconditionError("need 0 < lambda_min <= lambda_star")
    _check_rho(rho, 0.5)
    if np.any(c_eta < 1.0):
        raise PreconditionError("c_eta must be >= 1")
    etas = c_eta / lambda_min * _powers(rho, T, lambda_star, lambda_min, c_eta)
    return icl_modes(lambda_star, etas), etas


def check_scalar_icl_bounds(values, etas, lambda_star) -> float:
    """Worst margin of the covariance-trace bound |th_{t+1} - 1/lam| <= eta_t."""
    _check_lengths(values, etas)
    if np.any(values[0] != 0.0):
        raise PreconditionError("covariance bounds need th_0 = 0")
    return float(np.min(etas - np.abs(values[1:] - 1.0 / lambda_star), initial=np.inf))


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
    """Diagonal-mode trajectory: sigmas[t] holds the k mode values at step t;
    the implied matrix iterate is (basis_left * sigmas[t]) @ basis_right.T."""

    sigmas: np.ndarray  # (T+1, k)
    basis_left: np.ndarray
    basis_right: np.ndarray

    def __len__(self) -> int:
        return self.sigmas.shape[0]


def decoupled_mf_trajectory(init: AlignedInit, etas) -> DiagonalTrajectory:
    """Evolve the k independent factorization modes from an aligned init."""
    return DiagonalTrajectory(mf_modes(init.sigma0, init.lambdas, etas), init.basis_left, init.basis_right)


def decoupled_icl_trajectory(inst: IclInstance, etas) -> DiagonalTrajectory:
    """Evolve the d independent covariance modes from Q_0 = 0."""
    return DiagonalTrajectory(icl_modes(inst.eigenvalues, etas), inst.eigenvectors, inst.eigenvectors)


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


def decoupling_gap(inst: MfInstance | IclInstance, stream: RandomStream, T: int) -> float:
    """Divergence of T steps of full Muon from its oracle, both driven by T + 1
    etas drawn from ``ExponentialSchedule(0.5, 1.0)`` on ``stream``.  Muon starts
    from ``aligned_mf_init`` with r mode values in [0.05, 0.95) * eta_0 drawn
    next on ``stream`` (factorization), or from Q_0 = 0 (covariance)."""
    etas = materialize_etas(ExponentialSchedule(rho=0.5, base_scale=1.0), T + 1, stream)
    if isinstance(inst, MfInstance):
        init = aligned_mf_init(inst, stream.uniforms(inst.r, 0.05, 0.95) * etas[0], stream)
        x0, oracle = init.matrix, decoupled_mf_trajectory(init, etas[:T])
    else:
        x0, oracle = np.zeros((inst.d, inst.d)), decoupled_icl_trajectory(inst, etas[:T])
    full = run_trajectory(inst, OptimizerConfig("muon"), SequenceSchedule(etas), x0, T, keep_iterates=True)
    return oracle_vs_full_divergence(oracle, full.iterates)


# ---------------------------------------------------------------------------
# Randomized sweeps over the scalar lemmas (shared by tests and `verify`).
# Each draws in the order a trace-by-trace loop would take its draws and
# evolves many traces at once: the bound sweeps in chunks of traces, the
# never-zero sweep in blocks of steps.
# ---------------------------------------------------------------------------

# Traces per draw-and-check of the bound sweeps: bounds their per-trace
# arrays (101 rows of 256 traces is 0.2 MB); each trace's draws are
# contiguous on the stream and the minimum is exact, so chunking never
# changes a margin.
BOUND_CHUNK_TRACES = 256

# Steps per recursion call of ``sweep_never_zero``: bounds its iterate block
# (9 rows of 10,000 traces is 0.72 MB); the recursion is elementwise and reads
# only the previous step, so blocking never changes an iterate.
NEVER_ZERO_BLOCK_STEPS = 8


def _worst_over_chunks(margin, seed: int, n_traces: int, m: int) -> float:
    """Minimum of ``margin(draws)`` over chunks of ``BOUND_CHUNK_TRACES``
    traces, where draws holds m raw uniforms per trace in per-trace order
    (row j is every trace's j-th draw).  One (empty) chunk even at
    n_traces = 0, so the parameters are always checked."""
    stream = RandomStream(seed, 0)
    worst = []
    for start in range(0, max(n_traces, 1), BOUND_CHUNK_TRACES):
        rows = min(BOUND_CHUNK_TRACES, n_traces - start)
        worst.append(margin(stream.uniforms(rows * m).reshape(rows, m).T))
    return float(np.min(worst))


def _scaled(u, lo, hi):
    """``RandomStream.uniform(lo, hi)`` rebuilt, bit for bit, from its raw draw."""
    return lo + (hi - lo) * u


def sweep_mf_bounds(n_traces: int, seed: int, rho: float = 0.5) -> float:
    """Worst margin of the fixed-prefactor factorization bounds over random
    (lambda, C, u0) draws; nonnegative means zero violations.

    T = 45 steps, capped so the geometric bound stays above the float64
    rounding floor of the recursion itself.
    """

    def margin(draws):
        lambda_max = _scaled(draws[0], 0.5, 2.0)
        lambda_star = _scaled(draws[1], 0.0, lambda_max)
        c = _scaled(draws[2], *PREFACTOR_RANGE)
        eta0 = c * np.sqrt(lambda_max)
        u0 = _scaled(draws[3], -eta0, eta0)
        u0 = np.where(u0 == 0.0, eta0 / 2.0, u0)
        values, etas = scalar_muon_trajectory(u0, lambda_star, lambda_max, rho, 45, c_eta=c)
        return check_scalar_mf_bounds(values, etas, lambda_star, rho, lambda_max)

    return _worst_over_chunks(margin, seed, n_traces, 4)


def sweep_mf_bounds_varying(
    n_traces: int, seed: int, rho_range: tuple[float, float] = (2.0 / 3.0, 0.95)
) -> float:
    """Worst margin of the per-step-prefactor bounds over random draws,
    T = 100 steps each."""
    T = 100

    def margin(draws):
        rho = _scaled(draws[0], *rho_range)
        _check_rho(rho, 2.0 / 3.0)
        lambda_max = _scaled(draws[1], 0.5, 2.0)
        lambda_star = _scaled(draws[2], 0.0, lambda_max)
        eta0_min = np.sqrt(lambda_max)
        u0 = _scaled(draws[3], -eta0_min, eta0_min)
        u0 = np.where(u0 == 0.0, eta0_min / 2.0, u0)
        etas = _scaled(draws[4:], *PREFACTOR_RANGE) * np.sqrt(lambda_max) * _powers(rho, T)
        return check_scalar_mf_bounds_varying(mf_modes(u0, lambda_star, etas), etas, lambda_star, rho, lambda_max)

    return _worst_over_chunks(margin, seed, n_traces, 4 + T)


def sweep_icl_bounds(n_traces: int, seed: int, rho: float = 0.5) -> float:
    """Worst margin of the covariance-trace bound over random draws, T = 45
    steps each, capped as in ``sweep_mf_bounds``."""

    def margin(draws):
        lambda_min = _scaled(draws[0], 0.1, 2.0)
        lambda_star = lambda_min * _scaled(draws[1], 1.0, 100.0)
        values, etas = scalar_icl_trajectory(lambda_star, lambda_min, rho, _scaled(draws[2], *PREFACTOR_RANGE), 45)
        return check_scalar_icl_bounds(values, etas, lambda_star)

    return _worst_over_chunks(margin, seed, n_traces, 3)


def sweep_never_zero(n_traces: int, steps: int, seed: int) -> bool:
    """Empirical check that randomly seeded scalar recursions at rho = 1/2
    never hit exactly zero: True when no iterate equals 0.0 across all traces.

    Runs ``NEVER_ZERO_BLOCK_STEPS`` steps per ``mf_modes`` call, each block
    starting from the previous block's last row and tested before the next
    one runs, so memory stays bounded at any ``steps``."""
    stream = RandomStream(seed, 0)
    lambda_max = 1.0
    c = stream.uniforms(n_traces, *PREFACTOR_RANGE)
    lam = stream.uniforms(n_traces, 0.0, lambda_max)
    eta0 = c * np.sqrt(lambda_max)
    u = stream.uniforms(n_traces, -1.0, 1.0) * eta0
    u[u == 0.0] = eta0[u == 0.0] / 2.0
    etas = _powers(0.5, steps)
    # one call even at steps = 0, so the start row is always tested
    for start in range(0, max(steps, 1), NEVER_ZERO_BLOCK_STEPS):
        values = mf_modes(u, lam, etas[start : start + NEVER_ZERO_BLOCK_STEPS], scale=eta0)
        if np.any(values == 0.0):
            return False
        u = values[-1].copy()
        del values  # one block alive at a time
    return True
