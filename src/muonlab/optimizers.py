"""Optimizer steps and learning-rate schedules.

Muon replaces the gradient by its matrix sign (all nonzero singular values
snapped to 1), so each step moves a fixed spectral distance eta_t; linear
convergence therefore needs geometrically decaying learning rates.  GD,
SignGD, and ScaledGD are the comparison baselines.  ``run_trajectory`` drives
any of them over a problem instance and logs one record per iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalDivergenceError, PreconditionError, RankDeficiencyError
from .linalg import check_matrices
from .msign import NewtonSchulzConfig, _msign_from_svd, msign_newton_schulz
from .rng import RandomStream

# The interval U[lo, hi) that random learning-rate prefactors C are drawn from.
PREFACTOR_RANGE = (1.0, 2.0)
# The relative loss gain ``PlateauSchedule`` counts as an improvement, so
# float-noise gains (a period-2 cycle's loss drifts down by about 1e-19 a
# cycle) cannot reset its patience forever.
PLATEAU_MIN_GAIN = 1e-3
# The factor ``PlateauSchedule`` cuts eta by once its patience runs out.
PLATEAU_DECAY = 0.3
# Bytes of iterates (546 of a d = 30, k = 2 factor) queued before
# ``run_trajectory`` stacks their metrics; the queue holds their gradients
# too, so about twice this.  Not tuned.
METRIC_BLOCK_BYTES = 256 * 1024


class ExponentialSchedule:
    """eta_t = C * base_scale * rho^t with prefactor C in [1, 2].

    ``prefactor_mode`` is "fixed" (C sampled once, on the first call) or
    "per_iteration" (a fresh C every call).  Passing ``fixed_prefactor`` pins
    C without consuming randomness, for deterministic runs.
    """

    def __init__(
        self,
        rho: float,
        base_scale: float,
        prefactor_mode: str = "fixed",
        fixed_prefactor: float | None = None,
    ):
        if not 0.5 <= rho < 1.0:
            raise PreconditionError(f"rho must lie in [1/2, 1), got {rho}")
        if not 0.0 < base_scale < np.inf:
            raise PreconditionError(f"base_scale must be positive and finite, got {base_scale}")
        if prefactor_mode not in ("fixed", "per_iteration"):
            raise PreconditionError(f"unknown prefactor_mode {prefactor_mode!r}")
        if fixed_prefactor is not None and not 0.0 < fixed_prefactor < np.inf:
            raise PreconditionError(f"fixed_prefactor must be positive and finite, got {fixed_prefactor}")
        top = PREFACTOR_RANGE[1] if fixed_prefactor is None else fixed_prefactor
        if not top * base_scale < np.inf:  # eta_0 = C * base_scale must be finite too
            raise PreconditionError(f"base_scale {base_scale} overflows at prefactor {top}")
        self.rho = rho
        self.base_scale = base_scale
        self.prefactor_mode = prefactor_mode
        self._prefactor = fixed_prefactor

    def eta(self, t: int, current_loss: float | None = None, stream: RandomStream | None = None) -> float:
        if self.prefactor_mode == "per_iteration":
            c = stream.uniform(*PREFACTOR_RANGE) if stream is not None else 1.0
        else:
            if self._prefactor is None:
                self._prefactor = stream.uniform(*PREFACTOR_RANGE) if stream is not None else 1.0
            c = self._prefactor
        return c * self.base_scale * self.rho**t


class PlateauSchedule:
    """Constant eta, cut by ``PLATEAU_DECAY`` after ``patience`` consecutive
    non-improving losses.

    The first call records a baseline loss; each later call either improves
    the best seen by more than ``PLATEAU_MIN_GAIN`` relative (resetting the
    stall counter) or increments it, decaying eta and resetting once the
    counter reaches ``patience``.  eta never increases.
    """

    def __init__(self, initial_eta: float, patience: int = 50):
        if not 0.0 < initial_eta < np.inf:
            raise PreconditionError(f"initial_eta must be positive and finite, got {initial_eta}")
        if patience < 1:
            raise PreconditionError("patience must be >= 1")
        self.initial_eta = initial_eta
        self.patience = patience
        self._eta = initial_eta
        self._best_loss: float | None = None
        self._stall = 0

    def eta(self, t: int, current_loss: float, stream: RandomStream | None = None) -> float:
        if current_loss is None or not math.isfinite(current_loss):
            raise PreconditionError("plateau schedule needs a finite loss")
        if self._best_loss is None:
            self._best_loss = current_loss
        elif current_loss < self._best_loss * (1.0 - PLATEAU_MIN_GAIN):
            self._best_loss = current_loss
            self._stall = 0
        else:
            self._stall += 1
            if self._stall >= self.patience:
                self._eta *= PLATEAU_DECAY
                self._stall = 0
        return self._eta


class ConstantSchedule:
    """Fixed learning rate (the classical GD baseline choice).

    Zero is allowed: a zero-rate GD run is the degenerate constant
    trajectory.  ``run_trajectory`` rejects a first Muon eta of 0.
    """

    def __init__(self, eta: float):
        if not 0.0 <= eta < np.inf:
            raise PreconditionError(f"eta must be nonnegative and finite, got {eta}")
        self._eta = eta

    def eta(self, t: int, current_loss: float | None = None, stream: RandomStream | None = None) -> float:
        return self._eta


class SequenceSchedule:
    """Fixed, precomputed eta sequence (used to share draws across runs)."""

    def __init__(self, etas):
        self.etas = [float(e) for e in etas]
        if not self.etas or not all(0.0 < e < np.inf for e in self.etas):
            raise PreconditionError("etas must be a nonempty sequence of positive finite values")

    def eta(self, t: int, current_loss: float | None = None, stream: RandomStream | None = None) -> float:
        if t < len(self.etas):
            return self.etas[t]
        return self.etas[-1]


def materialize_etas(sched, T: int, stream: RandomStream | None = None) -> list[float]:
    """Realize T learning rates from a loss-free schedule (exponential or
    sequence), consuming any prefactor draws from ``stream``."""
    return [sched.eta(t, None, stream) for t in range(T)]


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str
    mu: float = 0.0
    msign_backend: str = "exact"  # "exact" | "newton_schulz"
    ns_config: NewtonSchulzConfig = field(default_factory=NewtonSchulzConfig)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise PreconditionError(f"unknown algorithm {self.algorithm!r}")
        if self.msign_backend not in ("exact", "newton_schulz"):
            raise PreconditionError(f"unknown msign backend {self.msign_backend!r}")
        if not 0.0 <= self.mu < 1.0:
            raise PreconditionError(f"mu must lie in [0, 1), got {self.mu}")


class TrajectoryRecord(NamedTuple):
    """One logged iterate: metrics at time t plus the eta used to leave it."""

    t: int
    eta: float
    loss: float
    spectral_error: float
    grad_sigma_min: float
    msign_converged: bool = True


@dataclass
class Trajectory:
    records: list[TrajectoryRecord]
    final: np.ndarray
    iterates: list[np.ndarray] | None = None


# Update kernels: (x, grad, eta, buffer, algo, factors) -> (x_next, buffer_next,
# msign_converged), the one implementation of each step; ``buffer`` is Muon's
# momentum B (None when mu = 0) and ``factors`` the caller's compact SVD of
# ``grad``, given only when the step is msign(grad) itself.  They trust their
# inputs: ``run_trajectory`` checks its initial point and Muon's first eta
# once.  A later eta that underflows to 0 leaves x put.


def _muon_update(x, grad, eta, buffer, algo: OptimizerConfig, factors=None):
    """X' = X - eta * msign(B'), with B' = grad + mu * B."""
    # mu == 0 takes the gradient verbatim, so simplified Muon is bitwise
    # exact, and never touches a buffer.
    if algo.mu != 0.0:
        grad = buffer = grad + algo.mu * buffer
    if algo.msign_backend == "exact":  # a zero gradient has s = 0, so msign is 0 by the rank rule
        if factors is None:
            factors = np.linalg.svd(grad, full_matrices=False)
        return x - eta * _msign_from_svd(*factors), buffer, True
    if not np.any(grad):  # Newton-Schulz raises on the zero matrix
        return x.copy(), buffer, True
    result = msign_newton_schulz(grad, algo.ns_config)
    return x - eta * result.matrix, buffer, result.converged


def _gd_update(x, grad, eta, buffer, algo, factors=None):
    return x - eta * grad, buffer, True


def _signgd_update(x, grad, eta, buffer, algo, factors=None):
    """X - eta * sign(grad); zero entries stay put."""
    return x - eta * np.sign(grad), buffer, True


def _scaledgd_update(u, grad, eta, buffer, algo, factors=None):
    """U - eta * grad @ (U^T U)^-1, the Gram inverse through the
    eigendecomposition; a numerically singular Gram matrix raises."""
    lam, vecs = np.linalg.eigh(u.T @ u)
    lam, vecs = lam[::-1], vecs[:, ::-1]  # descending: the summation order the outputs pin
    if lam[0] <= 0.0 or lam[-1] <= (1e-12) ** 2 * lam[0]:
        raise RankDeficiencyError("scaledgd: U^T U is numerically singular")
    gram_inv = (vecs / lam) @ vecs.T
    return u - eta * grad @ gram_inv, buffer, True


_UPDATES = {
    "muon": _muon_update,
    "gd": _gd_update,
    "signgd": _signgd_update,
    "scaledgd": _scaledgd_update,
}
ALGORITHMS = tuple(_UPDATES)


def run_trajectory(
    inst,
    algo: OptimizerConfig,
    sched,
    init,
    T: int,
    stream: RandomStream | None = None,
    keep_iterates: bool = False,
    stop_below: float | None = None,
) -> Trajectory:
    """Iterate the chosen optimizer T times from ``init``, logging a record
    per iterate (T+1 records when no early stop fires; the final record's eta
    is the schedule value that a further step would have used).

    sigma_min of each gradient is logged at every d, from the one SVD that
    exact Muon with mu = 0 also steps with, else from a values-only SVD.
    ``init`` is the only array checked: 2-D, finite, ``inst.iterate_shape()``.
    Muon's first eta must be positive and finite; a later one is used as is:
    a schedule that underflows to 0 leaves the iterate in place.  Every later
    iterate comes from the update kernels, and one that is no longer finite
    shows up as a non-finite loss, which aborts with
    ``NumericalDivergenceError`` carrying the records so far.  ``stop_below``
    ends the run once the spectral error reaches it.

    Metrics that do not steer the run are filled by stacked calls over at
    most ``METRIC_BLOCK_BYTES`` of queued iterates; the error is computed on
    the spot only where ``inst.error_floor(loss) <= stop_below``.

    An iterate bitwise equal to one of the last two evaluated is not evaluated
    again (``inst.loss_grad`` must depend on the iterate's bytes alone): it
    reuses that one's loss, gradient, SVD and metric row.  The schedule and
    the update kernel still run every step.
    """
    if T < 1:
        raise PreconditionError("T must be >= 1")
    (x,) = check_matrices(inst.iterate_shape(), init=init)
    x = x.copy()
    buffer = np.zeros(x.shape) if algo.mu else None  # Muon's momentum B
    update = _UPDATES[algo.algorithm]
    factored = algo.algorithm == "muon" and algo.msign_backend == "exact" and algo.mu == 0.0
    rows: list[tuple[int, int, float, float, bool]] = []  # t, source row, eta, loss, msign_converged
    errs, gsms = np.empty(T + 1), np.empty(T + 1)
    queue: list[tuple[int, np.ndarray, np.ndarray]] = []  # (t, iterate, gradient)
    block = max(1, METRIC_BLOCK_BYTES // x.nbytes)
    iterates: list[np.ndarray] | None = [x.copy()] if keep_iterates else None
    # The last two evaluated iterates, matched by bytes (-0.0 is not 0.0): depth
    # 2 covers a frozen tail (period 1) and a sign method's limit cycle (period
    # 2).  Entry: (bytes, row t, loss, grad, factors).
    memo: list[tuple] = []

    def flush():
        if queue:
            at, xs, grads = map(list, zip(*queue))
            errs[at] = inst.spectral_errors(np.stack(xs))
            if not factored:
                gsms[at] = np.linalg.svd(np.stack(grads), compute_uv=False)[:, -1]
            queue.clear()

    def records():
        flush()
        err, gsm = errs.tolist(), gsms.tolist()
        return [TrajectoryRecord(t, eta, loss, err[src], gsm[src], ok) for t, src, eta, loss, ok in rows]

    with np.errstate(over="ignore", invalid="ignore"):  # divergence is a non-finite loss
        for t in range(T + 1):
            key = x.tobytes()
            entry = next((e for e in memo if e[0] == key), None)
            if entry is None:
                loss, grad = inst.loss_grad(x)
                if not math.isfinite(loss):
                    raise NumericalDivergenceError(
                        f"non-finite loss at iteration {t}", iteration=t, records=records())
                factors = np.linalg.svd(grad, full_matrices=False) if factored else None
                gsms[t] = factors[1][-1] if factored else np.nan  # else filled by flush
                queue.append((t, x, grad))
                entry = (key, t, loss, grad, factors)
                memo = memo[-1:] + [entry]
            _, src, loss, grad, factors = entry
            eta = float(sched.eta(t, loss, stream))
            if len(queue) == block or (stop_below is not None and inst.error_floor(loss) <= stop_below):
                flush()  # so errs[src] is known exactly when the queue is empty
            if t == T or (stop_below is not None and not queue and errs[src] <= stop_below):
                rows.append((t, src, eta, loss, True))
                break
            if t == 0 and algo.algorithm == "muon" and not 0.0 < eta < math.inf:
                raise PreconditionError(f"eta must be positive and finite, got {eta}")
            x, buffer, converged = update(x, grad, eta, buffer, algo, factors)
            rows.append((t, src, eta, loss, converged))
            if keep_iterates:
                iterates.append(x.copy())
    return Trajectory(records=records(), final=x, iterates=iterates)
