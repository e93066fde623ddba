"""Optimizer steps and learning-rate schedules.

Muon replaces the gradient by its matrix sign (all nonzero singular values
snapped to 1), so each step moves a fixed spectral distance eta_t; linear
convergence therefore needs geometrically decaying learning rates.  GD,
SignGD, and ScaledGD are the comparison baselines.  ``run_trajectory`` drives
any of them over a problem instance and logs one record per iterate.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalDivergenceError, PreconditionError, RankDeficiencyError
from .linalg import RANK_TOL, check_matrix
from .msign import _msign_from_svd
from .rng import RandomStream

# The interval U[lo, hi) that random learning-rate prefactors C are drawn from.
PREFACTOR_RANGE = (1.0, 2.0)
# The relative loss gain ``PlateauSchedule`` counts as an improvement, so
# float-noise gains (a period-2 cycle's loss drifts down by about 1e-19 a
# cycle) cannot reset its patience forever.
PLATEAU_MIN_GAIN = 1e-3
# The factor ``PlateauSchedule`` cuts eta by once its patience runs out.
PLATEAU_DECAY = 0.3
# The consecutive non-improving losses after which ``PlateauSchedule`` cuts eta.
PLATEAU_PATIENCE = 50
# Bytes of error operands queued before ``run_trajectory`` stacks their
# metrics: 546 factors at d = 30, k = 2, or 36 residuals U U^T - M at d = 30,
# k = 14.  The queue holds the gradients too, each the iterate's size.  Not tuned.
METRIC_BLOCK_BYTES = 256 * 1024


class ExponentialSchedule:
    """eta_t = C * base_scale * rho^t with prefactor C in [1, 2].

    ``prefactor_mode`` is "fixed" (C sampled once, on the first call) or
    "per_iteration" (a fresh C every call).  Passing ``fixed_prefactor`` pins
    C in either mode without consuming randomness, for deterministic runs;
    otherwise every draw of C needs a ``stream``.
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
        c = self._prefactor
        if c is None:
            if stream is None:
                raise PreconditionError("a random prefactor needs a stream; fixed_prefactor pins it")
            c = stream.uniform(*PREFACTOR_RANGE)
            if self.prefactor_mode == "fixed":
                self._prefactor = c
        return c * self.base_scale * self.rho**t


class PlateauSchedule:
    """Constant eta, cut by ``PLATEAU_DECAY`` after ``PLATEAU_PATIENCE``
    consecutive non-improving losses.

    The first call records a baseline loss; each later call either improves
    the best seen by more than ``PLATEAU_MIN_GAIN`` relative (resetting the
    stall counter) or increments it, decaying eta and resetting once the
    counter reaches ``PLATEAU_PATIENCE``.  eta never increases.
    """

    def __init__(self, initial_eta: float):
        if not 0.0 < initial_eta < np.inf:
            raise PreconditionError(f"initial_eta must be positive and finite, got {initial_eta}")
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
            if self._stall >= PLATEAU_PATIENCE:
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

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise PreconditionError(f"unknown algorithm {self.algorithm!r}")


class TrajectoryRecord(NamedTuple):
    """One logged iterate: metrics at time t plus the eta used to leave it."""

    t: int
    eta: float
    loss: float
    spectral_error: float
    grad_sigma_min: float


@dataclass
class Trajectory:
    records: list[TrajectoryRecord]
    final: np.ndarray
    iterates: list[np.ndarray] | None = None


# Update kernels: (x, grad, eta, factors) -> x_next, the one implementation
# of each step; ``factors`` is the caller's compact SVD of ``grad``, given
# only to Muon.  They trust their inputs: ``run_trajectory`` checks its
# initial point and Muon's first eta once.  A later eta that underflows to 0
# leaves x put.


def _muon_update(x, grad, eta, factors):
    """Simplified Muon, X' = X - eta * msign(grad): no momentum, exact msign.
    A zero gradient has s = 0, so its msign is 0 by the rank rule."""
    return x - eta * _msign_from_svd(*factors)


def _gd_update(x, grad, eta, factors):
    return x - eta * grad


def _signgd_update(x, grad, eta, factors):
    """X - eta * sign(grad); zero entries stay put."""
    return x - eta * np.sign(grad)


def _scaledgd_update(u, grad, eta, factors):
    """U - eta * grad @ (U^T U)^-1, the Gram inverse through the
    eigendecomposition; a numerically singular Gram matrix raises."""
    lam, vecs = np.linalg.eigh(u.T @ u)
    lam, vecs = lam[::-1], vecs[:, ::-1]  # descending: the summation order the outputs pin
    if lam[0] <= 0.0 or lam[-1] <= RANK_TOL**2 * lam[0]:
        raise RankDeficiencyError("scaledgd: U^T U is numerically singular")
    gram_inv = (vecs / lam) @ vecs.T
    return u - eta * grad @ gram_inv


_UPDATES = {
    "muon": _muon_update,
    "gd": _gd_update,
    "signgd": _signgd_update,
    "scaledgd": _scaledgd_update,
}
ALGORITHMS = tuple(_UPDATES)


def _loss_threshold(error_floor, stop_below: float) -> float:
    """The largest loss with ``error_floor(loss) <= stop_below`` (-inf if none)
    for a nondecreasing floor: bisection over the nonnegative floats' bit
    patterns, which order as the floats do, in at most 63 calls."""
    lo, hi = -1, 0x7FF0000000000000  # floor(lo) <= stop_below < floor(hi); -1 is -inf, hi is inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if error_floor(struct.unpack("<d", struct.pack("<q", mid))[0]) <= stop_below:
            lo = mid
        else:
            hi = mid
    return struct.unpack("<d", struct.pack("<q", lo))[0] if lo >= 0 else -math.inf


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
    Muon also steps with, else from a values-only SVD.
    ``init`` is the only array checked: 2-D, finite, ``inst.iterate_shape()``.
    Muon's first eta must be positive and finite; a later one is used as is:
    a schedule that underflows to 0 leaves the iterate in place.  Every later
    iterate comes from the update kernels, and one that is no longer finite
    shows up as a non-finite loss, which aborts with
    ``NumericalDivergenceError`` carrying the records so far; a step the
    kernel cannot take (ScaledGD's singular U^T U) aborts the same way, with
    ``RankDeficiencyError``.  ``stop_below`` ends the run once the spectral
    error reaches it.

    Metrics that do not steer the run are filled by stacked calls over at
    most ``METRIC_BLOCK_BYTES`` of queued error operands (``inst.loss_grad``'s
    third value, read by ``inst.operand_errors``); the error is computed on
    the spot only where ``inst.error_floor(loss) <= stop_below``: the floor is
    nondecreasing, so one loss threshold found per run certifies the early stop.

    An iterate bitwise equal to one of the last two evaluated is not evaluated
    again (``inst.loss_grad`` must depend on the iterate's bytes alone): it
    reuses that one's loss, gradient, SVD and metric row.  The schedule and
    the update kernel still run every step.
    """
    if T < 1:
        raise PreconditionError("T must be >= 1")
    x = check_matrix(init, "init", inst.iterate_shape()).copy()
    update = _UPDATES[algo.algorithm]
    factored = algo.algorithm == "muon"
    rows: list[tuple[int, int, float, float]] = []  # t, source row, eta, loss
    errs, gsms = np.empty(T + 1), np.empty(T + 1)
    queue: list[tuple[int, np.ndarray, np.ndarray]] = []  # (t, error operand, gradient)
    block = 0  # operands per stacked metric call, sized by the first one
    iterates: list[np.ndarray] | None = [x.copy()] if keep_iterates else None
    # The last two evaluated iterates, matched by bytes (-0.0 is not 0.0): depth
    # 2 covers a frozen tail (period 1) and a sign method's limit cycle (period
    # 2).  Entry: (bytes, row t, loss, grad, factors).
    memo: list[tuple] = []

    def flush():
        if queue:
            at, ops, grads = map(list, zip(*queue))
            errs[at] = inst.operand_errors(np.stack(ops))
            if not factored:
                gsms[at] = np.linalg.svd(np.stack(grads), compute_uv=False)[:, -1]
            queue.clear()

    def records():
        flush()
        err, gsm = errs.tolist(), gsms.tolist()
        return [TrajectoryRecord(t, eta, loss, err[src], gsm[src]) for t, src, eta, loss in rows]

    with np.errstate(over="ignore", invalid="ignore"):  # divergence is a non-finite loss
        stop = -math.inf if stop_below is None else _loss_threshold(inst.error_floor, stop_below)
        for t in range(T + 1):
            key = x.tobytes()
            for entry in memo:
                if entry[0] == key:
                    break
            else:
                loss, grad, op = inst.loss_grad(x)
                if not math.isfinite(loss):
                    raise NumericalDivergenceError(
                        f"non-finite loss at iteration {t}", iteration=t, records=records())
                factors = np.linalg.svd(grad, full_matrices=False) if factored else None
                gsms[t] = factors[1][-1] if factored else np.nan  # else filled by flush
                queue.append((t, op, grad))
                block = block or max(1, METRIC_BLOCK_BYTES // op.nbytes)
                entry = (key, t, loss, grad, factors)
                memo = memo[-1:] + [entry]
            _, src, loss, grad, factors = entry
            eta = float(sched.eta(t, loss, stream))
            if len(queue) == block or loss <= stop:
                flush()  # so errs[src] is known exactly when the queue is empty
            if t == T or (stop_below is not None and not queue and errs[src] <= stop_below):
                rows.append((t, src, eta, loss))
                break
            if t == 0 and algo.algorithm == "muon" and not 0.0 < eta < math.inf:
                raise PreconditionError(f"eta must be positive and finite, got {eta}")
            try:
                x = update(x, grad, eta, factors)
            except RankDeficiencyError as exc:
                raise RankDeficiencyError(f"{exc} at iteration {t}", iteration=t, records=records()) from None
            rows.append((t, src, eta, loss))
            if keep_iterates:
                iterates.append(x.copy())
    return Trajectory(records=records(), final=x, iterates=iterates)
