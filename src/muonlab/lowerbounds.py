"""Adversarial instances on which SignGD provably needs Omega(kappa) steps.

All three constructions funnel through one mechanism: a 2x2 quadratic whose
Hessian H = 0.5 * [[k+1, k-1], [k-1, k+1]] has eigenvalues (kappa, 1) in the
rotated basis R = (1/sqrt2) * [[1, -1], [1, 1]].  In that basis each SignGD
step moves exactly one coordinate by sqrt(2)*eta_t, and a backward-built
initialization pins the second coordinate at kappa*eps until the learning
rate decays below 4*eps - forcing at least (kappa-1)/4 iterations to reach
accuracy eps.  The matrix-factorization and covariance-inverse hard instances
embed this quadratic through invariant 2x2 slices with equal diagonals and
equal off-diagonals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, TieEventError
from .optimizers import OptimizerConfig, SequenceSchedule, run_trajectory
from .problems import IclInstance, MfInstance

SQRT2 = math.sqrt(2.0)

# R^T H R = diag(kappa, 1); columns are the Hessian eigenvectors.
ROTATION = np.array([[1.0, -1.0], [1.0, 1.0]]) / SQRT2

# Lower-bound run defaults: the schedule decay, the step budget, and the
# factorization instance's ball radius r0, the largest its hypotheses admit.
DEFAULT_RHO = 0.98
DEFAULT_T = 600
R0_MAX = 1.0 / 16.0
# A run whose slice deviation (an absolute entry difference) or norm-bridge
# deviation is above these has left the 2x2 reduction the bound is proved on.
SLICE_TOL = 1e-14
BRIDGE_TOL = 1e-12


@dataclass(frozen=True)
class HardQuadratic:
    kappa: float
    hessian: np.ndarray  # H, 2x2
    rotation: np.ndarray  # R, 2x2

    # The instance interface ``run_trajectory`` reads, z as a 2 x 1 column.
    def iterate_shape(self) -> tuple[int, int]:
        return (2, 1)

    def loss_grad(self, z):
        """Loss 0.5 * z^T H z, its gradient H z, and z, its own error operand."""
        g = self.hessian @ z
        return 0.5 * float((z * g).sum()), g, z

    def operand_errors(self, zs) -> np.ndarray:
        """||z||_2 of each iterate in an (n, 2, 1) stack."""
        return np.linalg.norm(zs[:, :, 0], axis=1)


def build_hard_quadratic(kappa: float) -> HardQuadratic:
    """The ill-conditioned 2x2 quadratic with eigenvalues (kappa, 1)."""
    if kappa < 1.0:
        raise PreconditionError(f"kappa must be >= 1, got {kappa}")
    h = 0.5 * np.array([[kappa + 1.0, kappa - 1.0], [kappa - 1.0, kappa + 1.0]])
    diag = ROTATION.T @ h @ ROTATION
    # both entries round at the scale of h's entries, about kappa
    tol = 1e-12 * max(kappa, 1.0)
    if abs(diag[0, 0] - kappa) > tol or abs(diag[1, 1] - 1.0) > tol:
        raise PreconditionError("hard quadratic eigen-identity failed at construction")
    return HardQuadratic(kappa=float(kappa), hessian=h, rotation=ROTATION.copy())


@dataclass(frozen=True)
class AdversarialInit:
    """Backward-constructed SignGD initialization.

    ``x0`` lives in the halved rotated coordinates (x = ztilde / sqrt2);
    its first component is chosen so the forward recursion
    x_{1,t+1} = eta_t - x_{1,t} stays inside [2*eps, eta_t - 2*eps] for all
    t <= barrier_steps, while x_2 starts (and stays) at kappa*eps.
    """

    z0: np.ndarray  # original coordinates
    x0: np.ndarray  # pre-rotation coordinates
    barrier_steps: int  # T0: last step with eta_t >= 4*eps
    epsilon: float
    x1_chain: np.ndarray  # |x_1| values along the barrier, t = 0..T0


def _check_etas(etas) -> np.ndarray:
    etas = np.asarray(etas, dtype=np.float64)
    if etas.ndim != 1 or etas.size == 0:
        raise PreconditionError("etas must be a nonempty 1-D sequence")
    if np.any(etas <= 0.0) or np.any(np.diff(etas) > 0.0):
        raise PreconditionError("etas must be positive and non-increasing")
    return etas


def adversarial_quadratic_init(kappa: float, epsilon: float, etas, T: int) -> AdversarialInit:
    """The learning-rate-barrier initialization for the hard quadratic.

    Picks the midpoint of the admissible interval at the barrier horizon and
    recurses backward; the construction is re-verified forward before being
    returned.
    """
    etas = _check_etas(etas)
    if kappa < 1.0:
        raise PreconditionError(f"kappa must be >= 1, got {kappa}")
    if not 0.0 < epsilon <= etas[0] / kappa:
        raise PreconditionError(
            f"need 0 < epsilon <= eta_0/kappa = {etas[0] / kappa:.3e}, got {epsilon}"
        )
    horizon = min(T, etas.size - 1)
    above = np.nonzero(etas[: horizon + 1] >= 4.0 * epsilon)[0]
    if above.size == 0:
        raise PreconditionError("empty barrier set: eta_0 < 4*epsilon")
    t0 = int(above[-1])
    chain = np.empty(t0 + 1)
    chain[t0] = etas[t0] / 2.0
    for t in range(t0 - 1, -1, -1):
        chain[t] = etas[t] - chain[t + 1]
    lo = 2.0 * epsilon
    for t in range(t0 + 1):
        if not lo <= chain[t] <= etas[t] - lo:
            raise PreconditionError(
                f"barrier chain left [2eps, eta_t - 2eps] at t={t}: {chain[t]:.6e}"
            )
    x0 = np.array([chain[0], kappa * epsilon])
    ztilde0 = SQRT2 * x0
    z0 = ROTATION @ ztilde0
    return AdversarialInit(z0=z0, x0=x0, barrier_steps=t0, epsilon=epsilon, x1_chain=chain)


@dataclass(frozen=True)
class HardRunResult:
    first_hit: float
    metric: np.ndarray  # per-step lower-bound metric (||z||, loss or Frobenius error)
    slice_deviation: float | None  # max departure from equal-diag/equal-offdiag form
    epsilon: float  # the accuracy first_hit is measured against
    bridge_deviation: float | None = None  # covariance runs only


def _signgd_run(inst, x0, etas, T: int):
    return run_trajectory(inst, OptimizerConfig("signgd"), SequenceSchedule(etas), x0, T, keep_iterates=True)


def signgd_quadratic_run(hq: HardQuadratic, init: AdversarialInit, etas, T: int) -> HardRunResult:
    """Run z_{t+1} = z_t - eta_t * sign(H z_t) for T steps: SignGD through
    ``run_trajectory``, with z as a 2 x 1 column; the metric is ||z_t||.

    Each step is then checked against the switching law: exactly one rotated
    coordinate moves, by +/- sqrt(2)*eta_t.  An exact tie
    |kappa * ztilde_1| == |ztilde_2| (where the sign pattern is undefined)
    raises ``TieEventError``; the constructed initializations avoid ties, so
    one occurring means the implementation is broken.
    """
    etas = _check_etas(etas)
    if etas.size < T:
        raise PreconditionError(f"need at least T={T} etas, got {etas.size}")
    traj = _signgd_run(hq, init.z0[:, None], etas, T)
    zs = np.stack(traj.iterates).reshape(T + 1, 2)
    zt = np.array([hq.rotation.T @ z for z in zs])
    norms = [rec.spectral_error for rec in traj.records]
    # the checks run on Python floats, in step order, the tie test at t
    # first: x, y hold z_t and ztilde_t; w, v step t + 1
    for t, eta in enumerate(etas[:T].tolist()):
        (x0, x1), (y0, y1) = zs[t].tolist(), zt[t].tolist()
        if (x0 != 0.0 or x1 != 0.0) and abs(hq.kappa * y0) == abs(y1):
            raise TieEventError(f"switching tie at t={t}: ztilde={zt[t]}")
        (w0, w1), (v0, v1) = zs[t + 1].tolist(), zt[t + 1].tolist()
        # the moved coordinate shifts by sqrt(2)*eta; the frozen one only by
        # rounding noise proportional to ||z||, so split on half a step
        a0, a1 = abs(v0 - y0), abs(v1 - y1)
        moved = (a0 > 0.5 * SQRT2 * eta) + (a1 > 0.5 * SQRT2 * eta)
        peak = max(a0, a1) if a0 == a0 and a1 == a1 else math.nan  # nan like numpy's max
        size_tol = 1e-9 * eta + 1e-13 * norms[t]
        if (w0 != x0 or w1 != x1) and (moved != 1 or abs(peak - SQRT2 * eta) > size_tol):
            raise TieEventError(f"switching law violated at t={t}: delta={zt[t + 1] - zt[t]}")
    return HardRunResult(first_hit_time(norms, init.epsilon), np.array(norms), slice_deviation=None,
                         epsilon=init.epsilon)


@dataclass(frozen=True)
class HardInstance:
    """A 2x2 problem with an adversarial start inside its invariant slice:
    factorization target H with U* and U_0, or covariance S with Q* = S^-1
    and Q_0."""

    instance: MfInstance | IclInstance
    optimum: np.ndarray  # U* or Q*
    start: np.ndarray  # U_0 or Q_0
    epsilon: float  # loss target (factorization) or ||Q - Q*||_F target
    quad_init: AdversarialInit


def build_hard_mf_instance(kappa: float, etas, r0: float = R0_MAX) -> HardInstance:
    """Factorization lower-bound instance (target H, U* = H^(1/2)).

    The initialization is built from the quadratic barrier chain run at
    level eps_q = (4/3)*sqrt(eps) with step sizes sqrt(2)*eta_t, mapped into
    eigenvalue offsets of the invariant slice, at the largest loss target
    eps = 9*r0^2/(4096*kappa^2) the barrier admits.  The hypotheses
    eta_0 <= r0 and ||U_0 - U*||_F <= r0 are enforced.
    """
    etas = _check_etas(etas)
    if kappa < 2.0:
        raise PreconditionError(f"hard factorization instance needs kappa >= 2, got {kappa}")
    if not 0.0 < r0 <= R0_MAX:
        raise PreconditionError(f"r0 must lie in (0, 1/16], got {r0}")
    if etas[0] > r0:
        raise PreconditionError(f"need eta_0 <= r0, got eta_0={etas[0]}")
    epsilon = 9.0 * r0**2 / (4096.0 * kappa**2)
    eps_q = (4.0 / 3.0) * math.sqrt(epsilon)
    quad = adversarial_quadratic_init(kappa, eps_q, SQRT2 * etas, T=etas.size - 1)
    delta0 = SQRT2 * quad.x0  # eigenvalue offsets (delta_1, delta_2)
    lam1 = math.sqrt(kappa) + delta0[0]
    lam2 = 1.0 + delta0[1]
    a0, b0 = (lam1 + lam2) / 2.0, (lam1 - lam2) / 2.0
    u0 = np.array([[a0, b0], [b0, a0]])
    hq = build_hard_quadratic(kappa)
    u_star = ROTATION @ np.diag([math.sqrt(kappa), 1.0]) @ ROTATION.T
    if np.linalg.norm(u0 - u_star) > r0:
        raise PreconditionError(
            "constructed U_0 leaves the r0-ball around U*; lower eta_0 relative to r0"
        )
    inst = MfInstance(
        d=2,
        r=2,
        k=2,
        eigenvalues=np.array([kappa, 1.0]),
        eigenvectors=ROTATION.copy(),
        target=hq.hessian,
    )
    return HardInstance(instance=inst, optimum=u_star, start=u0, epsilon=float(epsilon), quad_init=quad)


def build_hard_icl_instance(kappa: float, etas) -> HardInstance:
    """Covariance lower-bound instance S = R diag(kappa^(1/3), 1) R^T, so
    kappa(S)^3 = kappa.

    Error coordinates z = (a - a*, b - b*) of the invariant slice follow the
    hard-quadratic SignGD recursion exactly, and
    ||Q - Q*||_F = sqrt(2) * ||z||_2 bridges the two metrics.  ``epsilon``
    is sqrt(2) * eta_0/max(kappa, 4), the largest the barrier admits.
    """
    etas = _check_etas(etas)
    if kappa < 2.0:
        raise PreconditionError(f"hard covariance instance needs kappa >= 2, got {kappa}")
    level = max(kappa, 4.0)  # so eta_0 >= 4 * eps_q keeps a barrier step
    # eps_q directly, not epsilon / SQRT2, which can round above eta_0 / kappa
    epsilon, eps_q = SQRT2 * etas[0] / level, etas[0] / level
    quad = adversarial_quadratic_init(kappa, eps_q, etas, T=etas.size - 1)
    sigma1 = kappa ** (1.0 / 3.0)
    lam = np.array([sigma1, 1.0])
    cov = (ROTATION * lam) @ ROTATION.T
    inv = (ROTATION / lam) @ ROTATION.T
    inst = IclInstance(
        d=2, covariance=cov, eigenvalues=lam, eigenvectors=ROTATION.copy(), inverse=inv
    )
    a_star = (1.0 / sigma1 + 1.0) / 2.0
    b_star = (1.0 / sigma1 - 1.0) / 2.0
    a0, b0 = a_star + quad.z0[0], b_star + quad.z0[1]
    q0 = np.array([[a0, b0], [b0, a0]])
    return HardInstance(instance=inst, optimum=inv, start=q0, epsilon=float(epsilon), quad_init=quad)


def _slice_deviation(mats) -> float:
    dev = 0.0
    for m in mats:
        dev = max(dev, abs(m[0, 0] - m[1, 1]), abs(m[0, 1] - m[1, 0]))
    return dev


def run_hard_mf(hard: HardInstance, etas, T: int) -> HardRunResult:
    """SignGD on the hard factorization instance; first hit of loss <= eps."""
    if not isinstance(hard.instance, MfInstance):
        raise PreconditionError("run_hard_mf needs a build_hard_mf_instance result")
    traj = _signgd_run(hard.instance, hard.start, etas, T)
    losses = np.array([rec.loss for rec in traj.records])
    return HardRunResult(
        first_hit=first_hit_time(losses, hard.epsilon),
        metric=losses,
        slice_deviation=_slice_deviation(traj.iterates),
        epsilon=hard.epsilon,
    )


def run_hard_icl(hard: HardInstance, etas, T: int) -> HardRunResult:
    """SignGD on the hard covariance instance; first hit of
    ||Q_t - Q*||_F <= eps, plus the sqrt(2)-norm-bridge deviation."""
    if not isinstance(hard.instance, IclInstance):
        raise PreconditionError("run_hard_icl needs a build_hard_icl_instance result")
    traj = _signgd_run(hard.instance, hard.start, etas, T)
    a_star = (hard.optimum[0, 0] + hard.optimum[1, 1]) / 2.0
    b_star = (hard.optimum[0, 1] + hard.optimum[1, 0]) / 2.0
    frob = np.empty(len(traj.iterates))
    bridge = 0.0
    for t, q in enumerate(traj.iterates):
        frob[t] = np.linalg.norm(q - hard.optimum)
        z = np.array([(q[0, 0] + q[1, 1]) / 2.0 - a_star, (q[0, 1] + q[1, 0]) / 2.0 - b_star])
        bridge = max(bridge, abs(frob[t] - SQRT2 * np.linalg.norm(z)))
    return HardRunResult(
        first_hit=first_hit_time(frob, hard.epsilon),
        metric=frob,
        slice_deviation=_slice_deviation(traj.iterates),
        bridge_deviation=bridge,
        epsilon=hard.epsilon,
    )


FAMILIES = ("quadratic", "mf", "icl")


def run_lower_bound(family: str, kappa: float, T: int, rho: float = DEFAULT_RHO,
                    eta0: float | None = None, r0: float = R0_MAX) -> HardRunResult:
    """SignGD for T steps on one lower-bound family at one kappa, with
    eta_t = eta0 * rho^t.

    ``eta0`` defaults to r0/4 for the factorization instance (its hypotheses
    need eta_0 <= r0) and to 1 otherwise.  The bare quadratic starts at
    epsilon = eta_0/max(kappa, 4) (its barrier needs eta_0 >= 4*epsilon),
    reports ||z_t|| as its metric and has no slice deviation (None).
    """
    if family not in FAMILIES:
        raise PreconditionError(f"family must be one of {FAMILIES}, got {family!r}")
    if not 0.0 < rho <= 1.0:  # a larger rho**t overflows Python's float pow
        raise PreconditionError(f"rho must lie in (0, 1], got {rho}")
    if eta0 is None:
        eta0 = r0 / 4.0 if family == "mf" else 1.0
    etas = np.array([eta0 * rho**t for t in range(T + 1)])  # Python's float pow, as the schedules
    zero = np.flatnonzero(etas == 0.0)
    if eta0 > 0.0 and zero.size:
        raise PreconditionError(
            f"eta0 * rho^t underflows to 0 at t = {zero[0]}, within T = {T} (eta0 = {eta0}, rho = {rho})")
    if family == "mf":
        return run_hard_mf(build_hard_mf_instance(kappa, etas, r0=r0), etas, T)
    if family == "icl":
        return run_hard_icl(build_hard_icl_instance(kappa, etas), etas, T)
    init = adversarial_quadratic_init(kappa, etas[0] / max(kappa, 4.0), etas, T)
    return signgd_quadratic_run(build_hard_quadratic(kappa), init, etas, T)


def first_hit_time(values, epsilon: float) -> float:
    """Smallest index t with values[t] <= epsilon, or math.inf if none."""
    if epsilon <= 0.0:
        raise PreconditionError("epsilon must be positive")
    for t, v in enumerate(values):
        if v <= epsilon:
            return t
    return math.inf


def step_bound(kappa: float) -> float:
    """(kappa - 1)/4: the fewest SignGD steps a hard instance allows."""
    return (kappa - 1.0) / 4.0


def lower_bound_verdict(res: HardRunResult, kappa: float, T: int) -> str:
    """OFF-SLICE if the run's slice or bridge deviation is above SLICE_TOL
    or BRIDGE_TOL or is NaN (None never is); else OK if the T-step run shows
    first_hit >= (kappa - 1)/4, where a censored run (inf) shows only
    first_hit >= T + 1; else UNDECIDED (censored) or VIOLATED."""
    for dev, tol in ((res.slice_deviation, SLICE_TOL), (res.bridge_deviation, BRIDGE_TOL)):
        if dev is not None and not dev <= tol:
            return "OFF-SLICE"
    if min(res.first_hit, T + 1) >= step_bound(kappa):
        return "OK"
    return "UNDECIDED" if math.isinf(res.first_hit) else "VIOLATED"
