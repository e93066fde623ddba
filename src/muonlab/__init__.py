"""muonlab: a desk-scale laboratory for spectral-orthogonalization optimizers.

The library implements simplified Muon (gradient orthogonalization through
the exact matrix sign, without momentum) and GD / SignGD / ScaledGD baselines on
two matrix problems - symmetric low-rank factorization and the quadratic
behind in-context learning with linear attention - together with the
decoupled spectral dynamics that predict Muon's trajectories exactly, and
adversarial constructions on which SignGD provably stalls.
"""

from .errors import (
    ConfigError,
    MuonLabError,
    NumericalDivergenceError,
    PreconditionError,
    RankDeficiencyError,
    TieEventError,
)
from .linalg import RANK_TOL
from .lowerbounds import (
    AdversarialInit,
    HardInstance,
    HardQuadratic,
    adversarial_quadratic_init,
    build_hard_icl_instance,
    build_hard_mf_instance,
    build_hard_quadratic,
    first_hit_time,
    run_hard_icl,
    run_hard_mf,
    run_lower_bound,
    signgd_quadratic_run,
)
from .msign import (
    NewtonSchulzResult,
    msign_exact,
    msign_newton_schulz,
)
from .optimizers import (
    ConstantSchedule,
    ExponentialSchedule,
    OptimizerConfig,
    PlateauSchedule,
    SequenceSchedule,
    Trajectory,
    TrajectoryRecord,
    materialize_etas,
    run_trajectory,
)
from .oracle import (
    AlignedInit,
    aligned_mf_init,
    check_scalar_icl_bounds,
    check_scalar_mf_bounds,
    check_scalar_mf_bounds_varying,
    decoupled_icl_trajectory,
    decoupled_mf_trajectory,
    icl_modes,
    mf_modes,
    oracle_vs_full_divergence,
    scalar_icl_trajectory,
    scalar_muon_trajectory,
)
from .problems import (
    IclInstance,
    MfInstance,
    icl_loss_grad,
    icl_monte_carlo_loss,
    make_icl_instance,
    make_mf_instance,
    mf_loss_grad,
)
from .rng import RandomStream

__version__ = "0.1.0"
