"""Config-driven experiment runner: condition-number sweeps, rank sweeps,
lower-bound runs, preconditioner visualization, and verification suites.

Configs are flat ``key = value`` text files (``#`` comments, comma-separated
lists).  Every run is a pure function of (seed, config): per-cell random
streams are derived from the master seed by a fixed enumeration, floats are
written in shortest round-trip form, and files use LF endings, so reruns are
byte-identical.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, NumericalDivergenceError, PreconditionError
from .linalg import symmetric_eig
from .lowerbounds import FAMILIES, first_hit_time, run_lower_bound
from .msign import msign_exact, msign_newton_schulz
from .optimizers import (
    ALGORITHMS,
    ExponentialSchedule,
    OptimizerConfig,
    PlateauSchedule,
    SequenceSchedule,
    materialize_etas,
    run_trajectory,
)
from .oracle import (
    FLOAT_SLACK,
    aligned_mf_init,
    decoupled_icl_trajectory,
    decoupled_mf_trajectory,
    oracle_vs_full_divergence,
    sweep_icl_bounds,
    sweep_mf_bounds,
    sweep_mf_bounds_varying,
    sweep_never_zero,
)
from .problems import (
    icl_loss_grad,
    icl_monte_carlo_loss,
    make_icl_instance,
    make_mf_instance,
    mf_loss_grad,
)
from .rng import RandomStream
from .svgplot import emit_svg_heatmap, emit_svg_plot

KINDS = ("mf_sweep", "icl_sweep", "rank_sweep", "lower_bound", "precond_viz", "verify")
SUITES = ("msign", "oracle", "lemmas", "lowerbounds", "gradients", "montecarlo", "all")
CSV_HEADER = "t,eta,loss,spectral_error,grad_sigma_min"


@dataclass
class ExperimentConfig:
    """Experiment description; ``parse_config`` fills in the kind's defaults
    (``KIND_DEFAULTS`` over the field defaults) and validates it."""

    kind: str = "mf_sweep"
    d: int = 100
    r: int = 2
    k: int = 2
    kappa: tuple[float, ...] = (1.0, 5.0, 25.0, 125.0, 625.0)
    ranks: tuple[int, ...] = (2, 3, 100)
    algorithms: tuple[str, ...] = ("muon", "signgd", "gd")
    schedule: str = "plateau"
    rho: float = 0.5
    prefactor: str = "fixed"
    eta0: float | None = None  # None -> per-algorithm (sweeps) or per-family (lower_bound) default
    alpha: float = 0.1
    T: int = 5000
    epsilon: float = 1e-12  # early-stop threshold on spectral error
    epsilons: tuple[float, ...] = (1e-6, 1e-10)  # summary first-hit levels
    seed: int = 42
    replicates: int = 1
    out: str = "results"
    family: str = "quadratic"
    r0: float = 1.0 / 16.0
    steps: tuple[int, ...] = (0, 500, 1000)
    suite: str = "all"


# defaults that differ from the field defaults, by kind
KIND_DEFAULTS = {
    "rank_sweep": {"kappa": (1.0,)},
    "lower_bound": {"rho": 0.98, "T": 600},
    "precond_viz": {"d": 10, "r": 5, "k": 5, "alpha": 1e-10},
}

# the keys each kind reads; _validate checks only these
_SWEEP_KEYS = {"d", "kappa", "algorithms", "schedule", "rho", "prefactor", "eta0", "T",
               "epsilon", "epsilons", "seed", "replicates", "out"}
_KIND_KEYS = {
    "mf_sweep": _SWEEP_KEYS | {"r", "k", "alpha"},
    "icl_sweep": _SWEEP_KEYS,
    "rank_sweep": _SWEEP_KEYS | {"r", "ranks", "alpha"},
    "lower_bound": {"family", "kappa", "rho", "eta0", "T", "r0", "out"},
    "precond_viz": {"d", "r", "k", "alpha", "steps", "seed", "out"},
    "verify": {"suite"},
}


_FIELD_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _parse_scalar(key: str, raw: str, kind: type, line_no: int):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: cannot parse {key} = {raw!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key = value config.

    Later lines override earlier ones.  Unset keys take the kind's default
    from ``KIND_DEFAULTS``, else the field default, so an empty file yields
    the ``mf_sweep`` defaults.  Unknown keys, unparsable values, and
    out-of-range values of keys the kind reads raise ``ConfigError`` naming
    the key.
    """
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_DEFAULTS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        default = _FIELD_DEFAULTS[key]  # its type is the key's type; None is an unset float
        if isinstance(default, tuple):
            items = [s.strip() for s in raw.split(",") if s.strip()]
            if not items:
                raise ConfigError(f"line {line_no}: empty list for {key!r}")
            values[key] = tuple(_parse_scalar(key, s, type(default[0]), line_no) for s in items)
        else:
            values[key] = _parse_scalar(key, raw, float if default is None else type(default), line_no)
    kind = values.get("kind", _FIELD_DEFAULTS["kind"])
    cfg = ExperimentConfig(**{**KIND_DEFAULTS.get(kind, {}), **values})
    _validate(cfg)
    return cfg


def _kappa_label(kappa: float) -> str:
    """The kappa part of an output file name."""
    return f"kappa{kappa:g}"


def _distinct(items) -> bool:
    """Whether no two items are equal: cells that share a label would write
    the same file."""
    items = list(items)
    return len(set(items)) == len(items)


def _validate(cfg: ExperimentConfig):
    if cfg.kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {cfg.kind!r}")
    reads = _KIND_KEYS[cfg.kind]
    checks = (  # (key, ok, message), in the order they are reported
        ("d", cfg.d >= 1, "d must be positive"),
        ("r", 1 <= cfg.r <= cfg.d, f"need 1 <= r <= d, got r={cfg.r}, d={cfg.d}"),
        ("k", cfg.k >= cfg.r, f"need k >= r, got k={cfg.k}, r={cfg.r}"),
        ("kappa", all(1.0 <= x < math.inf for x in cfg.kappa), "kappa values must be finite and >= 1"),
        ("kappa", cfg.kind != "rank_sweep" or len(cfg.kappa) == 1,
         f"rank_sweep takes exactly one kappa, got {cfg.kappa}"),
        ("kappa", _distinct(map(_kappa_label, cfg.kappa)),
         f"kappa values must have distinct file labels, got {cfg.kappa}"),
        ("ranks", all(k >= cfg.r for k in cfg.ranks), "ranks must be >= r"),
        ("ranks", _distinct(cfg.ranks), f"ranks must be distinct, got {cfg.ranks}"),
        ("algorithms", all(a in ALGORITHMS for a in cfg.algorithms),
         f"algorithms must be among {ALGORITHMS}, got {cfg.algorithms}"),
        ("algorithms", _distinct(cfg.algorithms), f"algorithms must be distinct, got {cfg.algorithms}"),
        ("schedule", cfg.schedule in ("plateau", "exponential"), f"unknown schedule {cfg.schedule!r}"),
        ("rho", 0.5 <= cfg.rho < 1.0, f"rho must lie in [1/2, 1), got {cfg.rho}"),
        ("prefactor", cfg.prefactor in ("fixed", "per_iteration"), f"unknown prefactor {cfg.prefactor!r}"),
        ("eta0", cfg.eta0 is None or 0 < cfg.eta0 < math.inf, "eta0 must be positive and finite"),
        ("alpha", 0 < cfg.alpha < math.inf, "alpha must be positive and finite"),
        ("T", cfg.T >= 1, "T must be >= 1"),
        ("epsilon", 0 < cfg.epsilon < math.inf, "epsilon must be positive and finite"),
        ("epsilons", all(0 < e < math.inf for e in cfg.epsilons), "epsilons must be positive and finite"),
        ("seed", cfg.seed >= 0, "seed must be nonnegative"),
        ("replicates", cfg.replicates >= 1, "replicates must be >= 1"),
        ("family", cfg.family in FAMILIES, f"family must be one of {FAMILIES}, got {cfg.family!r}"),
        ("r0", 0 < cfg.r0 <= 1.0 / 16.0, "r0 must lie in (0, 1/16]"),
        ("steps", all(s >= 0 for s in cfg.steps), "steps must be nonnegative"),
        ("steps", _distinct(cfg.steps), f"steps must be distinct, got {cfg.steps}"),
        ("suite", cfg.suite in SUITES, f"suite must be one of {SUITES}, got {cfg.suite!r}"),
    )
    for key, ok, message in checks:
        if key in reads and not ok:
            raise ConfigError(message)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def write_csv(path: str, header: str, rows) -> None:
    """Write ``header`` and one comma-joined line per row, LF endings.

    Cells go through ``str``, so floats should arrive already formatted by
    ``format_float``.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_records_csv(path: str, records, diagnostic_t: int | None = None):
    """Write trajectory records; a diagnostic NaN row marks an aborted run."""
    rows = (
        (rec.t, *map(format_float, (rec.eta, rec.loss, rec.spectral_error, rec.grad_sigma_min)))
        for rec in records
    )
    diagnostic = [] if diagnostic_t is None else [(diagnostic_t, "nan", "nan", "nan", "nan")]
    write_csv(path, CSV_HEADER, itertools.chain(rows, diagnostic))


# ---------------------------------------------------------------------------
# Sweep runner
# ---------------------------------------------------------------------------


def scaled_orthonormal_init(stream: RandomStream, d: int, k: int, alpha: float) -> np.ndarray:
    """alpha times a Haar orthonormal d x k matrix: orthonormal columns for
    k <= d, orthonormal rows for k > d."""
    if k <= d:
        return alpha * stream.haar_orthonormal(d, k)
    return alpha * stream.haar_orthonormal(k, d).T


def default_eta0(algorithm: str, inst) -> float:
    """Per-algorithm initial learning rate when the config leaves eta0 unset.

    Muon moves a fixed spectral distance per step, so it starts at the
    natural problem scale; GD starts at the classical inverse-curvature
    scale; SignGD moves every entry by eta, so it starts a decade lower.
    """
    if hasattr(inst, "lambda_max"):  # factorization
        lam = inst.lambda_max
        return {
            "muon": math.sqrt(lam),
            "gd": 0.25 / lam,
            "signgd": 0.1 * math.sqrt(lam),
            "scaledgd": 0.25,
        }[algorithm]
    lam_max = float(inst.eigenvalues[0])
    sig = inst.sigma_min
    return {
        "muon": 1.0 / sig,
        "gd": 1.0 / lam_max**3,
        "signgd": 0.1 / sig,
        "scaledgd": 0.25,
    }[algorithm]


def _make_schedule(cfg: ExperimentConfig, algorithm: str, inst):
    eta0 = cfg.eta0 if cfg.eta0 is not None else default_eta0(algorithm, inst)
    if cfg.schedule == "plateau":
        return PlateauSchedule(initial_eta=eta0)
    return ExponentialSchedule(rho=cfg.rho, base_scale=eta0, prefactor_mode=cfg.prefactor)


@dataclass
class RunOutput:
    """What a run wrote, its summary rows, and its report: the kind's
    printable result lines and whether every check in them passed."""

    csv_paths: list[str]
    summary_path: str | None
    metadata_path: str | None
    summary_rows: list[dict] = field(default_factory=list)
    figure_paths: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    passed: bool = True


def _write_metadata(cfg: ExperimentConfig, out_dir: str) -> str:
    """Write the resolved config as a config file ``parse_config`` reads
    back to ``cfg``; unset optional keys are left out."""
    path = os.path.join(out_dir, "run_metadata.txt")
    with open(path, "w", newline="\n") as fh:
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            fh.write(f"{f.name} = {value}\n")
        fh.write("# early stop: trajectory ends once spectral_error <= epsilon\n")
    return path


def _sweep_points(cfg: ExperimentConfig):
    """(label, kappa, k) triples for the requested sweep; k is the iterate's
    column count (d for the square covariance problem)."""
    if cfg.kind == "rank_sweep":
        (kappa,) = cfg.kappa
        return [(f"{_kappa_label(kappa)}_k{k}", kappa, k) for k in cfg.ranks]
    k = cfg.d if cfg.kind == "icl_sweep" else cfg.k
    return [(f"{_kappa_label(kappa)}_k{k}", kappa, k) for kappa in cfg.kappa]


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunOutput:
    """Execute a config.  A sweep writes one CSV per (algorithm, point,
    replicate), a first-hit summary CSV, figures and a resolved-config
    metadata file; ``lower_bound`` and ``precond_viz`` write their CSVs and
    the metadata file too.  ``kind = verify`` writes nothing.  The result
    lines are the suite lines (``verify``), one bound check per kappa
    (``lower_bound``, failed if violated) or one block difference per step
    (``precond_viz``); sweeps have none.
    """
    if cfg.kind == "verify":
        report = verify(cfg.suite)
        return RunOutput(csv_paths=[], summary_path=None, metadata_path=None,
                         lines=report.lines, passed=report.passed)
    out_dir = out_dir or cfg.out
    os.makedirs(out_dir, exist_ok=True)
    if cfg.kind == "lower_bound":
        return _run_lower_bound(cfg, out_dir)
    if cfg.kind == "precond_viz":
        report = preconditioner_report(
            d=cfg.d, r=cfg.r, k=cfg.k, alpha=cfg.alpha, steps=cfg.steps,
            seed=cfg.seed, out_dir=out_dir,
        )
        meta = _write_metadata(cfg, out_dir)
        return RunOutput(
            csv_paths=list(report.heatmap_paths),
            summary_path=report.difference_path,
            metadata_path=meta,
            lines=[f"t={t}: trace-normalized block difference {diff:.6f}"
                   for t, diff in zip(report.steps, report.normalized_differences)],
        )

    master = RandomStream(cfg.seed)
    points = _sweep_points(cfg)
    csv_paths: list[str] = []
    summary_rows: list[dict] = []
    curves: dict[str, dict[str, tuple]] = {a: {} for a in cfg.algorithms}
    cell_index = 0
    for p_idx, (label, kappa, k) in enumerate(points):
        inst_stream = master.derive(10_000 + p_idx)
        if cfg.kind == "icl_sweep":
            inst = make_icl_instance(inst_stream, cfg.d, kappa ** (1.0 / 3.0), sigma_min=1.0)
        else:
            inst = make_mf_instance(inst_stream, cfg.d, cfg.r, k, kappa, lambda_max=1.0)
        for rep in range(cfg.replicates):
            init_stream = master.derive(20_000 + p_idx * 1_000 + rep)
            if cfg.kind == "icl_sweep":
                init = np.zeros((cfg.d, cfg.d))
            else:
                init = scaled_orthonormal_init(init_stream, cfg.d, k, cfg.alpha)
            for algorithm in cfg.algorithms:
                traj_stream = master.derive(30_000 + cell_index)
                cell_index += 1
                sched = _make_schedule(cfg, algorithm, inst)
                path = os.path.join(out_dir, f"{cfg.kind}_{algorithm}_{label}_rep{rep}.csv")
                diagnostic_t = None
                try:
                    traj = run_trajectory(
                        inst,
                        OptimizerConfig(algorithm),
                        sched,
                        init,
                        cfg.T,
                        stream=traj_stream,
                        stop_below=cfg.epsilon,
                    )
                    records = traj.records
                except NumericalDivergenceError as exc:
                    records = exc.records
                    diagnostic_t = exc.iteration
                write_records_csv(path, records, diagnostic_t=diagnostic_t)
                csv_paths.append(path)
                errors = [rec.spectral_error for rec in records]
                if rep == 0 and records:
                    curves[algorithm][label] = ([rec.t for rec in records], errors)
                for eps in cfg.epsilons:
                    summary_rows.append(
                        {
                            "algorithm": algorithm,
                            "kappa": kappa,
                            "k": k,
                            "replicate": rep,
                            "epsilon": eps,
                            "first_hit": first_hit_time(errors, eps),
                            "final_error": errors[-1] if errors else float("nan"),
                            "iterations": len(records) - 1,
                        }
                    )
    summary_path = os.path.join(out_dir, "summary.csv")
    header = "algorithm,kappa,k,replicate,epsilon,first_hit,final_error,iterations"
    write_csv(summary_path, header, (
        (row["algorithm"], format_float(row["kappa"]), row["k"], row["replicate"],
         *map(format_float, (row["epsilon"], row["first_hit"], row["final_error"])),
         row["iterations"])
        for row in summary_rows
    ))
    figure_paths: list[str] = []
    for algorithm, series in curves.items():
        if series:
            fig_path = os.path.join(out_dir, f"{cfg.kind}_{algorithm}.svg")
            emit_svg_plot(
                series,
                title=f"{algorithm} ({cfg.kind})",
                xlabel="iteration",
                ylabel="spectral error",
                path=fig_path,
            )
            figure_paths.append(fig_path)
    meta = _write_metadata(cfg, out_dir)
    return RunOutput(
        csv_paths=csv_paths, summary_path=summary_path, metadata_path=meta,
        summary_rows=summary_rows, figure_paths=figure_paths,
    )


def _run_lower_bound(cfg: ExperimentConfig, out_dir: str) -> RunOutput:
    csv_paths: list[str] = []
    summary_rows: list[dict] = []
    for kappa in cfg.kappa:
        res = run_lower_bound(cfg.family, kappa, cfg.T, rho=cfg.rho, eta0=cfg.eta0, r0=cfg.r0)
        path = os.path.join(out_dir, f"lower_bound_{cfg.family}_{_kappa_label(kappa)}.csv")
        write_csv(path, "t,metric", ((t, format_float(v)) for t, v in enumerate(res.metric)))
        csv_paths.append(path)
        bound = (kappa - 1.0) / 4.0
        summary_rows.append(
            {
                "family": cfg.family,
                "kappa": kappa,
                "epsilon": res.epsilon,
                "first_hit": res.first_hit,
                "bound": bound,
                "satisfied": res.first_hit >= bound,
            }
        )
    summary_path = os.path.join(out_dir, "lower_bound_summary.csv")
    floats = ("kappa", "epsilon", "first_hit", "bound")
    write_csv(summary_path, "family,kappa,epsilon,first_hit,bound,satisfied", (
        (row["family"], *(format_float(row[key]) for key in floats), int(row["satisfied"]))
        for row in summary_rows
    ))
    meta = _write_metadata(cfg, out_dir)
    return RunOutput(
        csv_paths=csv_paths, summary_path=summary_path, metadata_path=meta,
        summary_rows=summary_rows,
        lines=[
            f"{row['family']} kappa={row['kappa']:g}: first_hit={row['first_hit']} "
            f">= bound={row['bound']:g}? {'OK' if row['satisfied'] else 'VIOLATED'}"
            for row in summary_rows
        ],
        passed=all(row["satisfied"] for row in summary_rows),
    )


# ---------------------------------------------------------------------------
# Preconditioner comparison (Muon vs ScaledGD blocks along a Muon run)
# ---------------------------------------------------------------------------

_PRECOND_VIZ = parse_config("kind = precond_viz")  # the defaults of preconditioner_report


@dataclass
class PreconditionerReport:
    """k x k preconditioner blocks along a Muon trajectory.

    ``muon_blocks`` holds (grad^T grad)^(1/2), ``scaledgd_blocks`` holds
    U^T U; ``normalized_differences`` is the Frobenius distance between the
    trace-normalized blocks (reported, not asserted: the proportionality
    between the two preconditioners is a heuristic, not a theorem).
    """

    steps: tuple[int, ...]
    muon_blocks: list[np.ndarray]
    scaledgd_blocks: list[np.ndarray]
    normalized_differences: list[float]
    heatmap_paths: list[str] = field(default_factory=list)
    difference_path: str | None = None


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via the eigendecomposition; eigenvalues
    rounded up to zero at the -1e-10 * lambda_max level, harder negativity
    raises."""
    f = symmetric_eig(a)
    lam = f.eigenvalues
    floor = -1e-10 * max(lam[0], 0.0)
    if lam[-1] < floor:
        raise PreconditionError(f"matrix is not PSD: min eigenvalue {lam[-1]:.3e}")
    return (f.eigenvectors * np.sqrt(np.clip(lam, 0.0, None))) @ f.eigenvectors.T


def preconditioner_report(
    d: int = _PRECOND_VIZ.d,
    r: int = _PRECOND_VIZ.r,
    k: int = _PRECOND_VIZ.k,
    alpha: float = _PRECOND_VIZ.alpha,
    steps: tuple[int, ...] = _PRECOND_VIZ.steps,
    seed: int = _PRECOND_VIZ.seed,
    out_dir: str | None = None,
) -> PreconditionerReport:
    """Run exact-msign Muon at kappa = 5 on a small factorization task, up to
    the last requested step, and compare its implicit preconditioner block
    with ScaledGD's at the requested steps."""
    if any(s < 0 for s in steps):
        raise PreconditionError(f"steps must be nonnegative, got {tuple(steps)}")
    master = RandomStream(seed)
    inst = make_mf_instance(master.derive(1), d, r, k, 5.0, lambda_max=1.0)
    init = scaled_orthonormal_init(master.derive(2), d, k, alpha)
    T = max(steps)
    sched = PlateauSchedule(initial_eta=math.sqrt(inst.lambda_max))
    traj = run_trajectory(
        inst, OptimizerConfig("muon"), sched, init, T, stream=master.derive(3),
        keep_iterates=True,
    ) if T > 0 else None
    iterates = traj.iterates if traj is not None else [init]
    muon_blocks, sgd_blocks, diffs = [], [], []
    for s in steps:
        u = iterates[s]
        _, grad = mf_loss_grad(inst, u)
        p_muon = psd_sqrt(grad.T @ grad)
        p_sgd = u.T @ u
        muon_blocks.append(p_muon)
        sgd_blocks.append(p_sgd)
        tm, ts = np.trace(p_muon), np.trace(p_sgd)
        if tm > 0 and ts > 0:
            diffs.append(float(np.linalg.norm(p_muon / tm - p_sgd / ts)))
        else:
            diffs.append(float("nan"))
    heatmaps: list[str] = []
    diff_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for s, pm, ps in zip(steps, muon_blocks, sgd_blocks):
            pa = os.path.join(out_dir, f"precond_muon_t{s}.svg")
            pb = os.path.join(out_dir, f"precond_scaledgd_t{s}.svg")
            emit_svg_heatmap(pm, title=f"Muon preconditioner block, t={s}", path=pa)
            emit_svg_heatmap(ps, title=f"ScaledGD preconditioner block, t={s}", path=pb)
            heatmaps.extend([pa, pb])
        diff_path = os.path.join(out_dir, "precond_differences.csv")
        write_csv(diff_path, "t,normalized_difference",
                  ((s, format_float(v)) for s, v in zip(steps, diffs)))
    return PreconditionerReport(
        steps=tuple(steps),
        muon_blocks=muon_blocks,
        scaledgd_blocks=sgd_blocks,
        normalized_differences=diffs,
        heatmap_paths=heatmaps,
        difference_path=diff_path,
    )


def kronecker_identity_gap(d: int = 4, k: int = 2, seed: int = 7) -> float:
    """Max deviation of blockwise preconditioning from the explicit
    I-kron-P product applied to the row-major vectorized gradient."""
    stream = RandomStream(seed)
    g = stream.gaussian_matrix(d, k)
    p = psd_sqrt(g.T @ g)
    full = np.kron(np.eye(d), p)
    via_kron = full @ g.reshape(-1)
    via_block = (g @ p).reshape(-1)
    return float(np.max(np.abs(via_kron - via_block)))


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    lines: list[str]
    passed: bool


def finite_difference_gradient(loss_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Entrywise central differences of a scalar loss; the independent
    oracle for analytic gradients."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (loss_fn(xp) - loss_fn(xm)) / (2.0 * h)
        it.iternext()
    return g


def _suite_msign(seed: int = 2024):
    stream = RandomStream(seed)
    worst = 0.0
    for _ in range(200):
        d = 2 + int(stream.uniform(0, 31))
        k = 1 + int(stream.uniform(0, min(d, 16)))
        z = stream.gaussian_matrix(d, k)
        m = msign_exact(z)
        gram = m.T @ m if d >= k else m @ m.T
        worst = max(worst, float(np.linalg.norm(gram - np.eye(min(d, k)))))
        worst = max(worst, float(np.linalg.norm(msign_exact(m) - m, 2)))
        c = stream.uniform(0.001, 1000.0)
        worst = max(worst, float(np.linalg.norm(msign_exact(c * z) - m, 2)))
    if worst > 1e-10:
        return False, f"exact msign property residual {worst:.3e} > 1e-10"
    ns_worst = 0.0
    for i in range(100):
        d = 4 + int(stream.uniform(0, 29))
        k = 2 + int(stream.uniform(0, min(d, 16) - 1))
        u = stream.haar_orthonormal(d, k)
        v = stream.haar_orthonormal(k, k)
        svals = stream.uniforms(k, 1e-3, 1.0)
        svals[0] = 1.0
        z = (u * svals) @ v.T
        res = msign_newton_schulz(z)
        ns_worst = max(ns_worst, float(np.linalg.norm(res.matrix - msign_exact(z), 2)))
    if ns_worst > 1e-6:
        return False, f"Newton-Schulz vs exact gap {ns_worst:.3e} > 1e-6"
    return True, f"exact residual {worst:.3e}, Newton-Schulz gap {ns_worst:.3e}"


def _suite_oracle(seed: int = 2024):
    master = RandomStream(seed)
    worst = 0.0
    r = 4
    for i, k in enumerate((r, r + 3, 20)):
        inst = make_mf_instance(master.derive(100 + i), 20, r, k, kappa=25.0)
        stream = master.derive(200 + i)
        # one eta realization drives both the full run and the oracle
        etas = materialize_etas(ExponentialSchedule(rho=0.5, base_scale=1.0), 101, stream)
        sigma0 = stream.uniforms(r, 0.05, 0.95) * etas[0]
        init = aligned_mf_init(inst, sigma0, stream)
        full = run_trajectory(
            inst, OptimizerConfig("muon"), SequenceSchedule(etas), init.matrix, 100,
            keep_iterates=True,
        )
        worst = max(worst, oracle_vs_full_divergence(decoupled_mf_trajectory(init, etas[:100]), full.iterates))
    icl = make_icl_instance(master.derive(300), 20, 625.0 ** (1.0 / 3.0), sigma_min=1.0)
    stream = master.derive(301)
    etas = materialize_etas(ExponentialSchedule(rho=0.5, base_scale=1.0), 100, stream)
    full = run_trajectory(
        icl, OptimizerConfig("muon"), SequenceSchedule(etas), np.zeros((20, 20)), 100,
        keep_iterates=True,
    )
    worst = max(worst, oracle_vs_full_divergence(decoupled_icl_trajectory(icl, etas), full.iterates))
    ok = worst <= 1e-10
    return ok, f"decoupling gap {worst:.3e} (tolerance 1e-10)"


def _suite_lemmas(seed: int = 2024):
    margins = {
        "mf": sweep_mf_bounds(1000, seed),
        "icl": sweep_icl_bounds(1000, seed + 1),
        "varying": sweep_mf_bounds_varying(1000, seed + 2),
    }
    never_zero = sweep_never_zero(10_000, 200, seed + 3)
    ok = all(m >= -FLOAT_SLACK for m in margins.values()) and never_zero
    detail = ", ".join(f"{k} margin {v:.3e}" for k, v in margins.items())
    return ok, detail + f", never-zero {never_zero}"


def _suite_lowerbounds():
    lines = []
    ok = True
    for family, kappa in (("quadratic", 21.0), ("quadratic", 101.0), ("quadratic", 401.0),
                          ("mf", 41.0), ("icl", 101.0)):
        res = run_lower_bound(family, kappa, 600)
        bound, dev = (kappa - 1.0) / 4.0, res.slice_deviation
        ok = ok and res.first_hit >= bound and (dev is None or dev <= 1e-14)
        detail = f"bound={bound:g}" if dev is None else f"slice_dev={dev:.2e}"
        lines.append(f"{family} kappa={kappa:g} hit={res.first_hit} {detail}")
    return ok, "; ".join(lines)


def _suite_gradients(seed: int = 2024):
    master = RandomStream(seed)
    worst = 0.0
    for i in range(50):
        inst = make_mf_instance(master.derive(i), d=6, r=2, k=3, kappa=10.0)
        u = master.derive(1000 + i).gaussian_matrix(6, 3)
        _, grad = mf_loss_grad(inst, u)
        fd = finite_difference_gradient(lambda x: mf_loss_grad(inst, x)[0], u)
        worst = max(worst, float(np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))))
    for i in range(50):
        inst = make_icl_instance(master.derive(5000 + i), d=5, kappa_s=3.0)
        q = master.derive(6000 + i).gaussian_matrix(5, 5)
        _, grad = icl_loss_grad(inst, q)
        fd = finite_difference_gradient(lambda x: icl_loss_grad(inst, x)[0], q)
        worst = max(worst, float(np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))))
    ok = worst <= 1e-6
    return ok, f"max relative finite-difference error {worst:.3e}"


def _suite_montecarlo(seed: int = 2024):
    master = RandomStream(seed)
    inst = make_icl_instance(master.derive(1), d=6, kappa_s=2.0)
    worst_sigmas = 0.0
    for i in range(10):
        q = master.derive(100 + i).gaussian_matrix(6, 6) * 0.5
        closed, _ = icl_loss_grad(inst, q)
        est, se = icl_monte_carlo_loss(inst, q, master.derive(200 + i), 100_000)
        if se == 0.0:
            if est != closed:
                return False, "zero-variance estimate disagrees with closed form"
            continue
        worst_sigmas = max(worst_sigmas, abs(est - closed) / se)
    ok = worst_sigmas <= 5.0
    return ok, f"max |estimate - closed|/SE = {worst_sigmas:.2f} (limit 5)"


def verify(suite: str) -> VerifyReport:
    """Run a named verification suite; returns machine-readable result lines
    (``SUITE <name> PASS|FAIL <detail>``) and the overall outcome."""
    if suite not in SUITES:
        raise PreconditionError(f"unknown suite {suite!r}; options: {SUITES}")
    runners = {
        "msign": _suite_msign,
        "oracle": _suite_oracle,
        "lemmas": _suite_lemmas,
        "lowerbounds": _suite_lowerbounds,
        "gradients": _suite_gradients,
        "montecarlo": _suite_montecarlo,
    }
    names = list(runners) if suite == "all" else [suite]
    lines, passed = [], True
    for name in names:
        try:
            ok, detail = runners[name]()
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        passed = passed and ok
        lines.append(f"SUITE {name} {'PASS' if ok else 'FAIL'} {detail}")
    return VerifyReport(lines=lines, passed=passed)
