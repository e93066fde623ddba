"""Config-driven experiment runner: condition-number sweeps, lower-bound
runs, preconditioner visualization, and verification suites.

Configs are flat ``key = value`` text files (``#`` comments, comma-separated
lists).  Every run is a pure function of (seed, config): per-cell random
streams are derived from the master seed by a fixed enumeration, floats are
written in shortest round-trip form, and files use LF endings, so reruns are
byte-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, NumericalDivergenceError, PreconditionError
from .lowerbounds import (DEFAULT_RHO, DEFAULT_T, FAMILIES, R0_MAX, first_hit_time, lower_bound_verdict,
                          run_lower_bound, step_bound)
from .msign import msign_exact, msign_newton_schulz
from .optimizers import (
    ALGORITHMS,
    PREFACTOR_RANGE,
    ExponentialSchedule,
    OptimizerConfig,
    PlateauSchedule,
    run_trajectory,
)
from .oracle import (
    FLOAT_SLACK,
    decoupling_gap,
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
    r0: float = R0_MAX
    steps: tuple[int, ...] = (0, 500, 1000)
    suite: str = "all"


# defaults that differ from the field defaults, by kind
KIND_DEFAULTS = {
    "lower_bound": {"rho": DEFAULT_RHO, "T": DEFAULT_T},
    "precond_viz": {"d": 10, "r": 5, "k": 5, "alpha": 1e-10},
}

# the keys each kind reads: _validate checks only these, and they are the
# flags of the kind's subcommand
_SWEEP_KEYS = {"d", "kappa", "algorithms", "schedule", "rho", "prefactor", "eta0", "T",
               "epsilon", "epsilons", "seed", "replicates", "out"}
KIND_KEYS = {
    "mf_sweep": _SWEEP_KEYS | {"r", "k", "alpha"},
    "icl_sweep": _SWEEP_KEYS,
    "lower_bound": {"family", "kappa", "rho", "eta0", "T", "r0", "out"},
    "precond_viz": {"d", "r", "k", "alpha", "steps", "seed", "out"},
    "verify": {"suite"},
}
KINDS = tuple(KIND_KEYS)
# the verification suites in run order; verify looks _suite_<name> up by name
# when it runs, so a wrapper rebound over one (bench/tracer.py times each
# suite so) is the one that runs
_SUITE_NAMES = ("msign", "oracle", "lemmas", "lowerbounds", "gradients", "montecarlo")
SUITES = (*_SUITE_NAMES, "all")


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
    reads = KIND_KEYS[cfg.kind]
    sweep = cfg.kind in ("mf_sweep", "icl_sweep")
    checks = (  # (key, ok, message), in the order they are reported
        ("d", cfg.d >= 1, "d must be positive"),
        ("r", 1 <= cfg.r <= cfg.d, f"need 1 <= r <= d, got r={cfg.r}, d={cfg.d}"),
        ("r", cfg.kind != "precond_viz" or cfg.r >= 2,
         f"precond_viz runs at kappa 5, so r must be >= 2, got r={cfg.r}"),
        ("k", cfg.k >= cfg.r, f"need k >= r, got k={cfg.k}, r={cfg.r}"),
        ("kappa", all(1.0 <= x < math.inf for x in cfg.kappa), "kappa values must be finite and >= 1"),
        ("kappa", _distinct(map(_kappa_label, cfg.kappa)),
         f"kappa values must have distinct file labels, got {cfg.kappa}"),
        # run_experiment's stream ids 20_000 + 1_000 * point + rep stay below
        # the cells' 30_000 + cell, and distinct, up to 10 points and 1,000 reps
        ("kappa", not sweep or len(cfg.kappa) <= 10,
         f"a sweep takes at most 10 kappa values, got {len(cfg.kappa)}"),
        ("kappa", not sweep or set(cfg.kappa) == {1.0} or (cfg.d if cfg.kind == "icl_sweep" else cfg.r) >= 2,
         f"kappa values other than 1 need r >= 2 (mf_sweep) or d >= 2 (icl_sweep), got {cfg.kappa}"),
        ("kappa", cfg.kind != "lower_bound" or cfg.family not in ("mf", "icl") or min(cfg.kappa) >= 2.0,
         f"kappa values must be >= 2 for family {cfg.family}, got {cfg.kappa}"),
        ("algorithms", all(a in ALGORITHMS for a in cfg.algorithms),
         f"algorithms must be among {ALGORITHMS}, got {cfg.algorithms}"),
        ("algorithms", _distinct(cfg.algorithms), f"algorithms must be distinct, got {cfg.algorithms}"),
        ("algorithms", "scaledgd" not in cfg.algorithms or (cfg.kind == "mf_sweep" and cfg.k <= cfg.d),
         "algorithms may hold scaledgd only on mf_sweep with k <= d, where U_0^T U_0 is invertible"),
        ("schedule", cfg.schedule in ("plateau", "exponential"), f"unknown schedule {cfg.schedule!r}"),
        ("rho", 0.5 <= cfg.rho < 1.0, f"rho must lie in [1/2, 1), got {cfg.rho}"),
        ("prefactor", cfg.prefactor in ("fixed", "per_iteration"), f"unknown prefactor {cfg.prefactor!r}"),
        ("eta0", cfg.eta0 is None or 0 < cfg.eta0 < math.inf, "eta0 must be positive and finite"),
        ("eta0", not sweep or cfg.schedule != "exponential" or cfg.eta0 is None
         or PREFACTOR_RANGE[1] * cfg.eta0 < math.inf,
         f"eta0 overflows at the largest exponential prefactor {PREFACTOR_RANGE[1]}, got {cfg.eta0}"),
        ("alpha", 0 < cfg.alpha < math.inf, "alpha must be positive and finite"),
        ("T", cfg.T >= 1, "T must be >= 1"),
        ("epsilon", 0 < cfg.epsilon < math.inf, "epsilon must be positive and finite"),
        ("epsilons", all(0 < e < math.inf for e in cfg.epsilons), "epsilons must be positive and finite"),
        # a run stops at epsilon, so a summary level below it would read as censored
        ("epsilon", cfg.epsilon <= min(cfg.epsilons),
         f"epsilon must be <= min(epsilons) = {min(cfg.epsilons)}, got {cfg.epsilon}"),
        ("seed", cfg.seed >= 0, "seed must be nonnegative"),
        ("replicates", 1 <= cfg.replicates <= 1000,
         f"replicates must lie in [1, 1000], got {cfg.replicates}"),
        ("family", cfg.family in FAMILIES, f"family must be one of {FAMILIES}, got {cfg.family!r}"),
        ("r0", 0 < cfg.r0 <= R0_MAX, "r0 must lie in (0, 1/16]"),
        ("steps", all(s >= 0 for s in cfg.steps), "steps must be nonnegative"),
        ("steps", _distinct(cfg.steps), f"steps must be distinct, got {cfg.steps}"),
        ("suite", cfg.suite in SUITES, f"suite must be one of {SUITES}, got {cfg.suite!r}"),
    )
    for key, ok, message in checks:
        if key in reads and not ok:
            raise ConfigError(message)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` in one write, LF endings: the one function
    that opens an output file."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_records_csv(path: str, records, diagnostic_t: int | None = None):
    """Write trajectory records; a diagnostic NaN row marks an aborted run.
    A row reuses the text of the previous row's eta object, and of the last
    two (loss, err, gsm) triples it formatted: ``run_trajectory`` hands plateau
    etas and the rows its two-entry memo repeats the same float objects."""
    lines = []
    eta_obj = eta_text = None
    tail: list[tuple] = []  # (loss, err, gsm, text) of the last two rows formatted
    for t, eta, loss, err, gsm in records:
        if eta is not eta_obj:
            eta_obj, eta_text = eta, str(eta)
        for e in tail:
            if e[0] is loss and e[1] is err and e[2] is gsm:
                text = e[3]
                break
        else:
            text = f"{loss!s},{err!s},{gsm!s}"  # !s: str() without format()'s dispatch
            tail = tail[-1:] + [(loss, err, gsm, text)]
        lines.append(f"{t},{eta_text},{text}")
    if diagnostic_t is not None:
        lines.append(f"{diagnostic_t},nan,nan,nan,nan")
    write_text(path, "\n".join([CSV_HEADER, *lines, ""]))


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
    }[algorithm]


def _make_schedule(cfg: ExperimentConfig, algorithm: str, inst):
    eta0 = cfg.eta0 if cfg.eta0 is not None else default_eta0(algorithm, inst)
    if cfg.schedule == "plateau":
        return PlateauSchedule(initial_eta=eta0)
    return ExponentialSchedule(rho=cfg.rho, base_scale=eta0, prefactor_mode=cfg.prefactor)


@dataclass
class RunOutput:
    """What a run wrote (every file, in write order), its summary rows, and
    its report: the kind's printable result lines and whether every check
    in them passed."""

    paths: list[str]
    summary_rows: list[dict] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    passed: bool = True


def _write_table(path: str, rows: list[dict]) -> None:
    """Write nonempty ``rows`` as a CSV: the header is their keys, each line
    the ``str()`` of a row's values, so rows hold the values as written
    (``str`` of a Python float or ``np.float64`` is its shortest round-trip
    form; an int needs ``float()``)."""
    write_text(path, "\n".join([",".join(rows[0]), *(",".join(map(str, row.values())) for row in rows), ""]))


def _write_metadata(cfg: ExperimentConfig, out_dir: str) -> str:
    """Write the resolved config as a config file ``parse_config`` reads
    back to ``cfg``; unset optional keys are left out."""
    path = os.path.join(out_dir, "run_metadata.txt")
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}\n")
    write_text(path, "".join(lines) + "# early stop: trajectory ends once spectral_error <= epsilon\n")
    return path


def _make_out_dir(out_dir: str) -> None:
    import contextlib
    import errno

    if not out_dir:
        raise ConfigError("out must name a directory, got ''")
    missing, head = [], os.path.dirname(out_dir)  # the ancestors makedirs may make, deepest first
    while head and not os.path.lexists(head):
        missing.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        if isinstance(exc, OSError) and exc.errno not in (errno.EEXIST, errno.ENOTDIR, errno.ENAMETOOLONG):
            raise  # a failed write, not a file in the way or a name the OS rejects
        for path in missing:
            with contextlib.suppress(OSError, ValueError):  # not made, or not empty
                os.rmdir(path)
        raise ConfigError(f"out {out_dir!r} cannot be made a directory: "
                          f"{getattr(exc, 'strerror', exc)}") from None


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunOutput:
    """Execute a config in ``out_dir`` (``cfg.out`` when None).  A sweep
    writes one CSV per (algorithm, kappa, replicate), a first-hit summary CSV
    and figures; ``lower_bound`` and ``precond_viz`` write their CSVs and
    heatmaps; each then writes the resolved-config file ``run_metadata.txt``,
    the last of its ``paths``.  ``kind = verify`` writes nothing.  The result
    lines are the suite lines (``verify``), one bound check per kappa
    (``lower_bound``, failed unless shown) or one block difference per step
    (``precond_viz``); sweeps have none.
    """
    if cfg.kind == "verify":
        return verify(cfg.suite)
    out_dir = cfg.out if out_dir is None else out_dir
    run = {"lower_bound": _run_lower_bound, "precond_viz": _run_precond_viz}.get(cfg.kind, _run_sweep)
    out = run(cfg, out_dir)
    out.paths.append(_write_metadata(cfg, out_dir))
    return out


def _run_sweep(cfg: ExperimentConfig, out_dir: str) -> RunOutput:
    _make_out_dir(out_dir)
    master = RandomStream(cfg.seed)
    k = cfg.d if cfg.kind == "icl_sweep" else cfg.k  # the iterate's column count
    paths: list[str] = []
    summary_rows: list[dict] = []
    curves: dict[str, dict[str, tuple]] = {a: {} for a in cfg.algorithms}
    cell_index = 0
    for p_idx, kappa in enumerate(cfg.kappa):
        label = f"{_kappa_label(kappa)}_k{k}"
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
                except NumericalDivergenceError as exc:  # RankDeficiencyError among them
                    records = exc.records
                    diagnostic_t = exc.iteration
                write_records_csv(path, records, diagnostic_t=diagnostic_t)
                paths.append(path)
                errors = [rec.spectral_error for rec in records]
                if rep == 0 and records:  # t runs 0, 1, ...; an array keeps 8 bytes an error
                    curves[algorithm][label] = (range(len(records)), np.array(errors))
                for eps in cfg.epsilons:
                    summary_rows.append(
                        {
                            "algorithm": algorithm,
                            "kappa": float(kappa),
                            "k": k,
                            "replicate": rep,
                            "epsilon": float(eps),
                            "first_hit": float(first_hit_time(errors, eps)),
                            "final_error": errors[-1] if errors else float("nan"),
                            # no records: the loss was not finite at t = 0,
                            # or the step from t = 0 was refused (ScaledGD)
                            "iterations": max(len(records) - 1, 0),
                        }
                    )
    paths.append(os.path.join(out_dir, "summary.csv"))
    _write_table(paths[-1], summary_rows)
    for algorithm, series in curves.items():
        if series:
            paths.append(os.path.join(out_dir, f"{cfg.kind}_{algorithm}.svg"))
            write_text(paths[-1], emit_svg_plot(series, title=f"{algorithm} ({cfg.kind})",
                                                ylabel="spectral error"))
    return RunOutput(paths=paths, summary_rows=summary_rows)


def _run_lower_bound(cfg: ExperimentConfig, out_dir: str) -> RunOutput:
    # every construction, any of which can be rejected, is built before a
    # file or directory is written
    results = [run_lower_bound(cfg.family, kappa, cfg.T, rho=cfg.rho, eta0=cfg.eta0, r0=cfg.r0)
               for kappa in cfg.kappa]
    _make_out_dir(out_dir)
    paths, summary_rows, lines = [], [], []
    for kappa, res in zip(cfg.kappa, results):
        paths.append(os.path.join(out_dir, f"lower_bound_{cfg.family}_{_kappa_label(kappa)}.csv"))
        _write_table(paths[-1], [{"t": t, "metric": v} for t, v in enumerate(res.metric)])
        bound, verdict = step_bound(kappa), lower_bound_verdict(res, kappa, cfg.T)
        summary_rows.append({"family": cfg.family, "kappa": float(kappa), "epsilon": float(res.epsilon),
                             "first_hit": float(res.first_hit), "bound": bound, "satisfied": int(verdict == "OK")})
        lines.append(f"{cfg.family} kappa={kappa:g}: first_hit={res.first_hit} >= bound={bound:g}? {verdict}")
    paths.append(os.path.join(out_dir, "lower_bound_summary.csv"))
    _write_table(paths[-1], summary_rows)
    return RunOutput(paths=paths, summary_rows=summary_rows, lines=lines,
                     passed=all(row["satisfied"] for row in summary_rows))


def _run_precond_viz(cfg: ExperimentConfig, out_dir: str) -> RunOutput:
    _make_out_dir(out_dir)
    report = preconditioner_report(
        d=cfg.d, r=cfg.r, k=cfg.k, alpha=cfg.alpha, steps=cfg.steps, seed=cfg.seed, out_dir=out_dir,
    )
    return RunOutput(
        paths=[*report.heatmap_paths, report.difference_path],
        lines=[f"t={t}: trace-normalized block difference {diff:.6f}"
               for t, diff in zip(report.steps, report.normalized_differences)],
    )


# ---------------------------------------------------------------------------
# Preconditioner comparison (Muon vs ScaledGD blocks along a Muon run)
# ---------------------------------------------------------------------------

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
    heatmap_paths: list[str]
    difference_path: str


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a Gram matrix g.T @ g via its eigendecomposition;
    eigenvalues rounded up to zero at the -1e-10 * lambda_max level, harder
    negativity raises."""
    lam, vecs = np.linalg.eigh(a)
    lam, vecs = lam[::-1], vecs[:, ::-1]  # descending: the summation order the outputs pin
    floor = -1e-10 * max(lam[0], 0.0)
    if lam[-1] < floor:
        raise PreconditionError(f"matrix is not PSD: min eigenvalue {lam[-1]:.3e}")
    return (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.T


def preconditioner_report(
    d: int, r: int, k: int, alpha: float, steps: tuple[int, ...], seed: int, out_dir: str
) -> PreconditionerReport:
    """Run exact-msign Muon at kappa = 5 on a small factorization task, up to
    the last requested step, and compare its implicit preconditioner block
    with ScaledGD's at the requested steps; the heatmaps and the difference
    CSV go to the existing directory ``out_dir``."""
    if not steps or any(s < 0 for s in steps):
        raise PreconditionError(f"steps must be nonempty and nonnegative, got {tuple(steps)}")
    master = RandomStream(seed)
    inst = make_mf_instance(master.derive(1), d, r, k, 5.0, lambda_max=1.0)
    init = scaled_orthonormal_init(master.derive(2), d, k, alpha)
    T = max(steps)
    sched = PlateauSchedule(initial_eta=default_eta0("muon", inst))
    traj = run_trajectory(
        inst, OptimizerConfig("muon"), sched, init, T, stream=master.derive(3),
        keep_iterates=True,
    ) if T > 0 else None
    iterates = traj.iterates if traj is not None else [init]
    muon_blocks, sgd_blocks, diffs = [], [], []
    for s in steps:
        u = iterates[s]
        _, grad = mf_loss_grad(inst, u)
        p_muon = _psd_sqrt(grad.T @ grad)
        p_sgd = u.T @ u
        muon_blocks.append(p_muon)
        sgd_blocks.append(p_sgd)
        tm, ts = np.trace(p_muon), np.trace(p_sgd)
        if tm > 0 and ts > 0:
            diffs.append(float(np.linalg.norm(p_muon / tm - p_sgd / ts)))
        else:
            diffs.append(float("nan"))
    heatmaps: list[str] = []
    for s, pm, ps in zip(steps, muon_blocks, sgd_blocks):
        pa = os.path.join(out_dir, f"precond_muon_t{s}.svg")
        pb = os.path.join(out_dir, f"precond_scaledgd_t{s}.svg")
        write_text(pa, emit_svg_heatmap(pm, title=f"Muon preconditioner block, t={s}"))
        write_text(pb, emit_svg_heatmap(ps, title=f"ScaledGD preconditioner block, t={s}"))
        heatmaps.extend([pa, pb])
    diff_path = os.path.join(out_dir, "precond_differences.csv")
    _write_table(diff_path, [{"t": s, "normalized_difference": v} for s, v in zip(steps, diffs)])
    return PreconditionerReport(
        steps=tuple(steps),
        muon_blocks=muon_blocks,
        scaledgd_blocks=sgd_blocks,
        normalized_differences=diffs,
        heatmap_paths=heatmaps,
        difference_path=diff_path,
    )


def kronecker_identity_gap(d: int = 4, k: int = 2) -> float:
    """Max deviation of blockwise preconditioning from the explicit
    I-kron-P product applied to the row-major vectorized gradient, on a
    Gaussian gradient drawn at seed 7."""
    stream = RandomStream(7)
    g = stream.gaussian_matrix(d, k)
    p = _psd_sqrt(g.T @ g)
    full = np.kron(np.eye(d), p)
    via_kron = full @ g.reshape(-1)
    via_block = (g @ p).reshape(-1)
    return float(np.max(np.abs(via_kron - via_block)))


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def finite_difference_gradient(loss_fn, x: np.ndarray) -> np.ndarray:
    """Entrywise central differences of a scalar loss at step h = 1e-5; the
    independent oracle for analytic gradients."""
    h = 1e-5
    x = x.copy()  # private: each entry is moved to +h, then -h, then restored
    g = np.zeros_like(x)
    flat, g_flat = x.reshape(-1), g.reshape(-1)
    for i, orig in enumerate(flat.tolist()):
        flat[i] = orig + h
        plus = loss_fn(x)
        flat[i] = orig - h
        g_flat[i] = (plus - loss_fn(x)) / (2.0 * h)
        flat[i] = orig
    return g


def _suite_msign():
    stream = RandomStream(2024)
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


def _suite_oracle():
    master = RandomStream(2024)
    cells = [make_mf_instance(master.derive(100 + i), 20, 4, k, kappa=25.0) for i, k in enumerate((4, 7, 20))]
    cells.append(make_icl_instance(master.derive(300), 20, 625.0 ** (1.0 / 3.0), sigma_min=1.0))
    worst = max(decoupling_gap(inst, master.derive(s), 100) for inst, s in zip(cells, (200, 201, 202, 301)))
    return worst <= 1e-10, f"decoupling gap {worst:.3e} (tolerance 1e-10)"


def _suite_lemmas():
    margins = {
        "mf": sweep_mf_bounds(1000, 2024),
        "icl": sweep_icl_bounds(1000, 2025),
        "varying": sweep_mf_bounds_varying(1000, 2026),
    }
    never_zero = sweep_never_zero(10_000, 200, 2027)
    ok = all(m >= -FLOAT_SLACK for m in margins.values()) and never_zero
    detail = ", ".join(f"{k} margin {v:.3e}" for k, v in margins.items())
    return ok, detail + f", never-zero {never_zero}"


def _suite_lowerbounds():
    # cells that reach their epsilon within the default run (every family is
    # censored at kappa 101); each must hit, since a censored run shows only
    # its step budget, and its verdict must be OK
    lines, ok = [], True
    for family, kappa in (("quadratic", 21.0), ("quadratic", 81.0), ("mf", 41.0),
                          ("mf", 81.0), ("icl", 81.0)):
        res = run_lower_bound(family, kappa, DEFAULT_T)
        hit, dev = res.first_hit, res.slice_deviation
        ok = ok and hit < math.inf and lower_bound_verdict(res, kappa, DEFAULT_T) == "OK"
        detail = f"bound={step_bound(kappa):g}" if dev is None else f"slice_dev={dev:.2e}"
        lines.append(f"{family} kappa={kappa:g} hit={hit} {detail}")
    return ok, "; ".join(lines)


def _suite_gradients():
    master = RandomStream(2024)
    mf = [(make_mf_instance(master.derive(i), d=6, r=2, k=3, kappa=10.0), mf_loss_grad,
           master.derive(1000 + i).gaussian_matrix(6, 3)) for i in range(50)]
    icl = [(make_icl_instance(master.derive(5000 + i), d=5, kappa_s=3.0), icl_loss_grad,
            master.derive(6000 + i).gaussian_matrix(5, 5)) for i in range(50)]
    worst = 0.0
    for inst, loss_grad, x in mf + icl:
        _, grad = loss_grad(inst, x)
        fd = finite_difference_gradient(lambda y: inst.loss_grad(y)[0], x)
        worst = max(worst, float(np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))))
    return worst <= 1e-6, f"max relative finite-difference error {worst:.3e}"


def _suite_montecarlo():
    master = RandomStream(2024)
    inst = make_icl_instance(master.derive(1), d=6, kappa_s=2.0)
    worst_sigmas = 0.0
    for i in range(10):
        q = master.derive(100 + i).gaussian_matrix(6, 6) * 0.5
        closed, _ = icl_loss_grad(inst, q)
        est, se = icl_monte_carlo_loss(inst, q, master.derive(200 + i), 100_000)
        worst_sigmas = max(worst_sigmas, abs(est - closed) / se)
    ok = worst_sigmas <= 5.0
    return ok, f"max |estimate - closed|/SE = {worst_sigmas:.2f} (limit 5)"


def _run_suite(name: str) -> tuple[bool, str]:
    """(passed, detail) of the suite ``_suite_<name>``; a crashed suite is a
    failed suite."""
    try:
        return globals()[f"_suite_{name}"]()
    except Exception as exc:
        return False, f"raised {type(exc).__name__}: {exc}"


# The suite ``verify("all")`` runs in a forked child while the others run in
# this process: it shares no state with them, and it calls no
# ``run_trajectory``, so a wrapper that counts steps here still sees them all.
_FORKED_SUITE = "montecarlo"


def _run_suites_forked(names) -> dict[str, tuple[bool, str]]:
    """Each suite's (passed, detail), ``_FORKED_SUITE``'s from a forked child
    that sends one byte (``1`` passed, ``0`` failed) and the UTF-8 detail down
    a pipe; one that sends no whole result is a failed suite naming its exit
    status.  A raising caller kills the child, which is reaped on every path."""
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as reader, open(write_fd, "wb") as writer:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                reader.close()
                ok, detail = _run_suite(_FORKED_SUITE)
                writer.write((b"1" if ok else b"0") + detail.encode("utf-8", "surrogatepass"))
                writer.flush()
                status = 0
            finally:
                os._exit(status)  # flushes no inherited stdio buffer, runs no atexit hook
        writer.close()
        try:
            results = {name: _run_suite(name) for name in names if name != _FORKED_SUITE}
            data = reader.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0 and data:
        results[_FORKED_SUITE] = data[:1] == b"1", data[1:].decode("utf-8", "surrogatepass")
    else:
        ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        results[_FORKED_SUITE] = False, f"forked child {ended} without sending a result"
    return results


def verify(suite: str) -> RunOutput:
    """Run a named verification suite; the result has no paths, machine-readable
    lines (``SUITE <name> PASS|FAIL <detail>``, in ``_SUITE_NAMES`` order) and
    the outcome.  Where ``os.fork`` exists, ``"all"`` forks ``_FORKED_SUITE``
    unless ``os.sched_getaffinity`` leaves this process one CPU, where the
    child would only take turns with this process."""
    if suite not in SUITES:
        raise PreconditionError(f"unknown suite {suite!r}; options: {SUITES}")
    names = _SUITE_NAMES if suite == "all" else (suite,)
    one_cpu = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) == 1
    if len(names) > 1 and hasattr(os, "fork") and not one_cpu:
        results = _run_suites_forked(names)
    else:
        results = {name: _run_suite(name) for name in names}
    lines, passed = [], True
    for name in names:
        ok, detail = results[name]
        passed = passed and ok
        lines.append(f"SUITE {name} {'PASS' if ok else 'FAIL'} {detail}")
    return RunOutput(paths=[], lines=lines, passed=passed)
