"""Command-line front end.

Subcommands: ``run`` (config-driven sweeps), ``lower-bound`` (adversarial
SignGD instances), ``precond-viz`` (preconditioner heatmaps), ``verify``
(property suites).  Exit codes: 0 success, 1 failed suite or violated lower
bound, 2 config error, 3 runtime numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, MuonLabError, NumericalDivergenceError, PreconditionError
from .experiments import (
    ExperimentConfig,
    FAMILIES,
    SUITES,
    parse_config,
    run_experiment,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muonlab",
        description="Spectral-orthogonalization optimizer laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a config-driven experiment")
    run_p.add_argument("--config", required=True, help="path to a key = value config file")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")

    lb_p = sub.add_parser("lower-bound", help="run a SignGD lower-bound construction")
    lb_p.add_argument("--family", choices=FAMILIES, required=True)
    lb_p.add_argument("--kappa", required=True, help="comma-separated condition numbers")
    lb_p.add_argument("--rho", type=float, default=0.98, help="schedule decay (eta_t = eta0 * rho^t)")
    lb_p.add_argument("--eta0", type=float, default=None, help="initial learning rate")
    lb_p.add_argument("--T", type=int, default=600, help="iterations to run")
    lb_p.add_argument("--out", default="results", help="output directory")

    pv_p = sub.add_parser("precond-viz", help="Muon vs ScaledGD preconditioner heatmaps")
    pv_p.add_argument("--d", type=int, default=10)
    pv_p.add_argument("--r", type=int, default=5)
    pv_p.add_argument("--k", type=int, default=5)
    pv_p.add_argument("--alpha", type=float, default=1e-10)
    pv_p.add_argument("--steps", default="0,500,1000", help="comma-separated step indices")
    pv_p.add_argument("--seed", type=int, default=42)
    pv_p.add_argument("--out", default="results")

    v_p = sub.add_parser("verify", help="run a verification suite")
    v_p.add_argument("--suite", choices=SUITES, default="all")
    return parser


def _run(cfg: ExperimentConfig, out_dir: str | None) -> int:
    """Run a config and report it: the kind's result lines (suite lines,
    bound checks, block differences), then the written paths.  A failed
    suite or a violated lower bound exits 1."""
    out = run_experiment(cfg, out_dir=out_dir)
    ok = True
    for row in out.summary_rows:
        if cfg.kind == "verify":
            for line in row["lines"]:
                print(line)
            ok = row["passed"]
        elif cfg.kind == "lower_bound":
            ok = ok and row["satisfied"]
            print(
                f"{row['family']} kappa={row['kappa']:g}: first_hit={row['first_hit']} "
                f">= bound={row['bound']:g}? {'OK' if row['satisfied'] else 'VIOLATED'}"
            )
        elif cfg.kind == "precond_viz":
            print(f"t={row['t']}: trace-normalized block difference {row['normalized_difference']:.6f}")
    for path in out.csv_paths + out.figure_paths + ([out.summary_path] if out.summary_path else []):
        print(f"wrote {path}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
            if args.seed is not None:
                cfg.seed = args.seed
            return _run(cfg, args.out)
        if args.command == "verify":
            return _run(ExperimentConfig(kind="verify", suite=args.suite), None)
        if args.command == "lower-bound":
            cfg = ExperimentConfig(
                kind="lower_bound",
                family=args.family,
                kappa=tuple(float(s) for s in args.kappa.split(",")),
                lb_rho=args.rho,
                lb_eta0=args.eta0,
                T=args.T,
            )
        else:  # precond-viz
            cfg = ExperimentConfig(
                kind="precond_viz", d=args.d, r=args.r, k=args.k, alpha=args.alpha,
                steps=tuple(int(s) for s in args.steps.split(",")), seed=args.seed,
            )
        return _run(cfg, args.out)
    except (ConfigError, PreconditionError, FileNotFoundError) as exc:
        # bad config values and out-of-contract CLI parameters alike
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericalDivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except MuonLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
