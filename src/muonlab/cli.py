"""Command-line front end.

Subcommands: ``run`` (config-driven sweeps), ``lower-bound`` (adversarial
SignGD instances), ``precond-viz`` (preconditioner heatmaps), ``verify``
(property suites).  Each command line is one config text, read and
validated by ``parse_config``.  Exit codes: 0 success, 1 failed suite or
lower bound not shown, 2 config error, 3 runtime numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, MuonLabError, NumericalDivergenceError, PreconditionError
from .experiments import FAMILIES, SUITES, parse_config, run_experiment

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    """Every flag except ``--config`` and ``--out`` is named after the config
    key it sets; unset flags stay out of the namespace, so the config text
    and the kind's defaults decide."""
    parser = argparse.ArgumentParser(
        prog="muonlab",
        description="Spectral-orthogonalization optimizer laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    run_p = subcommand("run", "run a config-driven experiment")
    run_p.add_argument("--config", required=True, help="path to a key = value config file")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument("--seed", help="master seed (overrides config)")

    lb_p = subcommand("lower-bound", "run a SignGD lower-bound construction")
    lb_p.add_argument("--family", required=True, help=" | ".join(FAMILIES))
    lb_p.add_argument("--kappa", required=True, help="comma-separated condition numbers")
    lb_p.add_argument("--rho", help="schedule decay (eta_t = eta0 * rho^t)")
    lb_p.add_argument("--eta0", help="initial learning rate")
    lb_p.add_argument("--T", help="iterations to run")
    lb_p.add_argument("--out", help="output directory")

    pv_p = subcommand("precond-viz", "Muon vs ScaledGD preconditioner heatmaps")
    for key in ("d", "r", "k", "alpha", "seed", "out"):
        pv_p.add_argument(f"--{key}")
    pv_p.add_argument("--steps", help="comma-separated step indices")

    v_p = subcommand("verify", "run a verification suite")
    v_p.add_argument("--suite", help=" | ".join(SUITES))
    return parser


def _config_text(args: dict) -> str:
    """The config a command line describes: the ``--config`` file for
    ``run``, else ``kind = <command>``, then one ``key = value`` line per
    flag given."""
    command = args.pop("command")
    if command == "run":
        path = args.pop("config")
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"config {path!r} cannot be read: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from None
    else:
        text = f"kind = {command.replace('-', '_')}"
    for key, value in args.items():
        if len(value.splitlines()) > 1:  # a second line would set another key
            raise ConfigError(f"--{key} must be one line, got {value!r}")
    return text + "".join(f"\n{key} = {value}" for key, value in args.items())


def main(argv=None) -> int:
    """Run one subcommand.  It prints the kind's result lines (suite lines,
    bound checks, block differences), then the written paths; a failed suite
    or a lower-bound row whose ``lower_bound_verdict`` is not OK (VIOLATED,
    UNDECIDED, OFF-SLICE) exits 1."""
    args = vars(_build_parser().parse_args(argv))
    out_dir = args.pop("out", None)
    try:
        out = run_experiment(parse_config(_config_text(args)), out_dir=out_dir)
    except (ConfigError, PreconditionError) as exc:
        # bad config values and out-of-contract CLI parameters alike
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericalDivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except MuonLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    for line in out.lines:
        print(line)
    for path in out.csv_paths + out.figure_paths + ([out.summary_path] if out.summary_path else []):
        print(f"wrote {path}")
    return EXIT_OK if out.passed else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
