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
from .experiments import KIND_KEYS, parse_config, run_experiment

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    """``run`` takes ``--config`` and the overrides ``--out`` and ``--seed``;
    every other subcommand takes one flag per key its kind reads
    (``KIND_KEYS``).  Unset flags stay out of the namespace, so the config
    text and the kind's defaults decide."""
    parser = argparse.ArgumentParser(
        prog="muonlab",
        description="Spectral-orthogonalization optimizer laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "run": "run a config-driven experiment",
        "lower-bound": "run a SignGD lower-bound construction",
        "precond-viz": "Muon vs ScaledGD preconditioner heatmaps",
        "verify": "run a verification suite",
    }
    for command, help in helps.items():
        p = sub.add_parser(command, help=help, argument_default=argparse.SUPPRESS)
        keys = ("config", "out", "seed") if command == "run" else sorted(KIND_KEYS[command.replace("-", "_")])
        for key in keys:
            p.add_argument(f"--{key}", required=key == "config")
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
        # a second line would set another key, and a '#' would cut the value short
        if len(value.splitlines()) > 1 or "#" in value:
            raise ConfigError(f"--{key} must be one line without '#', got {value!r}")
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
