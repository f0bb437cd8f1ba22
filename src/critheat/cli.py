"""Command-line entry point: critheat <experiment> --config <path> --out <dir>."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import EXPERIMENT_NAMES, ExperimentSpec, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critheat",
        description=(
            "Numerical laboratory for the 4D energy-critical nonlinear heat "
            "equation: bubble constants, decay characters, and decay-rate checks."
        ),
        epilog=(
            "exit codes: 0 every verdict passed; 1 a check failed (summary.json "
            "gives the reason); 2 a config or usage error. A traceback is a bug."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES)
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument(
        "--out", default=None, help="output directory (default critheat-out/<experiment>)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out) if args.out else Path("critheat-out") / args.experiment
    spec = ExperimentSpec(
        name=args.experiment,
        config_path=args.config,
        out_dir=out_dir,
    )
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
