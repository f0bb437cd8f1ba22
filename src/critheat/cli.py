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
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help=(
            "FFT worker count, at most the CPUs this process may use "
            "(default 1; the outputs do not depend on it). It pays only on "
            "large grids: on a 2-CPU machine, 2 workers slowed nonlinear-decay "
            "at N = 16 from 0.6 s to 0.9-1.2 s, left N = 32 unchanged and cut "
            "the step time at N = 48 by 22%%"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out) if args.out else Path("critheat-out") / args.experiment
    spec = ExperimentSpec(
        name=args.experiment,
        config_path=args.config,
        out_dir=out_dir,
        threads=args.threads,
    )
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
