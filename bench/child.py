"""One benchmark round: a fresh process that runs one experiment.

    python3 bench/child.py <experiment> <config> <out_dir> <spawn_time> <trace 0|1>

`spawn_time` is the parent's `time.monotonic()` just before it started this
process (the clock is system-wide), so `setup_s` covers interpreter start,
the numpy/scipy/critheat imports and, when traced, installing the wrappers.
`wall_s` is the time `experiments.run_experiment` takes, the function the
CLI calls, from its call until it has written series.csv and summary.json
and returned the exit code. The result goes to `<out_dir>/round.json`, and
the spans of a traced round to `<out_dir>/spans.json`.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

from critheat import experiments  # noqa: E402

import tracer  # noqa: E402


def main(argv: list[str]) -> int:
    experiment, config, out_dir, spawn_time, trace = argv
    out_dir = Path(out_dir)
    spans = None
    if trace == "1":
        spans = tracer.Tracer()
        tracer.install(spans)
    spec = experiments.ExperimentSpec(experiment, config, out_dir)
    called = time.monotonic()
    exit_code = experiments.run_experiment(spec)
    done = time.monotonic()
    result = {
        "exit_code": exit_code,
        "setup_s": called - float(spawn_time),
        "wall_s": done - called,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spans is not None:
        spans.dump(out_dir / "spans.json")
    (out_dir / "round.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
