"""critheat benchmark: experiments timed end to end, and a traced run per module.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the program is imported from
`src/`). One run repeats whole rounds until `--seconds` have passed, at
least `MIN_ROUNDS` of them. A round is one fresh process (`child.py`) that
calls `experiments.run_experiment`, the function the CLI calls; rounds go
one at a time (a closed loop of one client), with the program's default
FFT worker count and `CRITHEAT_THREADS` removed from the environment.
Every round's outputs are checked (`checks.py`).

With `--trace 0` the run reports the end-to-end metrics, medians over its
rounds. With `--trace 1` it alternates untraced and traced rounds and
reports the per-layer metrics, medians over the traced rounds, plus the
tracing overhead (traced minus untraced `wall_s`). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Outputs go to `bench-out/<workload>/` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "bench-out"
MIN_ROUNDS = 2
ROUND_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    experiment: str
    config: dict[str, object]


WORKLOADS = {
    "nonlinear-decay-n16": Workload(
        "nonlinear-decay",
        {"points_per_dim": 16, "side_length": 16.0, "datum": "file"},
    ),
    "linear-decay-n32": Workload(
        "linear-decay",
        {"snapshot_count": 12},
    ),
    "energy-identity-n16": Workload(
        "energy-identity",
        {"t_end": 0.125, "dt": 0.008, "snapshot_count": 16},
    ),
}

# Checks that fail in every round because of a known fault in the program;
# they count as failed, but leave `correct` true. energy-identity's
# `refinement_factor` verdict asks for ratios >= 4, and at this workload's
# steps second-order convergence approaches 4 from below (3.9999986), so
# the program exits 1 although every ratio is within 2e-6 of 4.
KNOWN_FAULTS = {"energy-identity-n16": {"exit_code"}}

# the program's defaults for the keys the checks depend on
DEFAULT_SIDE = 32.0
DELTA = 0.1
CUTOFF_RHO = 1.4
REFINEMENT_LEVELS = 3
LINEAR_N = 32


def write_config(path: Path, config: dict[str, object]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")


def random_phase_datum(path: Path, n: int, length: float, seed: int) -> None:
    """q* = 0 power-law magnitudes with random phases, ||grad u0|| = 0.1 ||grad W||.

    The phases are those of the transform of real white noise, so they are
    Hermitian and the datum is real. Written with `evolution.save_checkpoint`.
    """
    from critheat.evolution import save_checkpoint
    from critheat.spectral import PhysicalField, TorusGrid

    _, mag = checks.power_law_datum(n, length, CUTOFF_RHO, DELTA)
    noise = np.fft.fftn(np.random.default_rng(seed).standard_normal((n,) * 4))
    phase = noise / np.where(np.abs(noise) > 0, np.abs(noise), 1.0)
    # the program's convention: v(x) = L^-4 sum_k v_hat(k) e^{i xi.x}
    values = np.fft.ifftn(mag * phase).real / (length / n) ** 4
    save_checkpoint(path, PhysicalField(TorusGrid(n, length), values), 0.0, 0)


class Expectations:
    """Values the checks compare against, derived by the benchmark alone."""

    def __init__(self, workload: Workload):
        cfg = workload.config
        if workload.experiment == "linear-decay":
            t_box = (DEFAULT_SIDE / (2.0 * math.pi)) ** 2 / 4.0
            count = int(cfg["snapshot_count"])
            self.t = np.concatenate([[0.0], np.geomspace(t_box / 500.0, t_box, count)])
            xi, mag = checks.power_law_datum(LINEAR_N, DEFAULT_SIDE, CUTOFF_RHO, DELTA)
            self.h1 = checks.heat_h1_sq(xi, mag, DEFAULT_SIDE, self.t)
        self.workload = workload

    def check(self, exit_code: int, out_dir: Path, reference: bytes | None) -> list[checks.Check]:
        series_bytes = (out_dir / "series.csv").read_bytes()
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        series = checks.read_series(series_bytes.decode("utf-8"))
        result = checks.common(exit_code, series_bytes, reference or series_bytes)
        experiment, cfg = self.workload.experiment, self.workload.config
        if experiment == "linear-decay":
            result += checks.linear_decay(series, summary, self.t, self.h1)
        elif experiment == "nonlinear-decay":
            result += checks.nonlinear_decay(series, summary)
        else:
            result += checks.energy_identity(
                summary, float(cfg["t_end"]), float(cfg["dt"]), REFINEMENT_LEVELS
            )
        return result


def run_round(workload: Workload, config: Path, out_dir: Path, trace: bool) -> dict:
    out_dir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "CRITHEAT_THREADS"}
    with open(out_dir / "stdout.txt", "wb") as log:
        spawn_time = repr(time.monotonic())
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload.experiment, str(config),
             str(out_dir), spawn_time, "1" if trace else "0"],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT, timeout=ROUND_TIMEOUT_S,
        )
    if proc.returncode != 0:
        raise RuntimeError(
            f"round process exited {proc.returncode}; see {out_dir / 'stdout.txt'}"
        )
    return json.loads((out_dir / "round.json").read_text(encoding="utf-8"))


def per_layer(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    agg = tracer.aggregate(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0}

    def get(name: str, key: str) -> float:
        return agg.get(name, zero)[key]

    m: dict[str, float] = {}
    for name in ("spectral.transform_forward", "spectral.transform_inverse"):
        for key in ("calls", "s", "bytes"):
            m[f"{name}.{key}"] = get(name, key)
    for name in ("spectral.sobolev_norm_sq", "spectral.sobolev_inner", "spectral.lebesgue_norm"):
        m[f"{name}.s"] = get(name, "s")
    steps = get("evolution.step", "calls")
    ffts = get("spectral.transform_forward", "calls") + get("spectral.transform_inverse", "calls")
    m["spectral.ffts_per_step"] = ffts / steps if steps else 0.0
    for name in ("evolution.step", "evolution.nonlinear_term", "diagnostics.record"):
        for key in ("calls", "s", "self_s"):
            m[f"{name}.{key}"] = get(name, key)
    m["evolution.stability_bound.calls"] = get("evolution.stability_bound", "calls")
    m["evolution.stability_bound.s"] = get("evolution.stability_bound", "s")
    m["evolution.advance.s"] = get("evolution.advance", "s")
    m["diagnostics.record.cubic_calls"] = tracer.count_children(
        spans, "evolution.nonlinear_term", "diagnostics.record"
    )
    for name in ("diagnostics.splitting_split", "diagnostics.fit_decay_rate",
                 "experiments.build_datum", "experiments.run_simulation",
                 "decay.synthesize_datum", "decay.radial_linear_evolution",
                 "bubble.subcritical_datum", "config.parse_config"):
        m[f"{name}.s"] = get(name, "s")
    m["experiments.write_s"] = (get("experiments.write_series_csv", "s")
                                + get("experiments.write_summary_json", "s"))
    return m


def load_benchmark_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "critheat" / "__init__.py").is_file():
        print(f"no critheat source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = load_benchmark_units()

    workload = WORKLOADS[args.workload]
    base = OUT / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    config = dict(workload.config)
    if config.get("datum") == "file":
        datum = base / "datum.bin"
        random_phase_datum(datum, int(config["points_per_dim"]),
                           float(config["side_length"]), args.seed)
        config["datum_file"] = str(datum)
    config_path = base / "workload.cfg"
    write_config(config_path, config)
    expect = Expectations(workload)

    attempted = failed = 0
    failed_names: set[str] = set()
    reference: bytes | None = None
    untraced: list[dict] = []
    traced: list[tuple[dict, dict[str, float]]] = []
    start = time.monotonic()
    k = 0
    while (k < MIN_ROUNDS or time.monotonic() - start < args.seconds
           or (args.trace and not traced)):
        trace = bool(args.trace) and k % 2 == 1
        out_dir = base / f"round-{k}"
        result = run_round(workload, config_path, out_dir, trace)
        found = expect.check(result["exit_code"], out_dir, reference)
        if reference is None:
            reference = (out_dir / "series.csv").read_bytes()
        attempted += len(found)
        bad = [c for c in found if not c.ok]
        failed += len(bad)
        failed_names.update(c.name for c in bad)
        for c in bad:
            print(f"  check failed: {c.name}: {c.detail}")
        if trace:
            spans = json.loads((out_dir / "spans.json").read_text(encoding="utf-8"))
            traced.append((result, per_layer(spans)))
        else:
            untraced.append(result)
        print(f"round {k}{' traced' if trace else ''}: exit {result['exit_code']}, "
              f"setup {result['setup_s']:.3f} s, wall {result['wall_s']:.3f} s, "
              f"peak rss {result['peak_rss_mb']:.1f} MB, checks {len(found) - len(bad)}"
              f"/{len(found)} passed")
        k += 1

    if args.trace:
        metrics = {
            name: statistics.median(layer[name] for _, layer in traced)
            for name in traced[0][1]
        }
        traced_wall = statistics.median(r["wall_s"] for r, _ in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(
            r["wall_s"] for r in untraced)
    else:
        metrics = {
            key: statistics.median(r[key] for r in untraced)
            for key in ("setup_s", "wall_s", "peak_rss_mb")
        }
    report = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    for name, entry in report.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload}: {k} rounds, checks attempted {attempted}, failed {failed}")
    correct = failed_names <= KNOWN_FAULTS.get(args.workload, set())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
