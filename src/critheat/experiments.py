"""Named experiments: build data, run, monitor, and emit CSV/JSON.

Each experiment writes `series.csv` (one diagnostics record per row,
fixed columns) and `summary.json` (fitted exponents, verdicts, constants,
an echo of the config keys the run reads, with T_box for a run that
steps, and the version stamp) into the output directory, and reports
pass/fail through the exit code: `passed` is true when every verdict is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from . import bubble as bb
from . import decay as dc
from . import diagnostics as dg
from . import evolution as ev
from .config import REFINEMENT_LEVELS, ConfigError, HarnessConfig, parse_config
from .spectral import SpectralField, TorusGrid, l4_fourth, sobolev_norm_sq, transform_forward


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    config_path: str | None
    out_dir: Path

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(
                f"unknown experiment {self.name!r}; choose from {', '.join(EXPERIMENT_NAMES)}"
            )


def _unit_datum(cfg: HarnessConfig, grid: TorusGrid, kind: str) -> tuple[SpectralField, float]:
    """The unit-size bump or power-law datum and its Hdot^1 norm.

    A profile_r that overflows the power-law datum is a config error;
    `build_datum` and `decay-character` both build their datum here.
    """
    with np.errstate(over="ignore"):
        if kind == "bump":
            raw = dc.bump_datum(grid)
        else:
            raw = dc.synthesize_datum(grid, cfg.profile_r, cfg.cutoff_rho)
        h1 = np.sqrt(sobolev_norm_sq(raw, 1.0))
    if not np.isfinite(h1):
        raise ConfigError(
            f"profile_r = {cfg.profile_r} overflows the unscaled power_law datum "
            f"|xi|^(profile_r - 1) below cutoff_rho = {cfg.cutoff_rho}"
        )
    return raw, h1


def build_datum(cfg: HarnessConfig) -> SpectralField:
    """Initial spectral datum per the config; its nominal q* is `cfg.nominal_q_star()`.

    Every bump or power-law datum is its unit datum (`decay.bump_datum`,
    `decay.synthesize_datum`) scaled to ||grad u0|| = delta ||grad W||, and
    must lie in the small-data regime. ||grad u0|| <= ||grad W|| holds since
    delta <= 1. E(u0) <= ||grad u0||^2 / 2 = 2 delta^2 E(W), so E(u0) <= E(W)
    holds for delta^2 <= 1/2; above that E(u0) is the energy the run records
    at t = 0 (`diagnostics.record` of the initial state, bit for bit
    series.csv's first `energy`), that of the computed 2/3-truncated system,
    and E(u0) > E(W) is a config error. So is a file datum that cannot be
    read, is not finite or is too large to record, a power-law datum whose
    profile_r overflows it, and any datum with ||grad u0|| = 0, which has no
    decay to measure. A bump or power-law datum has ||grad u0||^2 = delta^2
    ||grad W||^2, which must be a normal float, so delta must be about
    1.454e-155 or more: below that the records' norms lose digits to
    subnormal floats or underflow to 0.
    """
    grid = TorusGrid(cfg.points_per_dim, cfg.side_length)
    if cfg.datum == "file":
        return _file_datum(cfg, grid)
    grad_sq, tiny = cfg.delta**2 * bb.GRAD_W_L2_SQ, np.finfo(float).tiny
    if grad_sq < tiny:
        raise ConfigError(
            f"delta = {cfg.delta} gives a {cfg.datum} datum with ||grad u0||^2 = delta^2 "
            f"||grad W||^2 = {grad_sq:.4g}, not a normal float (the smallest is {tiny:.4g})"
        )
    raw, h1 = _unit_datum(cfg, grid, cfg.datum)
    if h1 == 0:
        raise ConfigError(
            f"cutoff_rho = {cfg.cutoff_rho} gives a zero power_law datum: no lattice "
            f"shell lies below it (the first is at 2 pi / side_length = "
            f"{grid.frequency_spacing:.4g})"
        )
    u0_hat = SpectralField(grid, raw.coefficients * (cfg.delta * np.sqrt(bb.GRAD_W_L2_SQ) / h1))
    if cfg.delta**2 > 0.5:
        # a linear state records the nonlinear one's energy, from the same
        # dealiased field, and transforms no cube
        start = ev.initial_state(u0_hat, nonlinear=False)
        energy = dg.record(start, cfg.splitting_schedule()).energy
        if energy > bb.BUBBLE_ENERGY:
            raise ConfigError(
                f"delta = {cfg.delta} gives a {cfg.datum} datum outside the small-data "
                f"regime: E(u0) = {energy:.6g} > E(W) = {bb.BUBBLE_ENERGY:.6g}"
            )
    return u0_hat


def _file_datum(cfg: HarnessConfig, grid: TorusGrid) -> SpectralField:
    """The checkpoint `datum_file` on the config grid, not checked against the small-data regime."""
    try:
        field = ev.load_checkpoint(cfg.datum_file)
        u0_hat = transform_forward(field)
        # the t = 0 record sums u^4 and cubes the field; both are finite if the sum is
        with np.errstate(over="ignore"):
            if not np.isfinite(l4_fourth(field)):
                raise ValueError(f"max |u| = {np.max(np.abs(field.values)):.3g} overflows u^4")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"datum_file {cfg.datum_file!r}: {exc}") from exc
    if field.grid != grid:
        raise ConfigError(
            f"datum file grid (N={field.grid.points_per_dim}, L={field.grid.side_length}) "
            f"does not match config grid (N={grid.points_per_dim}, L={grid.side_length})"
        )
    if np.ptp(field.values) == 0:
        raise ConfigError(
            f"datum_file {cfg.datum_file!r}: a zero or constant datum (||grad u0|| = 0)"
        )
    return u0_hat


def run_simulation(
    cfg: HarnessConfig,
    u0_hat: SpectralField,
    schedules: Mapping[str, dg.SplittingSchedule],
    nonlinear: bool = True,
) -> dict[str, list[dg.DiagnosticsRecord]]:
    """Advance the datum u0_hat through the configured log-spaced snapshots.

    The flow is u_t = Delta u + u^3, or the heat flow if not `nonlinear`.
    Returns, per schedule, one diagnostics record at t = 0 and one per snapshot.
    """
    times = (0.0, *cfg.snapshot_times())
    states = ev.advance(ev.initial_state(u0_hat, nonlinear=nonlinear), times, cfg.dt)
    del u0_hat  # the state shares it; a datum built inline is freed after the first step
    records = {key: [] for key in schedules}
    for state in states:
        for key, sched in schedules.items():
            records[key].append(dg.record(state, sched))
        del state  # not pinned while `advance` steps away from it
    return records


# ----------------------------------------------------------------- writers


def write_series_csv(path: Path, records: Sequence[dg.DiagnosticsRecord]) -> None:
    lines = [",".join(dg.CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(format(v, ".17g") for v in dg.csv_row(rec)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_json(path: Path, summary: dict) -> None:
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _base_summary(name: str, cfg: HarnessConfig) -> dict:
    return {"experiment": name, "version": __version__, "config": cfg.echo(name)}


# ------------------------------------------------------------- experiments


def _bubble_constants(cfg: HarnessConfig) -> tuple[dict, list]:
    consts = bb.bubble_constants()
    checks = {
        "grad_l2_sq": (consts.grad_l2_sq, bb.GRAD_W_L2_SQ),
        "l4_fourth": (consts.l4_fourth, bb.GRAD_W_L2_SQ),
        "energy": (consts.energy, bb.BUBBLE_ENERGY),
        "sobolev_constant": (consts.sobolev_constant, (3.0 / (32.0 * np.pi**2)) ** 0.25),
    }
    verdicts = {
        key: abs(got / want - 1.0) <= 1e-6 for key, (got, want) in checks.items()
    }
    verdicts["general_n_formula"] = (
        abs(bb.sobolev_constant_general(4) / consts.grad_l2_sq**-0.25 - 1.0) <= 1e-6
    )
    verdicts["quarter_energy_identity"] = (
        abs(consts.energy - 0.25 * consts.grad_l2_sq) <= 1e-10 * consts.grad_l2_sq
    )

    rng = np.random.default_rng(0)
    pts = rng.uniform(-8.0, 8.0, size=(100, 4))
    h_grid = (0.02, 0.01, 0.005)
    residuals = [max(bb.stationarity_residual(pts, h)) for h in h_grid]
    orders = [
        float(np.log2(residuals[i] / residuals[i + 1])) for i in range(len(h_grid) - 1)
    ]
    verdicts["stationarity_order"] = all(abs(o - 2.0) <= 0.1 for o in orders)

    radii = np.geomspace(1e2, 1e4, 9)
    masses = bb.truncated_l2_growth(radii)
    slope = float(np.polyfit(np.log(radii), masses, 1)[0])
    verdicts["l2_growth_slope"] = abs(slope / bb.L2_GROWTH_SLOPE - 1.0) <= 0.02

    summary = _base_summary("bubble-constants", cfg)
    summary.update(
        {
            "constants": {
                "grad_l2_sq": consts.grad_l2_sq,
                "l4_fourth": consts.l4_fourth,
                "energy": consts.energy,
                "sobolev_constant": consts.sobolev_constant,
                "quadrature_truncation": consts.quadrature_truncation,
            },
            "expected": {k: want for k, (_, want) in checks.items()},
            "stationarity": {
                "h_fd": list(h_grid),
                "max_residuals": residuals,
                "orders": orders,
            },
            "l2_growth": {
                "radii": list(map(float, radii)),
                "masses": masses,
                "slope_vs_lnR": slope,
                "expected_slope": bb.L2_GROWTH_SLOPE,
            },
            "verdicts": verdicts,
        }
    )
    return summary, []


def _decay_character(cfg: HarnessConfig) -> tuple[dict, list]:
    recovery = {}
    for r in (-1.0, 0.0, 1.0, 2.0):
        est = dc.estimate_decay_character(dc.power_law_profile(r))
        recovery[f"r={r:g}"] = {"estimate": est.r_star, "error": est.r_star - r}
    verdicts = {
        "power_law_recovery": all(
            abs(v["error"]) <= 0.05 for v in recovery.values()
        )
    }

    classifiers = {
        "lp_p_4_3": dc.classify_lp(4.0 / 3.0, 4),
        "lp_p_3_2": dc.classify_lp(1.5, 4),
        "weighted_gamma_1_zero_mean": dc.classify_weighted(1.0, True),
        "weighted_gamma_05_nonzero_mean": dc.classify_weighted(0.5, False),
    }
    verdicts["classifiers"] = (
        classifiers["lp_p_4_3"] == -1.0
        and abs(classifiers["lp_p_3_2"] + 4.0 / 3.0) < 1e-14
        and classifiers["weighted_gamma_1_zero_mean"] == 1.0
        and classifiers["weighted_gamma_05_nonzero_mean"] == 0.0
    )

    gauss = dc.estimate_decay_character(dc.gaussian_profile())
    verdicts["gaussian_flat"] = abs(gauss.r_star) <= 0.05

    grid = TorusGrid(cfg.points_per_dim, cfg.side_length)
    datum, _ = _unit_datum(cfg, grid, "power_law")
    grid_est = dc.estimate_decay_character_grid(datum, rho_max=cfg.cutoff_rho / 2.0)
    verdicts["grid_shell_fit"] = abs(grid_est.r_star - cfg.profile_r) <= 0.1

    summary = _base_summary("decay-character", cfg)
    summary.update(
        {
            "power_law_recovery": recovery,
            "classifiers": classifiers,
            "gaussian_estimate": gauss.r_star,
            "grid_estimate": {
                "q_star": grid_est.r_star,
                "target": cfg.profile_r,
                "fit_window": list(grid_est.fit_window),
                "slope_residual": grid_est.slope_residual,
            },
            "verdicts": verdicts,
        }
    )
    return summary, []


def _fit_decay(
    records: Sequence[dg.DiagnosticsRecord], window: tuple[float, float]
) -> tuple[dg.RateFit | None, dict]:
    """Decay-rate fit and its summary entry.

    A window too sparse to fit is a failed check, not a crash: the fit is
    None and the entry carries a null exponent and the reason.
    """
    try:
        fit = dg.fit_decay_rate(records, window)
    except dg.UnfittableWindow as exc:
        return None, {
            "exponent": None,
            "window": list(exc.window),
            "residual": None,
            "reason": str(exc),
        }
    return fit, {"exponent": fit.exponent, "window": list(fit.window), "residual": fit.residual}


def _linear_decay(cfg: HarnessConfig) -> tuple[dict, list]:
    times = np.geomspace(1e2, 1e6, 41)
    oracle_cases = []
    oracle_ok = True
    for r_star in (-1.0, -0.5, 0.0, 1.0):
        for alpha in (1.0, 0.5):
            prof = dc.power_law_profile(r_star)
            vals = dc.radial_linear_evolution(prof, alpha, times)
            slope = float(np.polyfit(np.log1p(times), np.log(vals), 1)[0])
            want = -dc.linear_decay_exponent(r_star, alpha)
            ok = abs(slope - want) <= 0.05
            oracle_ok &= ok
            oracle_cases.append(
                {"r_star": r_star, "alpha": alpha, "fit": slope, "expected": want, "pass": ok}
            )

    gauss = dc.gaussian_profile()
    t_check = [0.0, 0.5, 1.0, 10.0, 1e3]
    gvals = dc.radial_linear_evolution(gauss, 1.0, t_check)
    gerr = max(
        abs(v / (np.pi**2 / (1.0 + 2.0 * t) ** 2) - 1.0) for v, t in zip(gvals, t_check)
    )

    schedules = {"primary": cfg.splitting_schedule()}
    records = run_simulation(cfg, build_datum(cfg), schedules, nonlinear=False)["primary"]
    fit, fit_entry = _fit_decay(records, cfg.resolved_fit_window())
    q_star = cfg.nominal_q_star()
    expected_exponent = dc.linear_decay_exponent(q_star, 1.0)

    verdicts = {
        "oracle_grid": oracle_ok,
        "gaussian_closed_form": gerr <= 1e-8,
        "torus_exponent": fit is not None
        and abs(-fit.exponent - expected_exponent) <= 0.1,
    }
    summary = _base_summary("linear-decay", cfg)
    summary.update(
        {
            "oracle_cases": oracle_cases,
            "gaussian_max_rel_err": gerr,
            "torus_fit": {**fit_entry, "expected": expected_exponent},
            "q_star": q_star,
            "verdicts": verdicts,
        }
    )
    return summary, records


def _partition_defect(records: Sequence[dg.DiagnosticsRecord]) -> float:
    worst = 0.0
    for rec in records:
        if rec.h1_sq > 0:
            worst = max(worst, abs(rec.low_sq + rec.high_sq - rec.h1_sq) / rec.h1_sq)
    return worst


def _nonlinear_decay(cfg: HarnessConfig) -> tuple[dict, list]:
    """The decay bound on the power-schedule records, and the splitting under both schedules.

    One simulation records every snapshot under the power and the
    log-cubed schedule: the partition low + high = h1 must be exact and
    the key inequality must hold under each.
    """
    schedules = {
        "power": cfg.splitting_schedule(),
        "log_cubed": dg.SplittingSchedule(dg.LOG_CUBED),
    }
    result = run_simulation(cfg, build_datum(cfg), schedules)
    partition = max(_partition_defect(records) for records in result.values())
    key = {name: dg.key_inequality_check(result[name], s) for name, s in schedules.items()}
    records = result["power"]
    fit, fit_entry = _fit_decay(records, cfg.resolved_fit_window())
    q_star = cfg.nominal_q_star()
    bound_ok = fit is not None and dg.bound_check(q_star, fit)
    verdicts = {"bound_check": bound_ok, "partition_exact": partition <= 1e-13}
    verdicts.update({f"key_inequality_{name}": k.passed for name, k in key.items()})
    summary = _base_summary("nonlinear-decay", cfg)
    summary.update(
        {
            "q_star": q_star,
            "decay_bound": dg.decay_bound(q_star),
            "bound_tol": dg.BOUND_TOL,
            "fit": fit_entry,
            "partition_max_defect": partition,
            "key_inequality": {f"{name}_max_margin": k.max_margin for name, k in key.items()},
            "verdicts": verdicts,
        }
    )
    return summary, records


def _lyapunov(cfg: HarnessConfig) -> tuple[dict, list]:
    schedules = {"primary": cfg.splitting_schedule()}
    records = run_simulation(cfg, build_datum(cfg), schedules)["primary"]
    report = dg.lyapunov_check(records)
    pairing = dg.pairing_ratio_report(records)
    summary = _base_summary("lyapunov", cfg)
    summary.update(
        {
            "snapshots": len(records),
            "lyapunov": {
                "passed": report.passed,
                "tol": dg.LYAPUNOV_TOL,
                "violations": [list(v) for v in report.violations],
            },
            "pairing": {
                "max_ratio": pairing.max_ratio,
                "t_at_max": pairing.t_at_max,
            },
            "verdicts": {"lyapunov": report.passed},
        }
    )
    return summary, records


def _energy_identity(cfg: HarnessConfig) -> tuple[dict, list]:
    """Hdot^1 energy-identity residual over [0, t_end] under nested dt halving.

    Level k < `REFINEMENT_LEVELS` advances the whole interval in n0 * 2^k
    equal steps, n0 = ceil(t_end / dt), so every level's steps are the
    previous level's steps halved. Stepping between the log-spaced snapshots instead would
    take each snapshot interval shorter than dt in one step at every level,
    and that part of the trapezoid error would never refine. The snapshot
    run at dt supplies series.csv only. If the stability bound forces extra
    substeps, the levels no longer nest and `steps_nested` fails. The
    snapshot run and every level start from one datum, built once. A level
    whose residual is 0 gives no ratio: the ratio is null, the summary
    names the level, and `refinement_factor` fails.
    """
    u0_hat = build_datum(cfg)
    records = run_simulation(cfg, u0_hat, {"primary": cfg.splitting_schedule()})["primary"]
    t_end = cfg.resolved_t_end()
    n0 = max(1, math.ceil(t_end / cfg.dt - 1e-12))
    planned = [n0 * 2**k for k in range(REFINEMENT_LEVELS)]
    residuals, steps = [], []
    for n_steps in planned:
        start = ev.initial_state(u0_hat)
        (end,) = ev.advance(start, (t_end,), t_end / n_steps)
        residuals.append(dg.energy_identity_residual(start, end))
        steps.append(end.step_count)
        del start, end  # release this level's states before the next level runs
    ratios = [a / b if b > 0 else None for a, b in zip(residuals, residuals[1:])]
    verdicts = {
        "baseline_residual": residuals[0] <= 1e-6,
        "refinement_factor": all(r is not None and r >= 4.0 for r in ratios),
        "steps_nested": steps == planned,
    }
    summary = _base_summary("energy-identity", cfg)
    summary.update(
        {
            "step_counts": steps,
            "dt_levels": [t_end / n for n in steps],
            "residuals": residuals,
            "refinement_ratios": ratios,
            "verdicts": verdicts,
        }
    )
    zero = [k for k, r in enumerate(residuals[1:], 1) if r == 0]
    if zero:
        summary["refinement_reason"] = (
            f"the residual of level {', '.join(map(str, zero))} is 0, so the ratio "
            "of the level before to it is undefined (null); refinement cannot be measured"
        )
    return summary, records


_RUNNERS = {
    "bubble-constants": _bubble_constants,
    "decay-character": _decay_character,
    "linear-decay": _linear_decay,
    "nonlinear-decay": _nonlinear_decay,
    "lyapunov": _lyapunov,
    "energy-identity": _energy_identity,
}

EXPERIMENT_NAMES = tuple(_RUNNERS)


def _check_out_dir(out_dir: Path) -> None:
    """The output directory exists, or its nearest existing ancestor is a directory.

    Checked before the run and without creating anything, so a bad --out
    fails at once and writes nothing.
    """
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out {out_dir}: {path} exists and is not a directory")
            return


def run_experiment(spec: ExperimentSpec) -> int:
    """Run one named experiment; exit code 0 pass, 1 check failure, 2 config error.

    A suspected blow-up is a failed check: summary.json names the last
    valid t and step count, and series.csv holds the header only.
    """
    try:
        cfg = parse_config(spec.config_path, spec.name)
        _check_out_dir(spec.out_dir)
        summary, records = _RUNNERS[spec.name](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2
    except ev.BlowUpSuspected as exc:
        last = exc.last_state
        summary, records = _base_summary(spec.name, cfg), []
        summary["blow_up"] = {"t": last.t, "step_count": last.step_count, "reason": str(exc)}
        summary["verdicts"] = {"no_blow_up": False}
    # numpy comparisons give numpy.bool, which json cannot serialise
    summary["verdicts"] = {k: bool(v) for k, v in summary["verdicts"].items()}
    passed = all(summary["verdicts"].values())
    summary["passed"] = passed
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    write_series_csv(spec.out_dir / "series.csv", records)
    write_summary_json(spec.out_dir / "summary.json", summary)
    for key, value in sorted(summary.get("verdicts", {}).items()):
        print(f"[{'PASS' if value else 'FAIL'}] {spec.name}: {key}")
    return 0 if passed else 1
