"""Named experiments: build data, run, monitor, and emit CSV/JSON.

Each experiment writes `series.csv` (one diagnostics record per row,
fixed columns) and `summary.json` (fitted exponents, verdicts, constants,
T_box, a full config echo, and the version stamp) into the output
directory, and reports pass/fail through the exit code.
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
from .config import ConfigError, EXPERIMENT_NAMES, HarnessConfig, parse_config
from .spectral import (
    SpectralField,
    TorusGrid,
    set_fft_workers,
    sobolev_norm_sq,
    transform_forward,
)

GRAD_W_L2_SQ = 32.0 * np.pi**2 / 3.0   # ||grad W||^2, Beta-integral value
BUBBLE_ENERGY = 8.0 * np.pi**2 / 3.0
L2_GROWTH_SLOPE = 128.0 * np.pi**2     # d/d(ln R) of the truncated mass of W^2


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    config_path: str | None
    out_dir: Path
    threads: int | None = None

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(
                f"unknown experiment {self.name!r}; choose from {', '.join(EXPERIMENT_NAMES)}"
            )


def build_datum(cfg: HarnessConfig, grid: TorusGrid) -> SpectralField:
    """Initial spectral datum per the config; its nominal q* is `cfg.nominal_q_star()`."""
    if cfg.datum == "bump":
        return transform_forward(bb.subcritical_datum(grid, cfg.delta).field)
    if cfg.datum == "power_law":
        raw = dc.synthesize_datum(grid, cfg.profile_r, cfg.cutoff_rho, amplitude=1.0)
        h1 = np.sqrt(sobolev_norm_sq(raw, 1.0))
        target = cfg.delta * np.sqrt(GRAD_W_L2_SQ)
        scale = target / h1 if h1 > 0 else 0.0
        return SpectralField(grid, raw.coefficients * scale)
    field, _, _ = ev.load_checkpoint(cfg.datum_file)
    if field.grid != grid:
        raise ConfigError(
            f"datum file grid (N={field.grid.points_per_dim}, L={field.grid.side_length}) "
            f"does not match config grid (N={grid.points_per_dim}, L={grid.side_length})"
        )
    return transform_forward(field)


def run_simulation(
    cfg: HarnessConfig, schedules: Mapping[str, dg.SplittingSchedule]
) -> dict[str, list[dg.DiagnosticsRecord]]:
    """Advance the configured problem through its log-spaced snapshots.

    Returns, per schedule, one diagnostics record at t = 0 and one per snapshot.
    """
    grid = TorusGrid(cfg.points_per_dim, cfg.side_length)
    u0_hat = build_datum(cfg, grid)
    t_end = cfg.resolved_t_end()
    times = ev.log_spaced_snapshots(cfg.resolved_snapshot_t_min(), t_end, cfg.snapshot_count)
    state = ev.initial_state(u0_hat, nonlinear=cfg.nonlinearity)
    records = {key: [dg.record(state, sched)] for key, sched in schedules.items()}
    for t_snap in times:
        state = ev.advance(state, t_snap, cfg.dt)
        for key, sched in schedules.items():
            records[key].append(dg.record(state, sched))
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
    return {
        "experiment": name,
        "version": __version__,
        "config": cfg.echo(),
        "t_box": cfg.t_box,
    }


# ------------------------------------------------------------- experiments


def _bubble_constants(cfg: HarnessConfig) -> tuple[dict, list, bool]:
    consts = bb.bubble_constants()
    checks = {
        "grad_l2_sq": (consts.grad_l2_sq, GRAD_W_L2_SQ),
        "l4_fourth": (consts.l4_fourth, GRAD_W_L2_SQ),
        "energy": (consts.energy, BUBBLE_ENERGY),
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
    verdicts["l2_growth_slope"] = abs(slope / L2_GROWTH_SLOPE - 1.0) <= 0.02

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
                "expected_slope": L2_GROWTH_SLOPE,
            },
            "verdicts": verdicts,
        }
    )
    return summary, [], all(verdicts.values())


def _decay_character(cfg: HarnessConfig) -> tuple[dict, list, bool]:
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
    datum = dc.synthesize_datum(grid, cfg.profile_r, cfg.cutoff_rho, 1.0)
    grid_est = dc.estimate_decay_character_grid(
        datum, weight_power=1.0, rho_max=cfg.cutoff_rho / 2.0
    )
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
    return summary, [], all(verdicts.values())


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


def _linear_decay(cfg: HarnessConfig) -> tuple[dict, list, bool]:
    times = np.geomspace(1e2, 1e6, 41)
    oracle_cases = []
    oracle_ok = True
    for r_star in (-1.0, -0.5, 0.0, 1.0):
        for alpha in (1.0, 0.5):
            sym = dc.DissipationSymbol(c=1.0, alpha=alpha)
            prof = dc.power_law_profile(r_star)
            vals = dc.radial_linear_evolution(prof, sym, times)
            slope = float(np.polyfit(np.log1p(times), np.log(vals), 1)[0])
            want = -dc.linear_decay_exponent(r_star, sym, 4)
            ok = abs(slope - want) <= 0.05
            oracle_ok &= ok
            oracle_cases.append(
                {"r_star": r_star, "alpha": alpha, "fit": slope, "expected": want, "pass": ok}
            )

    gauss = dc.gaussian_profile()
    t_check = [0.0, 0.5, 1.0, 10.0, 1e3]
    gvals = dc.radial_linear_evolution(gauss, dc.DissipationSymbol(), t_check)
    gerr = max(
        abs(v / (np.pi**2 / (1.0 + 2.0 * t) ** 2) - 1.0) for v, t in zip(gvals, t_check)
    )

    sched = dg.SplittingSchedule(cfg.schedule, cfg.resolved_schedule_alpha(), cfg.c_tilde)
    records = run_simulation(cfg, {"primary": sched})["primary"]
    fit, fit_entry = _fit_decay(records, cfg.resolved_fit_window())
    q_star = cfg.nominal_q_star()
    expected_exponent = 2.0 + q_star

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
    return summary, records, all(verdicts.values())


def _partition_defect(records: Sequence[dg.DiagnosticsRecord]) -> float:
    worst = 0.0
    for rec in records:
        if rec.h1_sq > 0:
            worst = max(worst, abs(rec.low_sq + rec.high_sq - rec.h1_sq) / rec.h1_sq)
    return worst


def _split_checks(cfg: HarnessConfig) -> tuple[dict, list, dict, dict]:
    """Run under the power and log-cubed schedules and check the splitting.

    Returns the schedules, the power-schedule records, the summary entries
    of the exact partition and the key inequality, and their verdicts.
    """
    schedules = {
        "power": dg.SplittingSchedule(dg.POWER, cfg.resolved_schedule_alpha(), cfg.c_tilde),
        "log_cubed": dg.SplittingSchedule(dg.LOG_CUBED, c_tilde=cfg.c_tilde),
    }
    result = run_simulation(cfg, schedules)
    partition = max(_partition_defect(records) for records in result.values())
    key = {name: dg.key_inequality_check(result[name], s) for name, s in schedules.items()}
    entries = {
        "partition_max_defect": partition,
        "key_inequality": {f"{name}_max_margin": k.max_margin for name, k in key.items()},
    }
    verdicts = {"partition_exact": partition <= 1e-13}
    verdicts.update({f"key_inequality_{name}": k.passed for name, k in key.items()})
    return schedules, result["power"], entries, verdicts


def _nonlinear_decay(cfg: HarnessConfig) -> tuple[dict, list, bool]:
    _, records, entries, split_verdicts = _split_checks(cfg)
    fit, fit_entry = _fit_decay(records, cfg.resolved_fit_window())
    q_star = cfg.nominal_q_star()
    bound_ok = fit is not None and dg.bound_check(q_star, fit, cfg.bound_tol)
    verdicts = {"bound_check": bound_ok, **split_verdicts}
    summary = _base_summary("nonlinear-decay", cfg)
    summary.update(
        {
            "q_star": q_star,
            "decay_bound": min(2.0 + q_star, 1.0),
            "bound_tol": cfg.bound_tol,
            "fit": fit_entry,
            **entries,
            "verdicts": verdicts,
        }
    )
    return summary, records, all(verdicts.values())


def _lyapunov(cfg: HarnessConfig) -> tuple[dict, list, bool]:
    sched = dg.SplittingSchedule(cfg.schedule, cfg.resolved_schedule_alpha(), cfg.c_tilde)
    records = run_simulation(cfg, {"primary": sched})["primary"]
    report = dg.lyapunov_check(records, cfg.lyapunov_tol)
    pairing = dg.pairing_ratio_report(records)
    summary = _base_summary("lyapunov", cfg)
    summary.update(
        {
            "snapshots": len(records),
            "lyapunov": {
                "passed": report.passed,
                "tol": report.tol,
                "violations": [list(v) for v in report.violations],
            },
            "pairing": {
                "max_ratio": pairing.max_ratio,
                "t_at_max": pairing.t_at_max,
            },
            "verdicts": {"lyapunov": report.passed},
        }
    )
    return summary, records, report.passed


def _energy_identity(cfg: HarnessConfig) -> tuple[dict, list, bool]:
    """Hdot^1 energy-identity residual over [0, t_end] under nested dt halving.

    Level k advances the whole interval in n0 * 2^k equal steps,
    n0 = ceil(t_end / dt), so every level's steps are the previous level's
    steps halved. Stepping between the log-spaced snapshots instead would
    take each snapshot interval shorter than dt in one step at every level,
    and that part of the trapezoid error would never refine. The snapshot
    run at dt supplies series.csv only. If the stability bound forces extra
    substeps, the levels no longer nest and `steps_nested` fails.
    """
    sched = dg.SplittingSchedule(cfg.schedule, cfg.resolved_schedule_alpha(), cfg.c_tilde)
    records = run_simulation(cfg, {"primary": sched})["primary"]
    grid = TorusGrid(cfg.points_per_dim, cfg.side_length)
    u0_hat = build_datum(cfg, grid)
    t_end = cfg.resolved_t_end()
    n0 = max(1, math.ceil(t_end / cfg.dt - 1e-12))
    planned = [n0 * 2**k for k in range(cfg.refinement_levels)]
    residuals, steps = [], []
    for n_steps in planned:
        start = ev.initial_state(u0_hat, nonlinear=cfg.nonlinearity)
        end = ev.advance(start, t_end, t_end / n_steps)
        residuals.append(dg.energy_identity_residual(start, end))
        steps.append(end.step_count)
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    verdicts = {
        "baseline_residual": residuals[0] <= 1e-6,
        "refinement_factor": all(r >= 4.0 for r in ratios),
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
    return summary, records, all(verdicts.values())


def _splitting(cfg: HarnessConfig) -> tuple[dict, list, bool]:
    schedules, records, entries, verdicts = _split_checks(cfg)
    summary = _base_summary("splitting", cfg)
    summary.update(
        {
            "radius_at_zero": {name: s.radius(0.0) for name, s in schedules.items()},
            **entries,
            "verdicts": verdicts,
        }
    )
    return summary, records, all(verdicts.values())


_RUNNERS = {
    "bubble-constants": _bubble_constants,
    "decay-character": _decay_character,
    "linear-decay": _linear_decay,
    "nonlinear-decay": _nonlinear_decay,
    "lyapunov": _lyapunov,
    "energy-identity": _energy_identity,
    "splitting": _splitting,
}


def run_experiment(spec: ExperimentSpec) -> int:
    """Run one named experiment; exit code 0 pass, 1 check failure, 2 config error."""
    try:
        cfg = parse_config(spec.config_path, spec.name)
        set_fft_workers(cfg.resolved_threads(spec.threads))
        spec.out_dir.mkdir(parents=True, exist_ok=True)
        summary, records, passed = _RUNNERS[spec.name](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2
    # numpy comparisons give numpy.bool, which json cannot serialise
    summary["verdicts"] = {k: bool(v) for k, v in summary["verdicts"].items()}
    passed = bool(passed)
    summary["passed"] = passed
    write_series_csv(spec.out_dir / "series.csv", records)
    write_summary_json(spec.out_dir / "summary.json", summary)
    for key, value in sorted(summary.get("verdicts", {}).items()):
        print(f"[{'PASS' if value else 'FAIL'}] {spec.name}: {key}")
    return 0 if passed else 1
