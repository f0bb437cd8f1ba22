"""Plain-text configuration for the experiment harness.

Format: UTF-8, one `key = value` per line, `#` starts a comment, blank
lines ignored. Unknown keys are rejected, and so is a key set twice.
Every value is validated with a message naming the key and the
constraint. An empty (or absent) file yields the documented defaults:
N = 32, L = 32, delta = 0.1, a q* = 0 power-law datum.

A config states the problem, in 10 keys:
  * the grid: `points_per_dim` N and `side_length` L;
  * the run: `dt`, `t_end` (0 for T_box = (L / 2 pi)^2 / 4) and
    `snapshot_count`;
  * the datum: `datum` (bump, power_law or file), `delta`, `profile_r`,
    `cutoff_rho` and `datum_file`.

The experiment names the flow, so no key does: linear-decay steps the
heat equation u_t = Delta u, and every other experiment that steps a
state steps u_t = Delta u + u^3.

How a run is judged is fixed, the same for every config:
  * the snapshots are `snapshot_count` log-spaced times from t_end / 500
    to t_end (`HarnessConfig.snapshot_times`);
  * rate fits run over [T_box / 100, T_box / 3]
    (`HarnessConfig.resolved_fit_window`);
  * the splitting schedule is the power one, g(t) = (1 + t)^alpha with
    alpha = max(2 + q*, 1) + 1 (`HarnessConfig.splitting_schedule`);
    nonlinear-decay also checks the log-cubed one. The ball's constant C
    is 1 (`diagnostics.SplittingSchedule`);
  * the decay bound passes within `diagnostics.BOUND_TOL` = 0.1 and
    the Lyapunov check within `diagnostics.LYAPUNOV_TOL` = 1e-10;
  * energy-identity refines dt over `REFINEMENT_LEVELS` = 3 nested
    levels and asks for every ratio >= 4.

`parse_config` is the one validator of config values: the modules below
it take their parameters as given and do not check them again. The grid
is checked once, by `TorusGrid` (N even and >= 16, L > 0), whose error
the validator reports as a config error; the validator also rejects a
run that needs more memory than the machine has (estimated in integers,
before any float of N), a side_length for which T_box, the cell volume
h^4 or the largest weight of the Hdot^2 density is not a finite float,
and a run that needs more than `_MAX_STEPS` steps. What only the built
datum shows (a checkpoint that cannot be read or is not finite, a datum
with ||grad u0|| = 0) is checked where the datum is built,
`experiments.build_datum`.

A run reads only some keys, and a config may set only those: the file
setting any other key is a config error that names the key, the
experiment and, where the datum decides, the datum. One table states the
keys each run reads (`HarnessConfig.keys_read`):
  * bubble-constants reads none;
  * decay-character reads points_per_dim, side_length, profile_r and
    cutoff_rho: it builds its own power-law datum;
  * every other experiment steps a state and reads the grid, dt, t_end,
    snapshot_count and datum, then its datum's keys: a bump reads delta,
    a power_law delta, profile_r and cutoff_rho, a file profile_r and
    datum_file.
Only the keys a run reads are checked, and the config echo in summary.json
lists only those; a run that steps adds T_box and the resolved t_end, fit
window and schedule alpha.

`profile_r` is the q* of the datum: the exponent a power-law datum is
built with, and the stated q* of a `datum = file` checkpoint, which
cannot be read off the file (default 0). A bump datum has q* = 1. The q*
sets the decay bound min(2 + q*, 1) and the power-schedule alpha, which
must keep g(t) and g'(t) finite up to t_end.

Every bump or power-law datum must lie in the small-data regime,
||grad u0|| <= ||grad W|| and E(u0) <= E(W), or the run is a config
error (`experiments.build_datum`). A file datum is not checked against
that regime: it is the way to take a run out of it, for example to a
datum that blows up, which the run then reports as a failed check.

Each snapshot interval takes at least one step, so snapshot_count counts
towards `_MAX_STEPS`, and each snapshot's records (about 1 KB per
splitting schedule) count towards the memory estimate.
`evolution.advance` treats a time within 1e-12 max(1, t) of the current
one as reached (`evolution.reached`), so the first snapshot and every gap
between two must lie beyond that tolerance, or the run would record
snapshots it never stepped to; a tiny t_end fails this.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np

from .diagnostics import POWER, SplittingSchedule
from .evolution import reached, stable_dt
from .spectral import TorusGrid

# peak RSS of a run, a slope per N^4 point plus an intercept fitted to the
# largest peak, energy-identity's (t_end 0.2, 8 snapshots): 66.9 MiB at
# N = 16 and 200.8 at N = 32 when fitted. Fresh-process peaks now at N = 16
# and 32, 3 to 7 runs each over hash seeds, the other keys at their
# defaults: energy-identity 64.2-64.4 and 164.9-166.4 MiB, lyapunov
# 62.5-62.7 and 141.2-141.7, nonlinear-decay 62.6-62.7 and 139.0-141.0,
# linear-decay 61.0-61.2 and 97.0-97.3
_RSS_BYTES_PER_POINT = 143
_RSS_BASE_BYTES = 58 * 2**20
# a snapshot's records, per splitting schedule: held records, the snapshot
# time and the series.csv write, 1107 bytes with one schedule and 757 each
# with two (tracemalloc peaks over 10^5 snapshots)
_RECORD_BYTES = 1200

# most steps a run may need: at about 8 ms per N = 16 step, three months
_MAX_STEPS = 10**9
# energy-identity's nested dt halvings: dt, dt / 2, dt / 4
REFINEMENT_LEVELS = 3

# the keys each run reads: an experiment in _READS advances no state and
# reads its own; every other one steps a state and reads _STEP_READS and
# then its datum's _DATUM_READS
_READS = {
    "bubble-constants": (),
    "decay-character": ("points_per_dim", "side_length", "profile_r", "cutoff_rho"),
}
_STEP_READS = ("points_per_dim", "side_length", "dt", "t_end", "snapshot_count", "datum")
_DATUM_READS = {
    "bump": ("delta",),
    "power_law": ("delta", "profile_r", "cutoff_rho"),
    "file": ("profile_r", "datum_file"),
}


class ConfigError(ValueError):
    """Invalid or unparsable configuration."""


@dataclass(frozen=True)
class HarnessConfig:
    points_per_dim: int = 32
    side_length: float = 32.0
    dt: float = 0.04
    t_end: float = 0.0            # 0 -> T_box of the grid
    snapshot_count: int = 48
    datum: str = "power_law"
    delta: float = 0.1
    profile_r: float = 0.0        # q* of a power_law or file datum
    cutoff_rho: float = 1.4
    datum_file: str = ""

    @property
    def t_box(self) -> float:
        """(L / 2 pi)^2 / 4, a float64 that overflows to inf (with a warning)."""
        return np.float64(self.side_length / (2.0 * np.pi)) ** 2 / 4.0

    def resolved_t_end(self) -> float:
        return self.t_end if self.t_end > 0 else self.t_box

    def first_snapshot(self) -> float:
        return self.resolved_t_end() / 500.0

    def snapshot_times(self) -> np.ndarray:
        """The `snapshot_count` log-spaced snapshot times, t_end / 500 to t_end (resolved)."""
        return np.geomspace(self.first_snapshot(), self.resolved_t_end(), self.snapshot_count)

    def resolved_fit_window(self) -> tuple[float, float]:
        return self.t_box / 100.0, self.t_box / 3.0

    def nominal_q_star(self) -> float:
        # mean-removed smooth bumps have a flat transform off the origin,
        # so the half-Laplacian profile scales like |xi|
        return 1.0 if self.datum == "bump" else self.profile_r

    def resolved_schedule_alpha(self) -> float:
        return max(2.0 + self.nominal_q_star(), 1.0) + 1.0

    def splitting_schedule(self) -> SplittingSchedule:
        """The power splitting schedule, with the alpha of the datum's q*."""
        return SplittingSchedule(POWER, self.resolved_schedule_alpha())

    def keys_read(self, experiment: str) -> tuple[str, ...]:
        """The keys a run of `experiment` reads; for a run that steps, its datum decides."""
        if experiment in _READS:
            return _READS[experiment]
        if self.datum not in _DATUM_READS:
            raise ConfigError(f"datum must be one of {', '.join(_DATUM_READS)}; got {self.datum!r}")
        return _STEP_READS + _DATUM_READS[self.datum]

    def echo(self, experiment: str) -> dict:
        """The keys the run reads, and what a run that steps resolves them to."""
        out = {key: getattr(self, key) for key in self.keys_read(experiment)}
        if experiment not in _READS:
            out |= {"t_box": self.t_box, "t_end_resolved": self.resolved_t_end(),
                    "fit_window_resolved": list(self.resolved_fit_window()),
                    "schedule_alpha_resolved": self.resolved_schedule_alpha()}
        return out


# experiment-specific default overrides, applied before user keys
_EXPERIMENT_DEFAULTS: dict[str, dict[str, object]] = {
    "linear-decay": {"dt": 1.0},
    "lyapunov": {"datum": "bump"},
    "energy-identity": {
        "datum": "bump",
        "points_per_dim": 16,
        "dt": 0.004,
        "t_end": 0.5,
    },
}


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {raw!r}")
    return value


def _validate(cfg: HarnessConfig, experiment: str) -> HarnessConfig:
    """Check the keys the run reads, and only those."""
    read = cfg.keys_read(experiment)
    if not read:
        return cfg
    try:
        grid = TorusGrid(cfg.points_per_dim, cfg.side_length)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # in integers, before any float of N: a float overflows past N ~ 1e77
    need = _RSS_BYTES_PER_POINT * cfg.points_per_dim**4 + _RSS_BASE_BYTES
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"points_per_dim = {cfg.points_per_dim} needs an estimated "
            f"{Decimal(need) / 2**30:.3g} GiB working set ({_RSS_BYTES_PER_POINT} bytes per "
            f"N^4 point plus {_RSS_BASE_BYTES // 2**20} MiB), more than the "
            f"{have / 2**30:.3g} GiB of physical memory"
        )
    with np.errstate(over="ignore"):
        dxi = np.float64(grid.frequency_spacing)
        t_box = cfg.t_box
        # the Hdot^2 density's largest weight, at |xi| = N dxi
        weight = (2 * np.pi) ** -4 * dxi**4 * (cfg.points_per_dim * dxi) ** 4
        cell = np.float64(grid.spacing) ** 4
    if not (np.isfinite(t_box) and np.isfinite(weight) and np.isfinite(cell)):
        raise ConfigError(
            f"side_length = {cfg.side_length} overflows T_box = (L / 2 pi)^2 / 4, the cell "
            "volume h^4 = (L / N)^4 or the Hdot^2 weight (2 pi)^-4 dxi^4 |xi|^4 at the "
            "largest |xi| = N 2 pi / L"
        )
    if "delta" in read and not 0 <= cfg.delta <= 1:
        raise ConfigError(f"delta must lie in [0, 1] (small-data admissibility), got {cfg.delta}")
    if "profile_r" in read and cfg.profile_r <= -2:
        raise ConfigError(
            f"profile_r = {cfg.profile_r} violates the decay-character hypothesis "
            "q* > -2"
        )
    if "cutoff_rho" in read and not 0 < cfg.cutoff_rho <= grid.axis_nyquist:
        raise ConfigError(
            f"cutoff_rho must lie in (0, {grid.axis_nyquist:.4g}] (axis Nyquist), "
            f"got {cfg.cutoff_rho}"
        )
    if experiment == "decay-character" and grid.frequency_spacing > cfg.cutoff_rho / 2:
        raise ConfigError(
            f"cutoff_rho = {cfg.cutoff_rho}: decay-character fits the lattice shells below "
            f"cutoff_rho / 2, and the first lies at 2 pi / side_length = "
            f"{grid.frequency_spacing:.4g}"
        )
    if "datum_file" in read and not cfg.datum_file:
        raise ConfigError("datum = file requires datum_file")
    if experiment in _READS:
        return cfg
    if not cfg.dt > 0:
        raise ConfigError(f"dt must be positive, got {cfg.dt}")
    if cfg.t_end < 0:
        raise ConfigError(f"t_end must be positive (or 0 for T_box), got {cfg.t_end}")
    if not 2 <= cfg.snapshot_count <= _MAX_STEPS:
        raise ConfigError(
            f"snapshot_count must lie in [2, {_MAX_STEPS:.0e}] (each snapshot interval takes "
            f"a step), got {cfg.snapshot_count}"
        )
    # nonlinear-decay records every snapshot under two splitting schedules
    records = _RECORD_BYTES * (2 if experiment == "nonlinear-decay" else 1) * cfg.snapshot_count
    if need + records > have:
        raise ConfigError(
            f"snapshot_count = {cfg.snapshot_count} adds an estimated {records / 2**30:.3g} GiB "
            f"of records ({_RECORD_BYTES} bytes per snapshot and splitting schedule) to the "
            f"{need / 2**30:.3g} GiB working set, more than the {have / 2**30:.3g} GiB of "
            "physical memory"
        )
    # records read g and g' up to t_end, past float range the ball radius is NaN
    sched = cfg.splitting_schedule()
    t_end = np.float64(cfg.resolved_t_end())
    with np.errstate(over="ignore"):
        finite = np.isfinite(sched.g(t_end)) and np.isfinite(sched.g_prime(t_end))
    if not finite:
        raise ConfigError(
            f"q* = {cfg.nominal_q_star():.6g} (profile_r, or 1 for a bump datum) gives the "
            f"power schedule alpha = {sched.alpha:.6g}, and g(t) = (1 + t)^alpha overflows "
            f"by t_end = {t_end:.6g} (resolved)"
        )
    # no step is longer than dt or the stability bound at sup |u| = 0, and
    # on energy-identity's finest level than dt / 2^(REFINEMENT_LEVELS - 1);
    # each snapshot interval takes at least one step
    longest = min(cfg.dt, stable_dt(grid, 0.0))
    keys = f"dt = {cfg.dt}, side_length = {cfg.side_length}"
    if experiment == "energy-identity":
        longest = min(longest, math.ldexp(cfg.dt, 1 - REFINEMENT_LEVELS))
        keys += f", {REFINEMENT_LEVELS} refinement levels"
    if t_end > (_MAX_STEPS - cfg.snapshot_count) * longest:
        if t_end <= _MAX_STEPS * longest:
            keys += f", snapshot_count = {cfg.snapshot_count} intervals of a step or more"
        raise ConfigError(
            f"t_end = {t_end:.6g} (resolved) in steps of at most {longest:.3g} ({keys}) "
            f"needs more than {_MAX_STEPS:.0e} steps"
        )
    # built only here, after the memory estimate has bounded their count, and
    # only from a first snapshot the run can step to: geomspace cannot start
    # at 0, where t_end / 500 lands for a subnormal t_end such as 1e-321
    times = np.array([cfg.first_snapshot()])
    if not reached(0.0, times[0]):
        times = cfg.snapshot_times()
    before = np.concatenate(([0.0], times[:-1]))
    stuck = np.flatnonzero(reached(before, times))
    if stuck.size:
        i = stuck[0]
        raise ConfigError(
            f"t_end = {t_end:.6g} (resolved) with snapshot_count = {cfg.snapshot_count} "
            f"snapshots from t_end / 500: snapshot {i + 1} at t = {times[i]:.6g} lies within "
            f"1e-12 max(1, t) of t = {before[i]:.6g} before it, so no step would reach it"
        )
    return cfg


# a key's parser is that of its HarnessConfig annotation
_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "str": lambda key, raw: raw,
}


def parse_config(path: str | Path | None, experiment: str) -> HarnessConfig:
    """Parse a key = value config file for `experiment`; None yields pure defaults.

    `experiment` selects documented per-experiment default overrides
    (applied before user keys, so explicit keys always win), and with the
    datum the keys the file may set: those the run reads.
    """
    cfg = HarnessConfig()
    if experiment in _EXPERIMENT_DEFAULTS:
        cfg = replace(cfg, **_EXPERIMENT_DEFAULTS[experiment])  # type: ignore[arg-type]
    if path is None:
        return _validate(cfg, experiment)
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    valid = {f.name: f.type for f in fields(HarnessConfig)}
    overrides: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in valid:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if seen.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{path}:{lineno}: {key} is set twice (first on line {seen[key]})")
        overrides[key] = _PARSERS[valid[key]](key, raw)
    cfg = replace(cfg, **overrides)  # type: ignore[arg-type]
    read = cfg.keys_read(experiment)
    for key in overrides:
        if key not in read:
            run = experiment if experiment in _READS else f"{experiment} with datum = {cfg.datum}"
            reads = ", ".join(read) or "no key"
            raise ConfigError(f"{path}: {run} does not read {key}; it reads {reads}")
    return _validate(cfg, experiment)
