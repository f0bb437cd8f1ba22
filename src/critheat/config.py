"""Plain-text configuration for the experiment harness.

Format: UTF-8, one `key = value` per line, `#` starts a comment, blank
lines ignored. Unknown keys are rejected. Every value is validated with a
message naming the key and the constraint. An empty (or absent) file
yields the documented defaults: N = 32, L = 32, delta = 0.1, a q* = 0
power-law datum.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

EXPERIMENT_NAMES = (
    "bubble-constants",
    "decay-character",
    "linear-decay",
    "nonlinear-decay",
    "lyapunov",
    "energy-identity",
    "splitting",
)

# peak working set of a run in complex N^4 arrays: linear-decay at N = 32
# peaks at 369 MB of RSS, about 22 arrays of 16.8 MB
_WORKING_SET_ARRAYS = 22


class ConfigError(ValueError):
    """Invalid or unparsable configuration."""


@dataclass(frozen=True)
class HarnessConfig:
    points_per_dim: int = 32
    side_length: float = 32.0
    dt: float = 0.04
    t_end: float = 0.0            # 0 -> T_box of the grid
    snapshot_count: int = 48
    snapshot_t_min: float = 0.0   # 0 -> t_end / 500
    datum: str = "power_law"
    delta: float = 0.1
    profile_r: float = 0.0
    cutoff_rho: float = 1.4
    datum_file: str = ""
    nonlinearity: bool = True
    schedule: str = "power"
    schedule_alpha: float = 0.0   # 0 -> max(2 + q*, 1) + 1
    c_tilde: float = 1.0
    fit_t_min: float = 0.0        # 0 -> T_box / 100
    fit_t_max: float = 0.0        # 0 -> T_box / 3
    bound_tol: float = 0.1
    lyapunov_tol: float = 1e-10
    refinement_levels: int = 3
    threads: int = 0              # 0 -> CRITHEAT_THREADS env var, else 1

    @property
    def t_box(self) -> float:
        return (self.side_length / (2.0 * np.pi)) ** 2 / 4.0

    def resolved_t_end(self) -> float:
        return self.t_end if self.t_end > 0 else self.t_box

    def resolved_snapshot_t_min(self) -> float:
        return (
            self.snapshot_t_min
            if self.snapshot_t_min > 0
            else self.resolved_t_end() / 500.0
        )

    def resolved_fit_window(self) -> tuple[float, float]:
        lo = self.fit_t_min if self.fit_t_min > 0 else self.t_box / 100.0
        hi = self.fit_t_max if self.fit_t_max > 0 else self.t_box / 3.0
        return lo, hi

    def nominal_q_star(self) -> float:
        # mean-removed smooth bumps have a flat transform off the origin,
        # so the half-Laplacian profile scales like |xi|
        return self.profile_r if self.datum == "power_law" else 1.0

    def resolved_schedule_alpha(self) -> float:
        if self.schedule_alpha > 0:
            return self.schedule_alpha
        return max(2.0 + self.nominal_q_star(), 1.0) + 1.0

    def resolved_threads(self, override: int | None = None) -> int:
        """FFT worker count: `override` (e.g. --threads) if set, then the
        `threads` key, then CRITHEAT_THREADS, then 1. 0 means unset."""
        if override is not None and override < 0:
            raise ConfigError(f"threads must be >= 1 (or 0 for automatic), got {override}")
        if override:
            return override
        if self.threads > 0:
            return self.threads
        env = os.environ.get("CRITHEAT_THREADS", "")
        if env:
            try:
                val = int(env)
            except ValueError as exc:
                raise ConfigError(
                    f"CRITHEAT_THREADS must be an integer, got {env!r}"
                ) from exc
            if val < 1:
                raise ConfigError(f"CRITHEAT_THREADS must be >= 1, got {val}")
            return val
        return 1

    def echo(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["t_box"] = self.t_box
        out["t_end_resolved"] = self.resolved_t_end()
        out["fit_window_resolved"] = list(self.resolved_fit_window())
        out["schedule_alpha_resolved"] = self.resolved_schedule_alpha()
        out["threads_resolved"] = self.resolved_threads()
        return out


# experiment-specific default overrides, applied before user keys
_EXPERIMENT_DEFAULTS: dict[str, dict[str, object]] = {
    "linear-decay": {"nonlinearity": False, "dt": 1.0},
    "lyapunov": {"datum": "bump"},
    "energy-identity": {
        "datum": "bump",
        "points_per_dim": 16,
        "dt": 0.004,
        "t_end": 0.5,
    },
    "splitting": {"snapshot_count": 32},
}


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean (true/false), got {raw!r}")


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


def _validate(cfg: HarnessConfig) -> HarnessConfig:
    if cfg.points_per_dim % 2 != 0 or cfg.points_per_dim < 16:
        raise ConfigError(
            f"points_per_dim must be an even integer >= 16, got {cfg.points_per_dim}"
        )
    need = _WORKING_SET_ARRAYS * 16 * cfg.points_per_dim**4
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"points_per_dim = {cfg.points_per_dim} needs an estimated {need / 2**30:.3g} GiB "
            f"working set ({_WORKING_SET_ARRAYS} complex N^4 arrays), more than the "
            f"{have / 2**30:.3g} GiB of physical memory"
        )
    if not cfg.side_length > 0:
        raise ConfigError(f"side_length must be positive, got {cfg.side_length}")
    if not cfg.dt > 0:
        raise ConfigError(f"dt must be positive, got {cfg.dt}")
    if cfg.t_end < 0:
        raise ConfigError(f"t_end must be positive (or 0 for T_box), got {cfg.t_end}")
    if cfg.snapshot_count < 2:
        raise ConfigError(f"snapshot_count must be >= 2, got {cfg.snapshot_count}")
    if cfg.snapshot_t_min < 0:
        raise ConfigError(
            f"snapshot_t_min must be positive (or 0 for t_end / 500), got {cfg.snapshot_t_min}"
        )
    if cfg.snapshot_t_min >= cfg.resolved_t_end():
        raise ConfigError(
            f"snapshot_t_min = {cfg.snapshot_t_min} must be below t_end = "
            f"{cfg.resolved_t_end():.6g} (resolved)"
        )
    if cfg.datum not in ("bump", "power_law", "file"):
        raise ConfigError(
            f"datum must be one of bump, power_law, file; got {cfg.datum!r}"
        )
    if not 0 <= cfg.delta <= 1:
        raise ConfigError(
            f"delta must lie in [0, 1] (small-data admissibility), got {cfg.delta}"
        )
    if cfg.profile_r <= -2:
        raise ConfigError(
            f"profile_r = {cfg.profile_r} violates the decay-character hypothesis "
            "q* > -2"
        )
    nyquist = np.pi * cfg.points_per_dim / cfg.side_length
    if not 0 < cfg.cutoff_rho <= nyquist:
        raise ConfigError(
            f"cutoff_rho must lie in (0, {nyquist:.4g}] (axis Nyquist), "
            f"got {cfg.cutoff_rho}"
        )
    if cfg.datum == "file" and not cfg.datum_file:
        raise ConfigError("datum = file requires datum_file")
    if cfg.schedule not in ("power", "log_cubed"):
        raise ConfigError(
            f"schedule must be power or log_cubed, got {cfg.schedule!r}"
        )
    if cfg.schedule_alpha < 0:
        raise ConfigError(
            f"schedule_alpha must be positive (or 0 for automatic), got {cfg.schedule_alpha}"
        )
    if not cfg.c_tilde > 0:
        raise ConfigError(f"c_tilde must be positive, got {cfg.c_tilde}")
    if cfg.fit_t_min < 0 or cfg.fit_t_max < 0:
        raise ConfigError("fit_t_min / fit_t_max must be positive (or 0 for defaults)")
    if cfg.fit_t_min > 0 and cfg.fit_t_max > 0 and cfg.fit_t_min >= cfg.fit_t_max:
        raise ConfigError(
            f"fit_t_min = {cfg.fit_t_min} must be below fit_t_max = {cfg.fit_t_max}"
        )
    if not cfg.bound_tol > 0:
        raise ConfigError(f"bound_tol must be positive, got {cfg.bound_tol}")
    if not cfg.lyapunov_tol > 0:
        raise ConfigError(f"lyapunov_tol must be positive, got {cfg.lyapunov_tol}")
    if cfg.refinement_levels < 2:
        raise ConfigError(
            f"refinement_levels must be >= 2, got {cfg.refinement_levels}"
        )
    if cfg.threads < 0:
        raise ConfigError(f"threads must be >= 1 (or 0 for automatic), got {cfg.threads}")
    return cfg


_PARSERS = {
    "points_per_dim": _parse_int,
    "snapshot_count": _parse_int,
    "refinement_levels": _parse_int,
    "threads": _parse_int,
    "nonlinearity": _parse_bool,
    "datum": lambda k, v: v,
    "schedule": lambda k, v: v,
    "datum_file": lambda k, v: v,
}


def parse_config(path: str | Path | None, experiment: str = "") -> HarnessConfig:
    """Parse a key = value config file; None yields pure defaults.

    `experiment` selects documented per-experiment default overrides
    (applied before user keys, so explicit keys always win).
    """
    cfg = HarnessConfig()
    if experiment and experiment in _EXPERIMENT_DEFAULTS:
        cfg = replace(cfg, **_EXPERIMENT_DEFAULTS[experiment])  # type: ignore[arg-type]
    if path is None:
        return _validate(cfg)
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    valid = {f.name for f in fields(HarnessConfig)}
    overrides: dict[str, object] = {}
    for lineno, raw_line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in valid:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        parser = _PARSERS.get(key, _parse_float)
        overrides[key] = parser(key, raw)
    cfg = replace(cfg, **overrides)  # type: ignore[arg-type]
    return _validate(cfg)
