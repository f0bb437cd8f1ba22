"""Monitored quantities, Fourier splitting, and decay-rate fitting.

Each solver snapshot yields one record, each field from one source:

  * `h1_sq`, `low_sq`, `high_sq`: one Hdot^1 density |xi|^2 |u_hat|^2 in
    `splitting_split`. `h1_sq` is its full sum (bit for bit
    `sobolev_norm_sq(u_hat, 1.0)`), never low + high, so the exact
    partition stays a check; `low_sq` and `high_sq` are its sums inside
    and outside the ball B(t);
  * `grad_h1_sq`: the Hdot^2 dissipation cached in `SolverState.rates()`;
  * `l4_fourth`: h^4 sum u^4 from `SolverState.norms()`, and `energy`
    = (1/2) h1_sq - (1/4) l4_fourth;
  * `l6_accum`: the space-time L^6 integral the solver accumulates;
  * `pairing`: the Hdot^1 pairing with the dealiased cubic, cached in the
    rates of a nonlinear state and computed here for a linear one, whose
    rates carry no cubic; `pairing_ratio` = |pairing| / (grad_h1_sq h1_sq).

The splitting ball is

    B(t) = { |xi| <= r(t) },   r(t) = sqrt( g'(t) / (C g(t)) ),

for either schedule g(t) = [ln(e+t)]^3 or g(t) = (1+t)^alpha. Both
satisfy g(0) = 1. The constant C is not pinned by the analysis (it
absorbs the smallness constant); it defaults to 1 and no exponent
conclusion depends on it.

Monitors:
  * Lyapunov: h1_sq nonincreasing across snapshots (small-data regime);
  * energy identity: h1(t2) + 2 int grad-Hdot^1 = h1(t1) + 2 int pairing;
  * key inequality: d/dt [g h1] - g' * (low-frequency Hdot^1 mass) <= 0,
    with centered differences on the snapshot grid and an allowance for
    their truncation error;
  * rate fits: least-squares slope of log h1_sq against log(1+t) (or
    against log ln(e+t) in the auxiliary log-law mode), compared
    one-sidedly with min{2 + q*, 1}: observed decay may be faster than
    the bound, never slower.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .evolution import SolverState, nonlinear_term
from .spectral import (  # noqa: F401  (transform_inverse stays bound here for callers)
    SpectralField,
    sobolev_inner,
    sobolev_norm_sq,
    transform_inverse,
)

LOG_CUBED = "log_cubed"
POWER = "power"


@dataclass(frozen=True)
class SplittingSchedule:
    """Splitting ball schedule: r(t) = sqrt(g'(t) / (c_tilde g(t)))."""

    kind: str = POWER
    alpha: float = 2.5
    c_tilde: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (LOG_CUBED, POWER):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == POWER and not self.alpha > 0:
            raise ValueError(f"power schedule needs alpha > 0, got {self.alpha}")
        if not self.c_tilde > 0:
            raise ValueError(f"c_tilde must be positive, got {self.c_tilde}")

    def g(self, t: float) -> float:
        if self.kind == LOG_CUBED:
            return float(np.log(np.e + t) ** 3)
        return float((1.0 + t) ** self.alpha)

    def g_prime(self, t: float) -> float:
        if self.kind == LOG_CUBED:
            return float(3.0 * np.log(np.e + t) ** 2 / (np.e + t))
        return float(self.alpha * (1.0 + t) ** (self.alpha - 1.0))

    def radius(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"schedule evaluated at t={t} < 0")
        return float(np.sqrt(self.g_prime(t) / (self.c_tilde * self.g(t))))


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One snapshot's monitored quantities; the fields are the series.csv columns."""

    t: float
    h1_sq: float
    grad_h1_sq: float
    energy: float
    l4_fourth: float
    l6_accum: float
    low_sq: float
    high_sq: float
    pairing: float
    pairing_ratio: float


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def csv_row(rec: DiagnosticsRecord) -> tuple[float, ...]:
    return tuple(getattr(rec, name) for name in CSV_COLUMNS)


def splitting_split(
    u_hat: SpectralField, schedule: SplittingSchedule, t: float
) -> tuple[float, float, float]:
    """Hdot^1 mass in total and inside/outside B(t), from one density.

    The total is the full sum of the density, bit for bit
    `sobolev_norm_sq(u_hat, 1.0)`; the parts are its sums inside and
    outside the ball, so they add to the total up to rounding.
    """
    grid = u_hat.grid
    density = grid.xi_mag**2 * np.abs(u_hat.coefficients) ** 2
    norm = (2.0 * np.pi) ** -4 * grid.frequency_spacing**4
    total = norm * float(np.sum(density))
    inside = grid.xi_mag <= schedule.radius(t)
    low = norm * float(np.sum(density[inside]))
    high = norm * float(np.sum(density[~inside]))
    return total, low, high


def record(state: SolverState, schedule: SplittingSchedule) -> DiagnosticsRecord:
    """Assemble all monitored quantities from one solver snapshot.

    Everything but the Hdot^1 density comes from the state's caches, so a
    second record of the same nonlinear state (another schedule)
    transforms nothing. A linear state caches no cubic, so its pairing is
    computed here.
    """
    u_hat = state.u_hat
    h1_sq, low_sq, high_sq = splitting_split(u_hat, schedule, state.t)
    grad_h1_sq = state.rates().dissipation
    l4_fourth = state.norms().l4_fourth
    energy = 0.5 * h1_sq - 0.25 * l4_fourth
    if state.nonlinear:
        pairing = state.rates().pairing
    else:
        pairing = sobolev_inner(u_hat, nonlinear_term(u_hat), 1.0)
    denom = grad_h1_sq * h1_sq
    pairing_ratio = abs(pairing) / denom if denom > 0 else 0.0
    return DiagnosticsRecord(
        t=state.t,
        h1_sq=h1_sq,
        grad_h1_sq=grad_h1_sq,
        energy=energy,
        l4_fourth=l4_fourth,
        l6_accum=state.l6_integral,
        low_sq=low_sq,
        high_sq=high_sq,
        pairing=pairing,
        pairing_ratio=pairing_ratio,
    )


@dataclass(frozen=True)
class LyapunovReport:
    passed: bool
    tol: float
    violations: tuple[tuple[float, float, float], ...]  # (t1, t2, relative increase)


def lyapunov_check(records: Sequence[DiagnosticsRecord], tol: float = 1e-10) -> LyapunovReport:
    """Flag every adjacent snapshot pair where h1_sq increased beyond tol."""
    if len(records) < 2:
        raise ValueError("need at least 2 records")
    violations = []
    for a, b in zip(records, records[1:]):
        if b.h1_sq > a.h1_sq * (1.0 + tol):
            rel = b.h1_sq / a.h1_sq - 1.0 if a.h1_sq > 0 else np.inf
            violations.append((a.t, b.t, rel))
    return LyapunovReport(not violations, tol, tuple(violations))


def energy_identity_residual(first: SolverState, last: SolverState) -> float:
    """Relative defect of the Hdot^1 energy identity between two states of one run."""
    lhs = sobolev_norm_sq(last.u_hat, 1.0) + 2.0 * (
        last.dissipation_integral - first.dissipation_integral
    )
    rhs = sobolev_norm_sq(first.u_hat, 1.0) + 2.0 * (
        last.pairing_integral - first.pairing_integral
    )
    scale = max(abs(lhs), abs(rhs))
    if scale == 0:
        return 0.0
    return abs(lhs - rhs) / scale


@dataclass(frozen=True)
class PairingReport:
    max_ratio: float
    t_at_max: float
    records_used: int


def pairing_ratio_report(records: Sequence[DiagnosticsRecord]) -> PairingReport:
    """Maximum |pairing| / (grad_h1_sq * h1_sq) across the series."""
    best, t_best, used = 0.0, 0.0, 0
    for rec in records:
        if rec.h1_sq <= 0 or rec.grad_h1_sq <= 0:
            continue
        used += 1
        if not np.isfinite(rec.pairing_ratio):
            raise ValueError(f"non-finite pairing ratio at t={rec.t}")
        if rec.pairing_ratio > best:
            best, t_best = rec.pairing_ratio, rec.t
    if used == 0:
        raise ValueError("no records with nonzero norms")
    return PairingReport(best, t_best, used)


class UnfittableWindow(ValueError):
    """The fit window holds too few usable records for a slope."""

    def __init__(self, window: tuple[float, float], usable: int, minimum: int):
        t0, t1 = window
        super().__init__(
            f"window [{t0:.4g}, {t1:.4g}] holds {usable} usable records, need {minimum}"
        )
        self.window = (float(t0), float(t1))


@dataclass(frozen=True)
class RateFit:
    exponent: float
    intercept: float
    window: tuple[float, float]
    residual: float
    basis: str = "power"


def fit_decay_rate(
    records: Sequence[DiagnosticsRecord],
    window: tuple[float, float],
    basis: str = "power",
    min_records: int = 5,
) -> RateFit:
    """Least-squares slope of log h1_sq against log(1+t) over the window.

    basis="log" switches the regressor to log ln(e+t), the auxiliary mode
    for data decaying like a power of ln(e+t). Raises UnfittableWindow when
    fewer than `min_records` records with positive h1_sq lie in the window.
    """
    if basis not in ("power", "log"):
        raise ValueError(f"unknown fit basis {basis!r}")
    t0, t1 = window
    sel = [r for r in records if t0 <= r.t <= t1 and r.h1_sq > 0]
    if len(sel) < min_records:
        raise UnfittableWindow(window, len(sel), min_records)
    ts = np.array([r.t for r in sel])
    x = np.log1p(ts) if basis == "power" else np.log(np.log(np.e + ts))
    y = np.log([r.h1_sq for r in sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(float(slope), float(intercept), (float(t0), float(t1)), resid, basis)


def bound_check(q_star: float, fit: RateFit, tol: float) -> bool:
    """One-sided check of the decay bound (1+t)^{-min{2+q*, 1}}.

    Passes when the observed decay exponent (-fit.exponent) is at least
    min{2+q*, 1} - tol; faster observed decay always passes.
    """
    if q_star <= -2:
        raise ValueError(f"q_star must exceed -2, got {q_star}")
    bound = min(2.0 + q_star, 1.0)
    return bool(-fit.exponent >= bound - tol)


@dataclass(frozen=True)
class KeyInequalityReport:
    passed: bool
    max_margin: float          # max over snapshots of Q_i - allowance_i
    max_raw: float             # max over snapshots of Q_i
    margins: tuple[float, ...]


def key_inequality_check(
    records: Sequence[DiagnosticsRecord], schedule: SplittingSchedule
) -> KeyInequalityReport:
    """Check d/dt [g(t) h1_sq] <= g'(t) * low_sq at interior snapshots.

    Time derivatives are centered differences on the snapshot grid; each
    margin gets an allowance |s+ - s-| (the spread of one-sided slopes)
    covering the truncation error of the nonuniform centered difference.
    Splitting parts in the records must come from the same schedule.
    """
    if len(records) < 3:
        raise ValueError("need at least 3 records")
    ts = np.array([r.t for r in records])
    gh1 = np.array([schedule.g(r.t) * r.h1_sq for r in records])
    margins = []
    raft = []
    for i in range(1, len(records) - 1):
        dt_all = ts[i + 1] - ts[i - 1]
        centered = (gh1[i + 1] - gh1[i - 1]) / dt_all
        s_plus = (gh1[i + 1] - gh1[i]) / (ts[i + 1] - ts[i])
        s_minus = (gh1[i] - gh1[i - 1]) / (ts[i] - ts[i - 1])
        allowance = abs(s_plus - s_minus) + 1e-12 * abs(gh1[i]) / dt_all
        q = centered - schedule.g_prime(ts[i]) * records[i].low_sq
        raft.append(q)
        margins.append(q - allowance)
    max_margin = float(np.max(margins))
    return KeyInequalityReport(max_margin <= 0.0, max_margin, float(np.max(raft)), tuple(margins))
