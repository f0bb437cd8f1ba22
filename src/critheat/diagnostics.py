"""Monitored quantities, Fourier splitting, and decay-rate fitting.

Each solver snapshot yields one record, each field from one source:

  * `h1_sq`, `low_sq`, `high_sq`: one Hdot^1 density,
    `spectral.sobolev_density`, in `splitting_split`. `h1_sq` is its full
    sum (bit for bit `sobolev_norm_sq(u_hat, 1.0)`), never low + high, so
    the exact partition stays a check; `low_sq` and `high_sq` are its sums
    inside and outside the ball B(t);
  * `grad_h1_sq`: the Hdot^2 dissipation of `SolverState.rates()`;
  * `l4_fourth`: h^4 sum u^4 of the dealiased field, in
    `SolverState.rates()`, and `energy` = (1/2) h1_sq - (1/4) l4_fourth;
  * `l6_accum`: the space-time L^6 integral the solver accumulates;
  * `pairing`: the Hdot^1 pairing with the dealiased cubic of
    `SolverState.rates()`, the integrand the energy identity integrates,
    0 for a linear state; `pairing_ratio` = |pairing| / (grad_h1_sq h1_sq).

The solver computes the 2/3-truncated system, whose cubic sees only the
dealiased field (see `evolution`). So the L^4 mass of that field is the
one the equation's nonlinearity carries, and `energy` is the computed
system's Lyapunov functional: it is nonincreasing along a nonlinear run,
up to the time discretisation, where the full field's L^4 mass carries
no such guarantee. The sup |u| of the stability bound is read from the
same field, for the same reason.

The splitting ball is

    B(t) = { |xi| <= r(t) },   r(t) = sqrt( g'(t) / (C g(t)) ),

for either schedule g(t) = [ln(e+t)]^3 or g(t) = (1+t)^alpha. Both
satisfy g(0) = 1. The constant C is not pinned by the analysis (it
absorbs the smallness constant); here C is 1, so r(t) = sqrt(g'/g), and
no exponent conclusion depends on it.

Monitors:
  * Lyapunov: h1_sq nonincreasing across snapshots (small-data regime),
    to a relative `LYAPUNOV_TOL`;
  * energy identity: h1(t2) + 2 int grad-Hdot^1 = h1(t1) + 2 int pairing;
  * key inequality: d/dt [g h1] - g' * (low-frequency Hdot^1 mass) <= 0,
    with centered differences on the snapshot grid and an allowance for
    their truncation error;
  * rate fits: least-squares slope of log h1_sq against log(1+t),
    compared one-sidedly with the paper's bound min{2 + q*, 1}
    (`decay_bound`, its one definition), less `BOUND_TOL`: observed decay
    may be faster than the bound, never slower.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .evolution import SolverState
from .spectral import SpectralField, sobolev_density, sobolev_norm_sq

LOG_CUBED = "log_cubed"
POWER = "power"

# fewest records with positive h1_sq that a rate fit accepts
_MIN_FIT_RECORDS = 5
# how far a fitted decay exponent may fall short of the bound min{2 + q*, 1}
BOUND_TOL = 0.1
# how far h1_sq may rise, relative, between two snapshots: rounding only
LYAPUNOV_TOL = 1e-10


@dataclass(frozen=True)
class SplittingSchedule:
    """Splitting ball schedule: r(t) = sqrt(g'(t) / g(t)), the constant C being 1."""

    kind: str
    alpha: float = 2.5

    def g(self, t: float) -> float:
        if self.kind == LOG_CUBED:
            return float(np.log(np.e + t) ** 3)
        return float((1.0 + t) ** self.alpha)

    def g_prime(self, t: float) -> float:
        if self.kind == LOG_CUBED:
            return float(3.0 * np.log(np.e + t) ** 2 / (np.e + t))
        return float(self.alpha * (1.0 + t) ** (self.alpha - 1.0))

    def radius(self, t: float) -> float:
        return float(np.sqrt(self.g_prime(t) / self.g(t)))


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

    The density is `sobolev_density(u_hat, u_hat, 1.0)`. The total is its
    full sum, bit for bit `sobolev_norm_sq(u_hat, 1.0)`; the parts are its
    sums inside and outside the ball, so they add to the total up to
    rounding.
    """
    density = sobolev_density(u_hat, u_hat, 1.0)
    inside = u_hat.grid.xi_mag <= schedule.radius(t)
    low, high = float(np.sum(density[inside])), float(np.sum(density[~inside]))
    return float(np.sum(density)), low, high


def record(state: SolverState, schedule: SplittingSchedule) -> DiagnosticsRecord:
    """Assemble all monitored quantities from one solver snapshot.

    Everything but the Hdot^1 density comes from the state's one cache,
    `rates()`: the dissipation, the pairing, where a linear state's pairing
    is 0, and h^4 sum u^4 of the dealiased field, the field the cubic sees,
    so that `energy` is the computed system's. A second record of the
    same state (another schedule) transforms nothing.
    """
    h1_sq, low_sq, high_sq = splitting_split(state.u_hat, schedule, state.t)
    rates = state.rates()
    denom = rates.dissipation * h1_sq
    return DiagnosticsRecord(
        t=state.t,
        h1_sq=h1_sq,
        grad_h1_sq=rates.dissipation,
        energy=0.5 * h1_sq - 0.25 * rates.l4_fourth,
        l4_fourth=rates.l4_fourth,
        l6_accum=state.l6_integral,
        low_sq=low_sq,
        high_sq=high_sq,
        pairing=rates.pairing,
        pairing_ratio=abs(rates.pairing) / denom if denom > 0 else 0.0,
    )


@dataclass(frozen=True)
class LyapunovReport:
    passed: bool
    violations: tuple[tuple[float, float, float], ...]  # (t1, t2, relative increase)


def lyapunov_check(records: Sequence[DiagnosticsRecord]) -> LyapunovReport:
    """Flag every adjacent snapshot pair where h1_sq increased beyond `LYAPUNOV_TOL`."""
    violations = []
    for a, b in zip(records, records[1:]):
        if b.h1_sq > a.h1_sq * (1.0 + LYAPUNOV_TOL):
            rel = b.h1_sq / a.h1_sq - 1.0 if a.h1_sq > 0 else np.inf
            violations.append((a.t, b.t, rel))
    return LyapunovReport(not violations, tuple(violations))


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


def pairing_ratio_report(records: Sequence[DiagnosticsRecord]) -> PairingReport:
    """Maximum |pairing| / (grad_h1_sq * h1_sq) across the series, at its first time."""
    best = max(records, key=lambda rec: rec.pairing_ratio)
    return PairingReport(best.pairing_ratio, best.t)


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
    window: tuple[float, float]
    residual: float


def fit_decay_rate(records: Sequence[DiagnosticsRecord], window: tuple[float, float]) -> RateFit:
    """Least-squares slope of log h1_sq against log(1+t) over the window.

    Raises UnfittableWindow when fewer than `_MIN_FIT_RECORDS` records with
    positive h1_sq lie in the window.
    """
    t0, t1 = window
    sel = [r for r in records if t0 <= r.t <= t1 and r.h1_sq > 0]
    if len(sel) < _MIN_FIT_RECORDS:
        raise UnfittableWindow(window, len(sel), _MIN_FIT_RECORDS)
    x = np.log1p([r.t for r in sel])
    y = np.log([r.h1_sq for r in sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(float(slope), (float(t0), float(t1)), resid)


def decay_bound(q_star: float) -> float:
    """The exponent of the decay bound ||u(t)||_{Hdot^1}^2 <= C (1+t)^{-min{2+q*, 1}}."""
    return min(2.0 + q_star, 1.0)


def bound_check(q_star: float, fit: RateFit) -> bool:
    """One-sided check of the decay bound `decay_bound(q_star)`.

    Passes when the observed decay exponent (-fit.exponent) is at least
    the bound less `BOUND_TOL`; faster observed decay always passes.
    """
    return bool(-fit.exponent >= decay_bound(q_star) - BOUND_TOL)


@dataclass(frozen=True)
class KeyInequalityReport:
    passed: bool
    max_margin: float  # max over interior snapshots of Q_i - allowance_i


def key_inequality_check(
    records: Sequence[DiagnosticsRecord], schedule: SplittingSchedule
) -> KeyInequalityReport:
    """Check d/dt [g(t) h1_sq] <= g'(t) * low_sq at interior snapshots.

    Time derivatives are centered differences on the snapshot grid; each
    margin gets an allowance |s+ - s-| (the spread of one-sided slopes)
    covering the truncation error of the nonuniform centered difference.
    Splitting parts in the records must come from the same schedule.
    """
    ts = np.array([r.t for r in records])
    gh1 = np.array([schedule.g(r.t) * r.h1_sq for r in records])
    margins = []
    for i in range(1, len(records) - 1):
        dt_all = ts[i + 1] - ts[i - 1]
        centered = (gh1[i + 1] - gh1[i - 1]) / dt_all
        s_plus = (gh1[i + 1] - gh1[i]) / (ts[i + 1] - ts[i])
        s_minus = (gh1[i] - gh1[i - 1]) / (ts[i] - ts[i - 1])
        allowance = abs(s_plus - s_minus) + 1e-12 * abs(gh1[i]) / dt_all
        q = centered - schedule.g_prime(ts[i]) * records[i].low_sq
        margins.append(q - allowance)
    max_margin = float(np.max(margins))
    return KeyInequalityReport(max_margin <= 0.0, max_margin)
