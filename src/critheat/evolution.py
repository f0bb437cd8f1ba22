"""Time integration of the 4D nonlinear heat equation on the torus.

The equation u_t = Delta u + u^3 (real solutions) is advanced with an
integrating-factor RK4 scheme on v_hat = e^{t |xi|^2} u_hat: the diagonal
linear part is treated exactly, so with the nonlinearity disabled a step
reproduces the heat semigroup to roundoff for any dt. The heat symbol
e^{-t |xi|^2} of the integrating factors, `heat_propagate` and the
Duhamel check is `spectral.heat_multiplier`. The cubic term is evaluated
pseudospectrally with 2/3-rule dealiasing on both input and output.

Along the run three time integrals are accumulated by the trapezoid rule
on steps: the Hdot^2 dissipation integral, the Hdot^1 pairing with the
dealiased cubic, and the space-time L^6 mass. The energy identity reads
the first two; a diagnostics record reports the third as `l6_accum`.

Apart from the three RK4 stage evaluations of a step, each solver state
computes its transforms at most once, on first use, and caches them:

  * `SolverState.rates()`: one inverse transform of the dealiased field,
    its cube, and, for a nonlinear state, one forward transform of the
    cube. This gives the step-endpoint integrands (Hdot^2 dissipation,
    L^6 mass as cube * cube, and the Hdot^1 pairing) and the dealiased
    cubic, which is the first RK4 stage of the next step. A diagnostics
    record takes its `grad_h1_sq` (the dissipation) and, for a nonlinear
    state, its `pairing` from here. A linear state skips the forward
    transform, so its record computes the cubic itself.
  * `SolverState.norms()`: one inverse transform of the undealiased
    field, giving sup |u| for the stability bound and h^4 sum u^4, the
    `l4_fourth` of a record.

Powers of the field are products (v * v * v), never the generic `pow`.

The dt stability bound is 1.5 / max(||u||_inf^2, dxi^2) with a safety
factor 0.5, re-evaluated every 100 steps while advancing.

Checkpoint format (little-endian), used for file data and restarts:

    bytes 0-7    magic b"CRITHEAT"
    bytes 8-15   N, points per dimension (uint64)
    bytes 16-23  L, side length (float64)
    bytes 24-31  t, solution time (float64)
    bytes 32-39  step count (uint64)
    bytes 40-    N^4 physical values, float64, C order
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .spectral import (
    NonFiniteField,
    PhysicalField,
    SpectralField,
    TorusGrid,
    dealias,
    heat_multiplier,
    sobolev_inner,
    sobolev_norm_sq,
    transform_forward,
    transform_inverse,
)

CHECKPOINT_MAGIC = b"CRITHEAT"
_HEADER = struct.Struct("<8sQddQ")


class BlowUpSuspected(RuntimeError):
    """Raised when stepping produces non-finite values; carries the last valid state."""

    def __init__(self, last_state: "SolverState"):
        super().__init__(
            f"non-finite values at t={last_state.t:.6g} after {last_state.step_count} steps; "
            "blow-up suspected"
        )
        self.last_state = last_state


def log_spaced_snapshots(t_min: float, t_end: float, count: int) -> tuple[float, ...]:
    if not 0 < t_min < t_end or count < 2:
        raise ValueError("need 0 < t_min < t_end and count >= 2")
    return tuple(np.geomspace(t_min, t_end, count))


@dataclass(frozen=True)
class Rates:
    """Step-endpoint integrands and the dealiased cubic (None for a linear state)."""

    dissipation: float
    pairing: float
    l6: float
    nl_hat: np.ndarray | None


@dataclass(frozen=True)
class Norms:
    """sup |u| and h^4 sum u^4 of the undealiased field."""

    sup: float
    l4_fourth: float


@dataclass
class SolverState:
    t: float
    u_hat: SpectralField
    step_count: int = 0
    dissipation_integral: float = 0.0
    pairing_integral: float = 0.0
    l6_integral: float = 0.0
    nonlinear: bool = True
    _rates: Rates | None = dataclass_field(default=None, repr=False)
    _norms: Norms | None = dataclass_field(default=None, repr=False)

    def rates(self) -> Rates:
        """The state's step-endpoint rates, computed on first use."""
        if self._rates is None:
            self._rates = _compute_rates(self.u_hat, self.nonlinear)
        return self._rates

    def norms(self) -> Norms:
        """sup |u| and h^4 sum u^4 of the state, from one inverse transform on first use."""
        if self._norms is None:
            u = transform_inverse(self.u_hat).values
            sq = u * u
            self._norms = Norms(
                float(np.max(np.abs(u))),
                float(self.u_hat.grid.spacing**4 * np.sum(sq * sq)),
            )
        return self._norms


def heat_propagate(u_hat: SpectralField, t: float) -> SpectralField:
    """Exact heat semigroup: multiply by e^{-t |xi|^2}."""
    return SpectralField(u_hat.grid, u_hat.coefficients * heat_multiplier(u_hat.grid, t))


def _cube(u: PhysicalField) -> PhysicalField:
    v = u.values
    with np.errstate(over="ignore"):
        return PhysicalField(u.grid, v * v * v)


def nonlinear_term(u_hat: SpectralField) -> SpectralField:
    """dealias(F(u^3)) with u the inverse transform of dealias(u_hat)."""
    u = transform_inverse(dealias(u_hat))
    if not np.all(np.isfinite(u.values)):
        raise NonFiniteField("non-finite physical values in nonlinear term")
    return dealias(transform_forward(_cube(u)))


def _compute_rates(u_hat: SpectralField, nonlinear: bool) -> Rates:
    u = transform_inverse(dealias(u_hat))
    cubed = _cube(u)
    with np.errstate(over="ignore"):
        l6 = float(u.grid.spacing**4 * np.sum(cubed.values * cubed.values))
    diss = sobolev_norm_sq(u_hat, 2.0)
    if not nonlinear:
        return Rates(diss, 0.0, l6, None)
    nl = dealias(transform_forward(cubed))
    pair = sobolev_inner(u_hat, nl, 1.0)
    return Rates(diss, pair, l6, nl.coefficients)


def initial_state(u0_hat: SpectralField, nonlinear: bool = True) -> SolverState:
    return SolverState(t=0.0, u_hat=u0_hat.copy(), nonlinear=nonlinear)


@lru_cache(maxsize=8)
def _if_factors(n: int, length: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    e_half = heat_multiplier(TorusGrid(n, length), 0.5 * dt)
    return e_half, e_half**2


def step(
    state: SolverState,
    dt: float,
    forcing: Callable[[float], np.ndarray] | None = None,
) -> SolverState:
    """One integrating-factor RK4 step of u_t = Delta u + u^3 [+ forcing].

    The optional forcing is a verification hook: a callable t -> spectral
    coefficients added to the nonlinear right-hand side (manufactured
    solutions).
    """
    grid = state.u_hat.grid
    u = state.u_hat.coefficients
    e1, e2 = _if_factors(grid.points_per_dim, grid.side_length, dt)

    try:
        if not state.nonlinear and forcing is None:
            new_coeffs = e2 * u
        else:

            def rhs(coeffs: np.ndarray, t: float) -> np.ndarray:
                if state.nonlinear:
                    out = nonlinear_term(SpectralField(grid, coeffs)).coefficients
                else:
                    out = np.zeros_like(coeffs)
                if forcing is not None:
                    out = out + forcing(t)
                return out

            rates = state.rates()
            if state.nonlinear and forcing is None and rates.nl_hat is not None:
                a = rates.nl_hat
            else:
                a = rhs(u, state.t)
            b = rhs(e1 * (u + 0.5 * dt * a), state.t + 0.5 * dt)
            c = rhs(e1 * u + 0.5 * dt * b, state.t + 0.5 * dt)
            d = rhs(e2 * u + dt * e1 * c, state.t + dt)
            new_coeffs = e2 * u + (dt / 6.0) * (e2 * a + 2.0 * e1 * (b + c) + d)

        if not np.all(np.isfinite(new_coeffs)):
            raise BlowUpSuspected(state)

        new_state = SolverState(
            t=state.t + dt,
            u_hat=SpectralField(grid, new_coeffs),
            step_count=state.step_count + 1,
            dissipation_integral=state.dissipation_integral,
            pairing_integral=state.pairing_integral,
            l6_integral=state.l6_integral,
            nonlinear=state.nonlinear,
        )
        old = state.rates()
        new = new_state.rates()
    except NonFiniteField as exc:
        raise BlowUpSuspected(state) from exc
    half_dt = 0.5 * dt
    new_state.dissipation_integral += half_dt * (old.dissipation + new.dissipation)
    new_state.pairing_integral += half_dt * (old.pairing + new.pairing)
    new_state.l6_integral += half_dt * (old.l6 + new.l6)
    return new_state


def stability_bound(state: SolverState) -> float:
    """Largest admissible dt, 0.5 * 1.5 / max(||u||_inf^2, dxi^2)."""
    sup_sq = state.norms().sup ** 2
    return 0.5 * 1.5 / max(sup_sq, state.u_hat.grid.frequency_spacing**2)


def advance(
    state: SolverState,
    t_target: float,
    dt_max: float,
    forcing: Callable[[float], np.ndarray] | None = None,
    recheck_every: int = 100,
) -> SolverState:
    """Advance to t_target in equal substeps of at most min(dt_max, bound).

    The stability bound is re-evaluated every `recheck_every` steps. The
    final time is snapped to t_target to avoid float drift.
    """
    if t_target < state.t - 1e-12:
        raise ValueError(f"cannot advance backwards: {state.t} -> {t_target}")
    while t_target - state.t > 1e-12 * max(1.0, t_target):
        remaining = t_target - state.t
        dt_eff = min(dt_max, stability_bound(state))
        n_sub = max(1, math.ceil(remaining / dt_eff - 1e-12))
        dt = remaining / n_sub
        for _ in range(min(n_sub, recheck_every)):
            state = step(state, dt, forcing=forcing)
    state.t = t_target
    return state


@dataclass
class DuhamelSample:
    """A snapshot with its stored nonlinear term, for the mild-solution check."""

    t: float
    u_hat: np.ndarray
    nl_hat: np.ndarray


def duhamel_sample(state: SolverState) -> DuhamelSample:
    rates = state.rates()
    nl = rates.nl_hat if rates.nl_hat is not None else np.zeros_like(
        state.u_hat.coefficients
    )
    return DuhamelSample(state.t, state.u_hat.coefficients.copy(), nl.copy())


def duhamel_residual(samples: Sequence[DuhamelSample], grid: TorusGrid) -> float:
    """Relative L^2 defect of u(T) against the Duhamel form.

    The time integral of e^{(T-s) Delta} F(u^3)(s) is taken by the
    trapezoid rule over the sample times, so the residual converges at
    second order as the sample density doubles.
    """
    if len(samples) < 3:
        raise ValueError(f"need at least 3 samples, got {len(samples)}")
    times = np.array([s.t for s in samples])
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be strictly increasing")
    t_final = times[-1]
    integral = np.zeros_like(samples[0].u_hat)
    propagated = [heat_multiplier(grid, t_final - s.t) * s.nl_hat for s in samples]
    for j in range(len(samples) - 1):
        w = 0.5 * (times[j + 1] - times[j])
        integral += w * (propagated[j] + propagated[j + 1])
    mild = heat_multiplier(grid, t_final) * samples[0].u_hat + integral
    defect = SpectralField(grid, samples[-1].u_hat - mild)
    norm = np.sqrt(sobolev_norm_sq(SpectralField(grid, samples[-1].u_hat), 0.0))
    if norm == 0:
        return 0.0
    return float(np.sqrt(sobolev_norm_sq(defect, 0.0)) / norm)


def save_checkpoint(path: str | Path, field: PhysicalField, t: float, step_count: int) -> None:
    grid = field.grid
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, grid.points_per_dim, grid.side_length, t, step_count
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[PhysicalField, float, int]:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"truncated checkpoint header in {path}")
        magic, n, length, t, steps = _HEADER.unpack(raw)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r} in {path}")
        grid = TorusGrid(int(n), float(length))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n**4:
        raise ValueError(
            f"checkpoint payload has {data.size} values, expected {n**4}"
        )
    values = np.ascontiguousarray(data.reshape(grid.shape)).astype(float)
    return PhysicalField(grid, values), float(t), int(steps)
