"""Time integration of the 4D nonlinear heat equation on the torus.

The equation u_t = Delta u + u^3 (real solutions) is advanced with an
integrating-factor RK4 scheme on v_hat = e^{t |xi|^2} u_hat. A linear
state (heat flow, no cubic) takes only the exact factor, so its step
reproduces the heat semigroup to roundoff for any dt. The heat symbol
e^{-t |xi|^2} of the factors, `heat_propagate` and the Duhamel check is
`spectral.heat_multiplier`. Each step computes its factors, with no
cache, since `advance` changes dt with every snapshot interval. The
cubic term is evaluated pseudospectrally with the 2/3 rule on both input
and output: by `nonlinear_term` in the RK4 stages, on the compact band
(below), and by a state's rates for its own cubic. The rule is applied
inside the transforms (see `spectral`): the one dealiased inverse,
`spectral.band_inverse`, transforms only the kept band of the state, the
forward transform returns only the kept band of the cube, and neither
runs the FFT lines the rule zeroes. A spectrum is checked for
finiteness once, where it enters: `initial_state` checks its datum's
whole half spectrum. After that the transforms, which reject non-finite
input, are the only guard; the dealiased inverse checks only the band,
and out of it a step's new coefficients are e2 * u of a finite u. A
power or sum that overflows is left as inf, and an overflowing step
raises `BlowUpSuspected` with the last valid state.

A nonlinear step runs its RK4 stages on the compact 2/3 band
(`spectral.gather_band`), about a fifth of a half spectrum at N = 16 and
32. Every stage is a dealiased cubic, exactly zero outside the band, so
the step gathers u, e1 and the old state's cubic (stage a) to the band,
computes the stages b, c and d and their inputs there, builds the new
coefficients as e2 * u on the half lattice and scatters the band's update
into them. In the band each element is the full-lattice expression, bit
for bit; outside it the update is e2 * u where the full-lattice formula
gave e2 * u + (dt / 6) * 0, which can differ only in the sign of an exact
zero. A forcing adds its band to the stages, and its out-of-band part
enters through one half-lattice term.

The state u_hat is the half spectrum of a real field (see `spectral`):
every array here is an (N, N, N, N/2 + 1) half-lattice array, the
multipliers are real and even, and the cube of a real field is real, so
the solution stays real by construction and no step checks it.

Each lattice array is held once. The initial state shares its datum's
coefficients through a read-only view, which is safe because no step
writes a state's coefficients in place; a caller that drops its own
reference to the datum frees it with the initial state, after the first
step. `advance` is the one owner of the state it steps: it yields the
state at each snapshot time, and a caller that drops the yielded state
before asking for the next one (as `experiments.run_simulation` does)
pins no state the loop has stepped away from. `advance` also hands each
state over to `step`, so that the step holds its only reference. While a
step's new state computes its rates, the step holds:

  * linear: only the new state. It reads the old state's rates, builds
    its one factor, e^{-dt |xi|^2}, as the in-place square of
    e^{-dt |xi|^2 / 2} (bit for bit e1 * e1), makes the new coefficients
    and releases the factor, the old coefficients and its reference to
    the old state; the heat flow cannot blow up, so the new rates run
    outside the blow-up guard. A caller that keeps its own reference to
    the old state (a test, or `experiments._energy_identity`'s `start`)
    keeps it alive, unchanged;
  * nonlinear: the old and new states, since a blow-up in the new rates
    raises `BlowUpSuspected` with the old one, and the factors
    e1 = e^{-dt |xi|^2 / 2} and e2 = e1 * e1 on the half lattice (half a
    half spectrum each). The stages and their inputs are compact bands,
    released once the update is scattered. e2 is built after the stages,
    and both factors are kept until the step returns: released earlier,
    they leave the top of the heap free for glibc to return, and later
    steps fault it in again (several times the minor page faults of a run
    at N = 16).

Along the run three time integrals are accumulated by the trapezoid rule
on steps: the Hdot^2 dissipation integral, the Hdot^1 pairing with the
dealiased cubic, and the space-time L^6 mass. The energy identity reads
the first two.

Apart from the three RK4 stage evaluations of a step (`nonlinear_term`,
one `spectral.band_inverse` and one `band_forward` each), each solver
state computes its transforms at most once, on first use, and caches them
in one result, `SolverState.rates()` (`diagnostics` lists which record
field reads which): one dealiased inverse transform of the field, its
cube, and, for a nonlinear state, one dealiased forward transform of the
cube. This gives:

  * sup |u| for the stability bound and h^4 sum u^4, both of the
    dealiased field, taken before it is cubed;
  * the step-endpoint integrands: Hdot^2 dissipation, L^6 mass as
    cube * cube, and the Hdot^1 pairing with the dealiased cubic, which is
    0 for a linear state, whose equation has no cubic;
  * the dealiased cubic as a full half spectrum, whose band is the first
    RK4 stage of the next step.

The solver advances the 2/3-truncated system: a mode outside the band
follows the heat flow and never enters the cubic, so the field the cubic
sees, and the one whose sup and L^4 mass a state reports, is the
dealiased field. For a field with no mode outside the band (a power law
cut off inside it) that is bit for bit the full field (see `spectral`);
for a bump or a file datum it differs from the full field by the modes
the rule discards.

Powers of the field are products (v * v * v), never the generic `pow`;
the cube is built in place (v * v, then *= v) and u^6 is its in-place
square.

The dt stability bound is 1.5 / max(||u||_inf^2, dxi^2) with a safety
factor 0.5 (`stable_dt`), re-evaluated every `_RECHECK_EVERY` = 100 steps
while advancing. At sup |u| = 0 it is 0.75 / dxi^2, the longest step.

Checkpoint format (little-endian) of a file datum, which always starts at
t = 0: the header's t and step count are recorded, not resumed, and
`load_checkpoint` returns the field only.

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
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .spectral import (
    NonFiniteField,
    PhysicalField,
    SpectralField,
    TorusGrid,
    band_forward,
    band_inverse,
    gather_band,
    heat_multiplier,
    l4_fourth,
    sobolev_inner,
    sobolev_norm_sq,
    scatter_band,
    transform_forward,
)

CHECKPOINT_MAGIC = b"CRITHEAT"
_HEADER = struct.Struct("<8sQddQ")

_RECHECK_EVERY = 100


class BlowUpSuspected(RuntimeError):
    """Raised when stepping produces non-finite values; carries the last valid state."""

    def __init__(self, last_state: "SolverState"):
        super().__init__(
            f"non-finite values at t={last_state.t:.6g} after {last_state.step_count} steps; "
            "blow-up suspected"
        )
        self.last_state = last_state


@dataclass(frozen=True)
class Rates:
    """sup |u| and h^4 sum u^4 of the dealiased field, the step-endpoint
    integrands, and the dealiased cubic (None for a linear state).
    """

    sup: float
    l4_fourth: float
    dissipation: float
    pairing: float
    l6: float
    nl_hat: np.ndarray | None


@dataclass
class SolverState:
    t: float
    u_hat: SpectralField
    nonlinear: bool
    step_count: int = 0
    dissipation_integral: float = 0.0
    pairing_integral: float = 0.0
    l6_integral: float = 0.0
    _rates: Rates | None = dataclass_field(default=None, init=False, repr=False)

    def rates(self) -> Rates:
        """The state's step-endpoint rates, computed on first use.

        A linear state takes its Hdot^2 density before its dealiased
        inverse: it has no cube to transform and the heat flow cannot blow
        up, so the density's temporaries come and go before the field and
        its cube are allocated. A nonlinear state transforms its cube first
        (see below). sup |u| and h^4 sum u^4 are read from the dealiased
        field before it is cubed; an overflowing u^4 is left as inf.
        """
        if self._rates is None:
            grid = self.u_hat.grid
            if not self.nonlinear:
                diss = sobolev_norm_sq(self.u_hat, 2.0)
            field = band_inverse(gather_band(self.u_hat.coefficients), grid)
            sup = float(max(field.values.max(), -field.values.min()))
            with np.errstate(over="ignore"):
                l4 = l4_fourth(field)
            cube = _cube(field.values)
            del field
            nl = None
            if self.nonlinear:
                # first the transform, whose finiteness check names a blow-up
                # before the Hdot^2 density of a huge field overflows
                nl = transform_forward(PhysicalField(grid, cube), dealiased=True)
            with np.errstate(over="ignore"):
                cube *= cube  # u^6, bit for bit cube * cube
                l6 = float(grid.spacing**4 * np.sum(cube))
            if nl is None:
                self._rates = Rates(sup, l4, diss, 0.0, l6, None)
            else:
                diss = sobolev_norm_sq(self.u_hat, 2.0)
                pair = sobolev_inner(self.u_hat, nl, 1.0)
                self._rates = Rates(sup, l4, diss, pair, l6, nl.coefficients)
        return self._rates


def heat_propagate(u_hat: SpectralField, t: float) -> SpectralField:
    """Exact heat semigroup: multiply by e^{-t |xi|^2}."""
    return SpectralField(u_hat.grid, u_hat.coefficients * heat_multiplier(u_hat.grid, t))


def _cube(v: np.ndarray) -> np.ndarray:
    """v^3 in one new array, bit for bit v * v * v; overflow is left as inf."""
    with np.errstate(over="ignore"):
        cube = v * v
        cube *= v
    return cube


def nonlinear_term(band: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The dealiased cubic on the compact 2/3 band: the band of u^3, u the inverse of `band`."""
    cube = _cube(band_inverse(band, grid).values)
    return band_forward(PhysicalField(grid, cube))


def initial_state(u0_hat: SpectralField, nonlinear: bool = True) -> SolverState:
    """The state at t = 0, with its one finiteness check; it shares the datum read-only."""
    if not np.all(np.isfinite(u0_hat.coefficients)):
        raise NonFiniteField("non-finite coefficients in the initial datum")
    coeffs = u0_hat.coefficients.view()
    coeffs.flags.writeable = False
    return SolverState(
        t=0.0,
        u_hat=SpectralField(u0_hat.grid, coeffs),
        nonlinear=nonlinear,
    )


def step(
    state: SolverState,
    dt: float,
    forcing: Callable[[float], np.ndarray] | None = None,
) -> SolverState:
    """One integrating-factor RK4 step of u_t = Delta u + u^3 [+ forcing].

    The optional forcing is a verification hook: a callable t -> spectral
    coefficients added to the nonlinear right-hand side (manufactured
    solutions); a linear state, stepped by the heat factor alone, takes none.
    Its out-of-band part is the caller's to keep finite: no transform reads it.

    The old state is read, never written. A linear step drops its own
    references to it before the new state's rates run, so it is freed
    there when the caller handed it over (as `advance` does); a caller that
    keeps a reference sees it unchanged.
    """
    if forcing is not None and not state.nonlinear:
        raise ValueError("a forcing needs a nonlinear state; a linear step is exact")
    grid = state.u_hat.grid
    u = state.u_hat.coefficients

    try:
        old = state.rates()
        if state.nonlinear:
            # the stages are dealiased cubics: they run on the compact band
            e1 = heat_multiplier(grid, 0.5 * dt)
            e1_band = gather_band(e1)
            e2_band = e1_band * e1_band  # bit for bit the band of e1 * e1
            u_band = gather_band(u)
            a = gather_band(old.nl_hat)
            f_start = f_mid = f_end = None
            if forcing is not None:
                f_start, f_mid, f_end = (forcing(state.t + s * dt) for s in (0.0, 0.5, 1.0))
                a += gather_band(f_start)

            def rhs(band: np.ndarray, f: np.ndarray | None) -> np.ndarray:
                out = nonlinear_term(band, grid)
                return out if f is None else out + gather_band(f)

            b = rhs(e1_band * (u_band + 0.5 * dt * a), f_mid)
            c = rhs(e1_band * u_band + 0.5 * dt * b, f_mid)
            d = rhs(e2_band * u_band + dt * e1_band * c, f_end)
            # out of the band every stage is zero, so the update there is
            # e2 * u plus the forcing's part; in the band it is scattered in
            e2 = e1 * e1
            new_coeffs = e2 * u
            if forcing is not None:
                new_coeffs += (dt / 6.0) * (e2 * f_start + 2.0 * e1 * (f_mid + f_mid) + f_end)
            update = e2_band * u_band + (dt / 6.0) * (e2_band * a + 2.0 * e1_band * (b + c) + d)
            scatter_band(update, new_coeffs)
            # the bands are not held while the new state's rates run; the
            # factors are (see the module docstring)
            del e1_band, e2_band, u_band, a, b, c, d, update
        else:
            factor = heat_multiplier(grid, 0.5 * dt)
            factor *= factor  # e^{-dt |xi|^2}, bit for bit e1 * e1
            new_coeffs = factor * u
            del factor  # not held while the new state's rates run

        new_state = SolverState(
            t=state.t + dt,
            u_hat=SpectralField(grid, new_coeffs),
            step_count=state.step_count + 1,
            dissipation_integral=state.dissipation_integral,
            pairing_integral=state.pairing_integral,
            l6_integral=state.l6_integral,
            nonlinear=state.nonlinear,
        )
        if state.nonlinear:
            new_state.rates()
    except NonFiniteField as exc:
        raise BlowUpSuspected(state) from exc
    # the heat flow cannot blow up: a linear state's rates run with the old
    # state released, unless the caller holds it (see the module docstring)
    del state, u
    new = new_state.rates()
    half_dt = 0.5 * dt
    new_state.dissipation_integral += half_dt * (old.dissipation + new.dissipation)
    new_state.pairing_integral += half_dt * (old.pairing + new.pairing)
    new_state.l6_integral += half_dt * (old.l6 + new.l6)
    return new_state


def stable_dt(grid: TorusGrid, sup: float) -> float:
    """Largest admissible dt of a field with sup |u| = sup, 0.5 * 1.5 / max(sup^2, dxi^2)."""
    return 0.5 * 1.5 / max(sup**2, grid.frequency_spacing**2)


def stability_bound(state: SolverState) -> float:
    """Largest admissible dt of the state, `stable_dt` of its dealiased field's sup |u|."""
    return stable_dt(state.u_hat.grid, state.rates().sup)


def reached(t: float | np.ndarray, t_target: float | np.ndarray) -> bool | np.ndarray:
    """Whether time t has reached t_target, to within 1e-12 max(1, t_target).

    `advance` steps no further once it holds; elementwise on arrays.
    """
    return t_target - t <= 1e-12 * np.maximum(1.0, t_target)


def advance(
    state: SolverState, times: Iterable[float], dt_max: float
) -> Iterator[SolverState]:
    """Step through the increasing snapshot times, yielding the state at each.

    Each interval is taken in equal substeps of at most min(dt_max, bound);
    the stability bound is re-evaluated every `_RECHECK_EVERY` steps. A
    snapshot time already `reached` yields the state unstepped. Each
    yielded time is snapped to its target to avoid float drift.

    The generator is the one owner of the state it steps, and hands it
    over to `step`: a caller that drops a yielded state before asking for
    the next one leaves only the step's old and new states alive, and only
    the new one while a linear step's new rates run.
    """
    for t_target in times:
        while not reached(state.t, t_target):
            remaining = t_target - state.t
            dt_eff = min(dt_max, stability_bound(state))
            n_sub = max(1, math.ceil(remaining / dt_eff - 1e-12))
            dt = remaining / n_sub
            for _ in range(min(n_sub, _RECHECK_EVERY)):
                # hand the state over, so that the step holds its only reference
                held = [state]
                del state
                state = step(held.pop(), dt)
        state.t = t_target
        yield state


@dataclass
class DuhamelSample:
    """A snapshot with its stored nonlinear term, for the mild-solution check."""

    t: float
    u_hat: np.ndarray
    nl_hat: np.ndarray


def duhamel_sample(state: SolverState) -> DuhamelSample:
    u, nl = state.u_hat.coefficients, state.rates().nl_hat
    return DuhamelSample(state.t, u.copy(), np.zeros_like(u) if nl is None else nl.copy())


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


def load_checkpoint(path: str | Path) -> PhysicalField:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"truncated checkpoint header in {path}")
        magic, n, length, _, _ = _HEADER.unpack(raw)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r} in {path}")
        grid = TorusGrid(int(n), float(length))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n**4:
        raise ValueError(
            f"checkpoint payload has {data.size} values, expected {n**4}"
        )
    values = np.ascontiguousarray(data.reshape(grid.shape)).astype(float)
    return PhysicalField(grid, values)
