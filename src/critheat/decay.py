"""Decay indicator, decay character, and the radial linear-flow oracle on R^4.

The decay character r* of an L^2(R^4) datum measures the power-law order
of its Fourier transform at the origin, |v0_hat(xi)| ~ |xi|^{r*} as
xi -> 0. It is defined through the decay indicator

    P_r = lim_{rho -> 0} rho^{-2r-4} S(rho),
    S(rho) = integral over the ball B(rho) of |v0_hat|^2,

with r* the unique r in (-2, inf) making the limit finite and positive.
For radial data S reduces to a 1D shell integral over the unit sphere
S^3, of area omega_3 = 2 pi^2,

    S(rho) = omega_3 int_0^rho a(sigma)^2 sigma^3 dsigma,

which this module evaluates by the trapezoid rule in log sigma on
log-spaced nodes, plus an analytic head for the interval below the first
node (local power-law continuation). The limit rho -> 0 is replaced by a
windowed log-log slope over the smallest sampled decades; r* = (slope - 4)/2.
When the slope drifts monotonically as the window shrinks there is no
stable limit, and the degenerate values r* = -2 (P_r infinite for every
r) or r* = +inf (P_r zero for every r) are reported. Profiles are sampled
at 64 nodes per decade: a power law on [1e-8, 1], stopping at its cutoff
1, and the Gaussian on the 8 decades from 1e-6.

The linear oracle evolves a radial profile under the dissipative symbol
-|xi|^{2 alpha} and returns squared L^2 norms

    ||v(t)||^2 = (2 pi)^{-4} omega_3 int a(rho)^2 e^{-2 t rho^{2 alpha}}
                 rho^3 drho,

whose large-time log-log slope is -(1/alpha)(2 + r*).

For lattice data the same construction runs over discrete frequency
shells; the fit models the cumulative shell mass with the lattice's own
|xi|^{2q} sums, so pure power-law data is recovered exactly regardless of
low-shell lattice lumpiness. Shells are integrated whole, which matches
the ball integral in the definition; strongly anisotropic data gets no
special treatment.

The lab's two synthetic torus data are built here at unit size, and
`experiments.build_datum` scales them: the power law |xi|^{r-1}
chi(|xi| / cutoff_rho) (`synthesize_datum`) and a mean-removed Gaussian
bump (`bump_datum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    sobolev_density,
    transform_forward,
)

# a radial profile's S(rho) slope is fitted over its lowest 2 sampled
# decades; if widening that window by a decade, twice, moves the slope by
# more than 0.5 both times in the same direction, there is no stable limit
_WINDOW_DECADES = 2.0
_DRIFT_TOL = 0.5

# search bounds of the lattice shell fit for q*
_Q_BOUNDS = (-1.99, 6.0)

# the dimension, and the area omega_3 of the unit sphere S^3 in R^4
_DIM = 4
_OMEGA_3 = 2.0 * np.pi**2

# radial sampling (see the module docstring)
_NODES_PER_DECADE = 64
_POWER_LAW_RHO_MIN, _POWER_LAW_CUTOFF = 1e-8, 1.0
_GAUSSIAN_RHO_MIN, _GAUSSIAN_DECADES = 1e-6, 8.0


@dataclass
class RadialProfile:
    """Radial Fourier amplitude rho -> |v_hat(rho)| of a datum on R^4, on log-spaced nodes."""

    nodes: np.ndarray
    amplitudes: np.ndarray


@dataclass(frozen=True)
class DecayCharacterEstimate:
    """Fitted decay character with its window and fit residual.

    `r_star` is finite for the regular case and -2 or +inf for the
    degenerate ones.
    """

    r_star: float
    fit_window: tuple[float, float]
    slope_residual: float


def log_nodes(rho_min: float, decades: float) -> np.ndarray:
    """Log-spaced radial nodes spanning `decades` decades from rho_min."""
    count = int(round(_NODES_PER_DECADE * decades)) + 1
    return 10.0 ** np.linspace(np.log10(rho_min), np.log10(rho_min) + decades, count)


def power_law_profile(r: float) -> RadialProfile:
    """Profile a(rho) = rho^r supported on [1e-8, 1] (L^2 needs r > -2).

    The nodes stop exactly at the cutoff so quadrature never straddles the
    jump to zero.
    """
    decades = np.log10(_POWER_LAW_CUTOFF / _POWER_LAW_RHO_MIN)
    nodes = log_nodes(_POWER_LAW_RHO_MIN, decades)
    return RadialProfile(nodes, nodes**r)


def gaussian_profile() -> RadialProfile:
    """Fourier amplitude of exp(-|x|^2/2): a(rho) = (2 pi)^2 exp(-rho^2/2)."""
    nodes = log_nodes(_GAUSSIAN_RHO_MIN, _GAUSSIAN_DECADES)
    amp0 = (2.0 * np.pi) ** (_DIM / 2.0)
    amps = amp0 * np.exp(-(nodes**2) / 2.0)
    return RadialProfile(nodes, amps)


def _head_mass(profile: RadialProfile) -> float:
    """Analytic shell mass below the first node via local power continuation."""
    a0, a1 = profile.amplitudes[:2]
    if a0 <= 0 or a1 <= 0:
        return 0.0
    r0, r1 = profile.nodes[:2]
    local = np.log(a1 / a0) / np.log(r1 / r0)
    if 2 * local + _DIM <= 1e-9:
        # head integral diverges; estimate_decay_character reports r* = -2
        return 0.0
    return float(a0**2 * r0**_DIM / (2 * local + _DIM))


def _shell_mass_cumulative(profile: RadialProfile) -> np.ndarray:
    """S(rho_j) at every node: head + trapezoid in log sigma of a^2 sigma^4."""
    u = np.log(profile.nodes)
    integrand = profile.amplitudes**2 * profile.nodes**_DIM
    partial = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(u))]
    )
    return _OMEGA_3 * (partial + _head_mass(profile))


def shell_mass(profile: RadialProfile, rho: float) -> float:
    """S(rho) = omega_3 int_0^rho a(sigma)^2 sigma^3 dsigma."""
    nodes = profile.nodes
    if not nodes[0] <= rho <= nodes[-1]:
        raise ValueError(
            f"rho={rho} outside sampled range [{nodes[0]:.3e}, {nodes[-1]:.3e}]"
        )
    cum = _shell_mass_cumulative(profile)
    j = int(np.searchsorted(nodes, rho, side="right")) - 1
    if j == len(nodes) - 1 or rho == nodes[j]:
        return float(cum[j])
    # partial interval [node_j, rho]: log-linear amplitude interpolation
    a_j, a_j1 = profile.amplitudes[j], profile.amplitudes[j + 1]
    if a_j > 0 and a_j1 > 0:
        frac = np.log(rho / nodes[j]) / np.log(nodes[j + 1] / nodes[j])
        a_rho = a_j * (a_j1 / a_j) ** frac
    else:
        frac = (rho - nodes[j]) / (nodes[j + 1] - nodes[j])
        a_rho = a_j + frac * (a_j1 - a_j)
    du = np.log(rho / nodes[j])
    piece = 0.5 * (profile.amplitudes[j] ** 2 * nodes[j] ** _DIM + a_rho**2 * rho**_DIM) * du
    return float(cum[j] + _OMEGA_3 * piece)


def decay_indicator(profile: RadialProfile, r: float, rho: float) -> float:
    """Pre-limit indicator P_r(rho) = rho^{-2r-4} S(rho)."""
    if r <= -_DIM / 2.0:
        raise ValueError(f"r must exceed -n/2 = {-_DIM / 2.0}, got {r}")
    return float(rho ** (-2.0 * r - _DIM) * shell_mass(profile, rho))


def _window_slope(nodes, mass, rho_max) -> tuple[float, float] | None:
    sel = (mass > 0) & (nodes <= rho_max)
    if np.count_nonzero(sel) < 3:
        return None
    x, y = np.log(nodes[sel]), np.log(mass[sel])
    slope, icpt = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + icpt)) ** 2)))
    return float(slope), resid


def estimate_decay_character(profile: RadialProfile) -> DecayCharacterEstimate:
    """Estimate r* = (slope - 4)/2 from the lowest sampled decades of S(rho).

    Two degenerate paths short-circuit: a local power at the origin with
    2m + 4 <= 0 means the shell integral diverges (P_r infinite for every
    r, r* = -2); and widening the window by one decade twice probing the
    slope, monotone drift beyond `_DRIFT_TOL` per decade means no stable
    limit (r* = +inf when the slope runs away upward).
    """
    amps = profile.amplitudes
    if amps[0] > 0 and amps[2] > 0:
        local_m = np.log(amps[2] / amps[0]) / np.log(profile.nodes[2] / profile.nodes[0])
        if 2 * local_m + _DIM <= 0:
            # the shell integral diverges at the origin: P_r infinite for all r
            window = (float(profile.nodes[0]), float(profile.nodes[0] * 10.0**_WINDOW_DECADES))
            return DecayCharacterEstimate(-_DIM / 2.0, window, 0.0)
    mass = _shell_mass_cumulative(profile)
    positive = profile.nodes[mass > 0]
    rho_lo = positive[0]
    window = (float(rho_lo), float(rho_lo * 10.0**_WINDOW_DECADES))
    slope, resid = _window_slope(profile.nodes, mass, window[1])
    slopes = [slope]
    for extra in (1.0, 2.0):
        wider = _window_slope(profile.nodes, mass, window[1] * 10.0**extra)
        if wider is not None:
            slopes.append(wider[0])
    if len(slopes) == 3:
        d1, d2 = slopes[0] - slopes[1], slopes[1] - slopes[2]
        if d1 > _DRIFT_TOL and d2 > _DRIFT_TOL:
            return DecayCharacterEstimate(np.inf, window, resid)
        if d1 < -_DRIFT_TOL and d2 < -_DRIFT_TOL:
            return DecayCharacterEstimate(-_DIM / 2.0, window, resid)
    r_star = (slope - _DIM) / 2.0
    return DecayCharacterEstimate(float(max(r_star, -_DIM / 2.0)), window, resid)


def classify_lp(p: float, n: int) -> float:
    """Decay character of an L^p datum, 1 < p < 2: r* = -n (1 - 1/p)."""
    return -n * (1.0 - 1.0 / p)


def classify_weighted(gamma: float, zero_mean: bool) -> float:
    """Decay character of a weighted-L^1 datum, 0 <= gamma <= 1: gamma if zero-mean else 0."""
    return float(gamma) if zero_mean else 0.0


def linear_decay_exponent(r_star: float, alpha: float) -> float:
    """Exponent of the squared L^2 norm under the linear flow: (1/alpha)(2 + r*), r* > -2."""
    return (1.0 / alpha) * (_DIM / 2.0 + r_star)


def radial_linear_evolution(
    profile: RadialProfile, alpha: float, times: Sequence[float]
) -> list[float]:
    """Squared L^2 norms of the flow of -|xi|^{2 alpha} at the given times (1D quadrature)."""
    u = np.log(profile.nodes)
    base = profile.amplitudes**2 * profile.nodes**_DIM
    const = (2.0 * np.pi) ** -_DIM * _OMEGA_3
    out = []
    for t in times:
        integrand = base * np.exp(-2.0 * t * profile.nodes ** (2 * alpha))
        out.append(const * float(np.trapezoid(integrand, u)))
    return out


def smooth_cutoff(s: np.ndarray) -> np.ndarray:
    """C-infinity bump: 1 on [0, 1/2], 0 on [1, inf), smooth in between."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s <= 0.5] = 1.0
    mid = (s > 0.5) & (s < 1.0)
    x = 2.0 * s[mid] - 1.0

    def f(y):
        return np.where(y > 0, np.exp(-1.0 / np.maximum(y, 1e-300)), 0.0)

    out[mid] = f(1.0 - x) / (f(1.0 - x) + f(x))
    return out


def synthesize_datum(grid: TorusGrid, r: float, cutoff_rho: float) -> SpectralField:
    """Unit-size spectral datum with |u0_hat| = |xi|^{r-1} chi(|xi|/cutoff_rho).

    The half-Laplacian profile then scales as |xi| |u0_hat| ~ |xi|^r near 0,
    i.e. the datum has prescribed q* = r. Coefficients are real, radial and
    zero-mean: the half spectrum of a real, even field. The power is taken
    only where chi > 0, so a large r cannot overflow where chi zeroes it.
    """
    mag = grid.xi_mag
    chi = smooth_cutoff(mag / cutoff_rho)
    support = (chi > 0) & (mag > 0)
    coeffs = np.zeros(grid.spectral_shape, dtype=complex)
    coeffs[support] = mag[support] ** (r - 1.0) * chi[support]
    return SpectralField(grid, coeffs)


def bump_datum(grid: TorusGrid) -> SpectralField:
    """Half spectrum of the unit bump exp(-|x - c|^2 / (2 w^2)) less its mean.

    Centred in the box, of width w = L/8; its mean-removed transform is
    flat off the origin, so the datum has q* = 1.
    """
    length = grid.side_length
    width = length / 8.0
    x = grid.x_axis - length / 2.0
    sq = x**2
    r2 = (
        sq[:, None, None, None]
        + sq[None, :, None, None]
        + sq[None, None, :, None]
        + sq[None, None, None, :]
    )
    bump = np.exp(-r2 / (2.0 * width**2))
    bump -= bump.mean()
    return transform_forward(PhysicalField(grid, bump))


def estimate_decay_character_grid(field: SpectralField, rho_max: float) -> DecayCharacterEstimate:
    """Decay character q* of |xi| v_hat, the half-Laplacian, from lattice shells.

    Cumulative shell masses S(rho_m) over the resolved low shells are
    matched against the lattice model A * sum_{|xi| <= rho_m} |xi|^{2q},
    minimizing the log-residual variance over q in `_Q_BOUNDS`. Both sums
    run over the full lattice: the masses sum the Hdot^1 density of
    `spectral.sobolev_density`, and the model counts each stored mode
    `TorusGrid.multiplicity` times.
    """
    grid = field.grid
    mags = grid.xi_mag.ravel()
    weights = sobolev_density(field, field, 1.0).ravel()
    counts = np.broadcast_to(grid.multiplicity, grid.xi_mag.shape).ravel()
    sel = (mags > 0) & (mags <= rho_max)
    mags, weights, counts = mags[sel], weights[sel], counts[sel]
    order = np.argsort(mags, kind="stable")
    mags, weights, counts = mags[order], weights[order], counts[order]
    shell_radii, inverse = np.unique(np.round(mags, 10), return_inverse=True)
    mass_acc = np.zeros(len(shell_radii))
    np.add.at(mass_acc, inverse, weights)
    mass = np.cumsum(mass_acc)
    keep = mass > 0
    log_mass = np.log(mass[keep])

    def cost(q: float) -> float:
        model_acc = np.zeros(len(shell_radii))
        np.add.at(model_acc, inverse, counts * mags ** (2.0 * q))
        resid = log_mass - np.log(np.cumsum(model_acc)[keep])
        return float(np.var(resid))

    # imported here: scipy.optimize loads scipy.linalg and OpenBLAS, which no other path needs
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(cost, bounds=_Q_BOUNDS, method="bounded")
    window = (float(shell_radii[keep][0]), float(rho_max))
    return DecayCharacterEstimate(float(res.x), window, float(np.sqrt(res.fun)))
