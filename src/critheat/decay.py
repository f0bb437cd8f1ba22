"""Decay indicator, decay character, and the radial linear-flow oracle.

The decay character r* of an L^2 datum measures the power-law order of
its Fourier transform at the origin, |v0_hat(xi)| ~ |xi|^{r*} as xi -> 0.
It is defined through the decay indicator

    P_r = lim_{rho -> 0} rho^{-2r-n} S(rho),
    S(rho) = integral over the ball B(rho) of |v0_hat|^2,

with r* the unique r in (-n/2, inf) making the limit finite and positive.
For radial data S reduces to a 1D shell integral,

    S(rho) = omega_{n-1} int_0^rho a(sigma)^2 sigma^{n-1} dsigma,

which this module evaluates by the trapezoid rule in log sigma on
log-spaced nodes, plus an analytic head for the interval below the first
node (local power-law continuation). The limit rho -> 0 is replaced by a
windowed log-log slope over the smallest sampled decades; r* = (slope - n)/2.
When the slope drifts monotonically as the window shrinks there is no
stable limit and the degenerate sentinels -n/2 / +inf are reported.

The linear oracle evolves a radial profile under a scalar dissipative
symbol -c |xi|^{2 alpha} and returns squared L^2 norms

    ||v(t)||^2 = (2 pi)^{-n} omega_{n-1} int a(rho)^2 e^{-2 c t rho^{2 alpha}}
                 rho^{n-1} drho,

whose large-time log-log slope is -(1/alpha)(n/2 + r*).

For lattice data the same construction runs over discrete frequency
shells; the fit models the cumulative shell mass with the lattice's own
|xi|^{2q} sums, so pure power-law data is recovered exactly regardless of
low-shell lattice lumpiness. Shells are integrated whole, which matches
the ball integral in the definition; strongly anisotropic data gets no
special treatment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gamma as _gamma

from .spectral import SpectralField, TorusGrid

R_STAR_LOWER_SENTINEL = "lower"  # P_r = inf for all r: r* = -n/2
R_STAR_UPPER_SENTINEL = "upper"  # P_r = 0 for all r: r* = +inf


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (omega_3 = 2 pi^2)."""
    return float(2.0 * np.pi ** (n / 2.0) / _gamma(n / 2.0))


@dataclass(frozen=True)
class DissipationSymbol:
    """Scalar dissipative symbol -c |xi|^{2 alpha}."""

    c: float = 1.0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


@dataclass
class RadialProfile:
    """Radial Fourier amplitude rho -> |v_hat(rho)| on log-spaced nodes."""

    dimension: int
    nodes: np.ndarray
    amplitudes: np.ndarray
    rule: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.nodes.ndim != 1 or self.nodes.size < 3:
            raise ValueError("need at least 3 radial nodes")
        if np.any(self.nodes <= 0) or np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing and positive")
        if self.amplitudes.shape != self.nodes.shape:
            raise ValueError("amplitudes must match nodes")
        if np.any(~np.isfinite(self.amplitudes)) or np.any(self.amplitudes < 0):
            raise ValueError("amplitudes must be finite and nonnegative")

    def l2_mass_sq(self) -> float:
        """Squared L^2 mass (2 pi)^{-n} omega_{n-1} int a^2 rho^{n-1} drho."""
        return radial_linear_evolution(self, DissipationSymbol(), [0.0])[0]


@dataclass(frozen=True)
class DecayCharacterEstimate:
    """Fitted decay character with its window and fit residual.

    `r_star` is finite for the regular case; the degenerate cases carry
    -n/2 or +inf together with a `sentinel` tag.
    """

    r_star: float
    fit_window: tuple[float, float]
    slope_residual: float
    sentinel: str | None = None

    def __post_init__(self) -> None:
        if self.slope_residual < 0:
            raise ValueError("slope_residual must be nonnegative")


def log_nodes(rho_min: float, decades: float, nodes_per_decade: int = 64) -> np.ndarray:
    """Log-spaced radial nodes spanning `decades` decades from rho_min."""
    if decades < 8:
        raise ValueError(f"profiles must span at least 8 decades, got {decades}")
    count = int(round(nodes_per_decade * decades)) + 1
    return 10.0 ** np.linspace(np.log10(rho_min), np.log10(rho_min) + decades, count)


def power_law_profile(
    r: float,
    dimension: int = 4,
    rho_min: float = 1e-8,
    cutoff: float = 1.0,
    nodes_per_decade: int = 64,
) -> RadialProfile:
    """Profile a(rho) = rho^r supported on [rho_min, cutoff] (L^2 needs r > -n/2).

    The nodes stop exactly at the cutoff so quadrature never straddles the
    jump to zero.
    """
    decades = np.log10(cutoff / rho_min)
    nodes = log_nodes(rho_min, decades, nodes_per_decade)
    return RadialProfile(dimension, nodes, nodes**r, rule=lambda s: np.where(s <= cutoff, s**r, 0.0))


def gaussian_profile(
    dimension: int = 4,
    rho_min: float = 1e-6,
    decades: float = 8.0,
    nodes_per_decade: int = 64,
) -> RadialProfile:
    """Fourier amplitude of exp(-|x|^2/2): a(rho) = (2 pi)^{n/2} exp(-rho^2/2)."""
    nodes = log_nodes(rho_min, decades, nodes_per_decade)
    amp0 = (2.0 * np.pi) ** (dimension / 2.0)
    amps = amp0 * np.exp(-(nodes**2) / 2.0)
    return RadialProfile(dimension, nodes, amps, rule=lambda s: amp0 * np.exp(-(s**2) / 2.0))


def _head_mass(profile: RadialProfile) -> float:
    """Analytic shell mass below the first node via local power continuation."""
    n = profile.dimension
    a0, a1 = profile.amplitudes[:2]
    if a0 <= 0 or a1 <= 0:
        return 0.0
    r0, r1 = profile.nodes[:2]
    local = np.log(a1 / a0) / np.log(r1 / r0)
    if 2 * local + n <= 1e-9:
        # head integral diverges; leave it to the sentinel detection
        return 0.0
    return float(a0**2 * r0**n / (2 * local + n))


def _shell_mass_cumulative(profile: RadialProfile) -> np.ndarray:
    """S(rho_j) at every node: head + trapezoid in log sigma of a^2 sigma^n."""
    n = profile.dimension
    u = np.log(profile.nodes)
    integrand = profile.amplitudes**2 * profile.nodes**n
    partial = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(u))]
    )
    return sphere_area(n) * (partial + _head_mass(profile))


def shell_mass(profile: RadialProfile, rho: float) -> float:
    """S(rho) = omega_{n-1} int_0^rho a(sigma)^2 sigma^{n-1} dsigma."""
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
    n = profile.dimension
    du = np.log(rho / nodes[j])
    piece = 0.5 * (profile.amplitudes[j] ** 2 * nodes[j] ** n + a_rho**2 * rho**n) * du
    return float(cum[j] + sphere_area(n) * piece)


def decay_indicator(profile: RadialProfile, r: float, rho: float) -> float:
    """Pre-limit indicator P_r(rho) = rho^{-2r-n} S(rho)."""
    n = profile.dimension
    if r <= -n / 2.0:
        raise ValueError(f"r must exceed -n/2 = {-n / 2.0}, got {r}")
    return float(rho ** (-2.0 * r - n) * shell_mass(profile, rho))


def _window_slope(nodes, mass, rho_max) -> tuple[float, float] | None:
    sel = (mass > 0) & (nodes <= rho_max)
    if np.count_nonzero(sel) < 3:
        return None
    x, y = np.log(nodes[sel]), np.log(mass[sel])
    slope, icpt = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + icpt)) ** 2)))
    return float(slope), resid


def estimate_decay_character(
    profile: RadialProfile,
    window_decades: float = 2.0,
    drift_tol: float = 0.5,
) -> DecayCharacterEstimate:
    """Estimate r* = (slope - n)/2 from the lowest sampled decades of S(rho).

    Two degenerate paths short-circuit to sentinels: a local power at the
    origin with 2m + n <= 0 means the shell integral diverges (P_r infinite
    for every r, the -n/2 case); and widening the window by one decade twice
    probing the slope, monotone drift beyond `drift_tol` per decade means no
    stable limit (the +inf case when the slope runs away upward).
    """
    n = profile.dimension
    amps = profile.amplitudes
    if amps[0] > 0 and amps[2] > 0:
        local_m = np.log(amps[2] / amps[0]) / np.log(profile.nodes[2] / profile.nodes[0])
        if 2 * local_m + n <= 0:
            # the shell integral diverges at the origin: P_r infinite for all r
            window = (float(profile.nodes[0]), float(profile.nodes[0] * 10.0**window_decades))
            return DecayCharacterEstimate(-n / 2.0, window, 0.0, R_STAR_LOWER_SENTINEL)
    mass = _shell_mass_cumulative(profile)
    if mass[-1] <= 0:
        raise ValueError("zero shell mass throughout the profile")
    positive = profile.nodes[mass > 0]
    rho_lo = positive[0]
    window = (float(rho_lo), float(rho_lo * 10.0**window_decades))
    base = _window_slope(profile.nodes, mass, window[1])
    if base is None:
        raise ValueError("fewer than 3 nodes with positive mass inside the fit window")
    slope, resid = base
    slopes = [slope]
    for extra in (1.0, 2.0):
        wider = _window_slope(profile.nodes, mass, window[1] * 10.0**extra)
        if wider is not None:
            slopes.append(wider[0])
    if len(slopes) == 3:
        d1, d2 = slopes[0] - slopes[1], slopes[1] - slopes[2]
        if d1 > drift_tol and d2 > drift_tol:
            return DecayCharacterEstimate(np.inf, window, resid, R_STAR_UPPER_SENTINEL)
        if d1 < -drift_tol and d2 < -drift_tol:
            return DecayCharacterEstimate(-n / 2.0, window, resid, R_STAR_LOWER_SENTINEL)
    r_star = (slope - n) / 2.0
    if r_star <= -n / 2.0:
        return DecayCharacterEstimate(-n / 2.0, window, resid, R_STAR_LOWER_SENTINEL)
    return DecayCharacterEstimate(float(r_star), window, resid)


def classify_lp(p: float, n: int) -> float:
    """Decay character of an L^p datum, 1 < p < 2: r* = -n (1 - 1/p)."""
    if not 1 < p < 2:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    return -n * (1.0 - 1.0 / p)


def classify_weighted(gamma: float, zero_mean: bool) -> float:
    """Decay character of a weighted-L^1 datum: gamma if zero-mean else 0."""
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return float(gamma) if zero_mean else 0.0


def linear_decay_exponent(r_star: float, sym: DissipationSymbol, n: int) -> float:
    """Exponent of the squared L^2 norm under the linear flow: (1/alpha)(n/2 + r*)."""
    if r_star <= -n / 2.0:
        raise ValueError(f"r_star must exceed -n/2 = {-n / 2.0}, got {r_star}")
    return (1.0 / sym.alpha) * (n / 2.0 + r_star)


def radial_linear_evolution(
    profile: RadialProfile, sym: DissipationSymbol, times: Sequence[float]
) -> list[float]:
    """Squared L^2 norms of the linear flow at the given times (1D quadrature)."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("need at least one time")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be nonnegative and nondecreasing")
    if np.all(profile.amplitudes == 0):
        raise ValueError("empty profile")
    n = profile.dimension
    u = np.log(profile.nodes)
    base = profile.amplitudes**2 * profile.nodes**n
    const = (2.0 * np.pi) ** -n * sphere_area(n)
    out = []
    for t in times:
        integrand = base * np.exp(-2.0 * sym.c * t * profile.nodes ** (2 * sym.alpha))
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


def synthesize_datum(
    grid: TorusGrid, r: float, cutoff_rho: float, amplitude: float
) -> SpectralField:
    """Spectral datum with |u0_hat| = amplitude |xi|^{r-1} chi(|xi|/cutoff_rho).

    The half-Laplacian profile then scales as |xi| |u0_hat| ~ |xi|^r near 0,
    i.e. the datum has prescribed q* = r. Coefficients are real and radial
    (hence Hermitian-symmetric) with zero mean.
    """
    if r <= -2:
        raise ValueError(f"profile exponent must exceed -2, got r={r}")
    if not 0 < cutoff_rho <= grid.axis_nyquist:
        raise ValueError(
            f"cutoff_rho={cutoff_rho} must lie in (0, {grid.axis_nyquist:.4g}] "
            "(axis Nyquist)"
        )
    mag = grid.xi_mag
    with np.errstate(divide="ignore"):
        radial = np.where(mag > 0, mag, 1.0) ** (r - 1.0)
    coeffs = amplitude * radial * smooth_cutoff(mag / cutoff_rho)
    coeffs[0, 0, 0, 0] = 0.0
    return SpectralField(grid, coeffs.astype(complex))


def estimate_decay_character_grid(
    field: SpectralField,
    weight_power: float = 1.0,
    rho_max: float | None = None,
    q_bounds: tuple[float, float] = (-1.99, 6.0),
) -> DecayCharacterEstimate:
    """Decay character of |xi|^weight_power * v_hat from lattice shells.

    Cumulative shell masses S(rho_m) over the resolved low shells are
    matched against the lattice model A * sum_{|xi| <= rho_m} |xi|^{2q},
    minimizing the log-residual variance over q. weight_power = 1 measures
    q* of the half-Laplacian of the field.
    """
    grid = field.grid
    if rho_max is None:
        rho_max = grid.axis_nyquist / 4.0
    mags = grid.xi_mag.ravel()
    weights = (mags**weight_power * np.abs(field.coefficients.ravel())) ** 2
    sel = (mags > 0) & (mags <= rho_max)
    mags, weights = mags[sel], weights[sel]
    if mags.size == 0:
        raise ValueError(f"no lattice shells below rho_max={rho_max}")
    order = np.argsort(mags, kind="stable")
    mags, weights = mags[order], weights[order]
    shell_radii, inverse = np.unique(np.round(mags, 10), return_inverse=True)
    mass_acc = np.zeros(len(shell_radii))
    np.add.at(mass_acc, inverse, weights)
    mass = np.cumsum(mass_acc)
    if mass[-1] <= 0:
        raise ValueError("zero shell mass below rho_max")
    keep = mass > 0
    log_mass = np.log(mass[keep])

    def cost(q: float) -> float:
        model_acc = np.zeros(len(shell_radii))
        np.add.at(model_acc, inverse, mags ** (2.0 * q))
        resid = log_mass - np.log(np.cumsum(model_acc)[keep])
        return float(np.var(resid))

    res = minimize_scalar(cost, bounds=q_bounds, method="bounded")
    window = (float(shell_radii[keep][0]), float(rho_max))
    return DecayCharacterEstimate(float(res.x), window, float(np.sqrt(res.fun)))
