"""Discrete 4D periodic Fourier analysis.

Fields live on the torus [0, L)^4 sampled at N points per axis. The
spectral convention carries the physical volume element so lattice
coefficients approximate the continuum transform:

    v_hat(k) = h^4 * sum_x v(x) exp(-i xi_k . x),      h = L/N,
    v(x)     = L^{-4} * sum_k v_hat(k) exp(+i xi_k . x),

with frequencies xi_k = (2 pi / L) k, k in {-N/2, ..., N/2 - 1}^4 in FFT
ordering. Under this convention the discrete Plancherel identity

    h^4 sum_x |v|^2 = (2 pi)^{-4} dxi^4 sum_k |v_hat|^2

holds exactly, and homogeneous Sobolev norms are

    ||v||_{Hdot^s}^2 = (2 pi)^{-4} dxi^4 sum_k |xi_k|^{2s} |v_hat_k|^2.

Multipliers are radial symbols m(|xi|); every symbol this package uses
(|xi|^s, heat kernel) is even in xi, so the unpaired Nyquist index
k = -N/2 can be retained safely. The |xi|^s symbol maps the xi = 0
coefficient to 0 for s > 0 and rejects s < 0 unless the mean vanishes.

Transforms run through scipy.fft so a worker count can be set once per
process (`set_fft_workers`); results are bit-identical across worker
counts and all reductions are fixed-order numpy sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.fft as _fft

_fft_workers = 1


class NonFiniteField(ValueError):
    """A field holds NaN or infinity (overflow guard)."""


def set_fft_workers(workers: int) -> None:
    """Set the scipy.fft worker count used by all transforms."""
    global _fft_workers
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    _fft_workers = int(workers)


def get_fft_workers() -> int:
    return _fft_workers


@dataclass(frozen=True)
class TorusGrid:
    """The discrete 4D periodic computational domain and its frequency lattice."""

    points_per_dim: int
    side_length: float

    def __post_init__(self) -> None:
        n, length = self.points_per_dim, self.side_length
        if n % 2 != 0 or n < 16:
            raise ValueError(f"points_per_dim must be even and >= 16, got {n}")
        if not length > 0:
            raise ValueError(f"side_length must be positive, got {length}")

    @property
    def spacing(self) -> float:
        """Lattice spacing h = L/N."""
        return self.side_length / self.points_per_dim

    @property
    def frequency_spacing(self) -> float:
        """dxi = 2 pi / L."""
        return 2.0 * np.pi / self.side_length

    @property
    def axis_nyquist(self) -> float:
        """Largest |xi_i| on one axis, pi N / L."""
        return np.pi * self.points_per_dim / self.side_length

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.points_per_dim,) * 4

    @cached_property
    def x_axis(self) -> np.ndarray:
        """Physical points along one axis, x_j = j h."""
        return self.spacing * np.arange(self.points_per_dim)

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Integer frequency indices in FFT order."""
        return np.fft.fftfreq(self.points_per_dim, 1.0 / self.points_per_dim)

    @cached_property
    def xi_axis(self) -> np.ndarray:
        """Frequencies along one axis in FFT order."""
        return self.frequency_spacing * self.k_axis

    @cached_property
    def xi_mag(self) -> np.ndarray:
        """|xi| over the full frequency lattice (N^4 array)."""
        sq = self.xi_axis**2
        return np.sqrt(
            sq[:, None, None, None]
            + sq[None, :, None, None]
            + sq[None, None, :, None]
            + sq[None, None, None, :]
        )

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask of modes kept by the 2/3 rule (|k_i| <= N/3 per axis)."""
        keep = np.abs(self.k_axis) <= self.points_per_dim / 3.0
        return (
            keep[:, None, None, None]
            & keep[None, :, None, None]
            & keep[None, None, :, None]
            & keep[None, None, None, :]
        )


@dataclass
class PhysicalField:
    """A real-valued solution snapshot on the lattice."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )


@dataclass
class SpectralField:
    """A solution snapshot in frequency representation (full complex lattice)."""

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        if self.coefficients.shape != self.grid.shape:
            raise ValueError(
                f"coefficients shape {self.coefficients.shape} does not match grid "
                f"shape {self.grid.shape}"
            )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coefficients.copy())


def _require_same_grid(a: TorusGrid, b: TorusGrid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


def transform_forward(field: PhysicalField) -> SpectralField:
    """Forward transform, v_hat = h^4 FFT(v)."""
    if not np.all(np.isfinite(field.values)):
        raise NonFiniteField("non-finite values in physical field")
    coeffs = field.grid.spacing**4 * _fft.fftn(field.values, workers=_fft_workers)
    return SpectralField(field.grid, coeffs)


def transform_inverse(field: SpectralField, imag_tol: float = 1e-8) -> PhysicalField:
    """Inverse transform back to a real physical field.

    The imaginary residue is checked against `imag_tol` times the field
    magnitude; a violation means the input was not Hermitian-symmetric.
    """
    if not np.all(np.isfinite(field.coefficients)):
        raise NonFiniteField("non-finite coefficients in spectral field")
    vals = _fft.ifftn(field.coefficients, workers=_fft_workers) / field.grid.spacing**4
    scale = np.max(np.abs(vals.real))
    imag = np.max(np.abs(vals.imag))
    if imag > imag_tol * max(scale, 1e-300):
        raise ValueError(
            f"imaginary residue {imag:.3e} exceeds {imag_tol:.1e} x field scale {scale:.3e}; "
            "input is not Hermitian-symmetric"
        )
    return PhysicalField(field.grid, np.ascontiguousarray(vals.real))


def hermitian_defect(field: SpectralField) -> float:
    """max_k |v_hat(-k) - conj(v_hat(k))|, zero for real-data fields."""
    c = field.coefficients
    rev = c
    for ax in range(4):
        rev = np.roll(np.flip(rev, axis=ax), 1, axis=ax)
    return float(np.max(np.abs(rev - np.conj(c))))


def apply_multiplier(
    field: SpectralField, symbol: Callable[[np.ndarray], np.ndarray]
) -> SpectralField:
    """Apply a radial Fourier multiplier m(|xi|) coefficientwise.

    The symbol receives the |xi| lattice (N^4 array) and must return finite
    values everywhere, including |xi| = 0; symbols singular at the origin
    must supply their own rule there (see `sobolev_multiplier`).
    """
    m = np.asarray(symbol(field.grid.xi_mag))
    if not np.all(np.isfinite(m)):
        raise ValueError("multiplier symbol is non-finite at some lattice point")
    return SpectralField(field.grid, field.coefficients * m)


def sobolev_multiplier(grid: TorusGrid, s: float) -> np.ndarray:
    """|xi|^s over the lattice with the xi = 0 coefficient mapped to 0 (s != 0)."""
    if s == 0:
        return np.ones(grid.shape)
    with np.errstate(divide="ignore"):
        m = np.where(grid.xi_mag > 0, grid.xi_mag, 1.0) ** s
    m[0, 0, 0, 0] = 0.0
    return m


def heat_multiplier(grid: TorusGrid, t: float) -> np.ndarray:
    """Heat kernel symbol exp(-t |xi|^2)."""
    if t < 0:
        raise ValueError(f"heat multiplier requires t >= 0, got {t}")
    return np.exp(-t * grid.xi_mag**2)


def dealias(field: SpectralField) -> SpectralField:
    """Zero all modes with any |k_i| > N/3 (2/3 rule, idempotent)."""
    return SpectralField(field.grid, field.coefficients * field.grid.dealias_mask)


def sobolev_norm_sq(field: SpectralField, s: float) -> float:
    """Squared homogeneous Sobolev norm ||v||_{Hdot^s}^2.

    s = 0 recovers the squared L^2 norm by Plancherel. For s < 0 the mean
    coefficient must vanish (relative to the field scale).
    """
    grid = field.grid
    c = field.coefficients
    if s < 0:
        mean = np.abs(c[0, 0, 0, 0])
        scale = max(np.max(np.abs(c)), 1e-300)
        if mean > 1e-13 * scale:
            raise ValueError(
                f"Hdot^s with s={s} < 0 requires a zero mean coefficient "
                f"(|v_hat(0)| = {mean:.3e})"
            )
    if s == 0:
        weighted = np.abs(c) ** 2
    else:
        weighted = sobolev_multiplier(grid, 2 * s) * np.abs(c) ** 2
    return float(
        (2 * np.pi) ** -4 * grid.frequency_spacing**4 * np.sum(weighted)
    )


def sobolev_inner(a: SpectralField, b: SpectralField, s: float) -> float:
    """Real Hdot^s inner product <a, b>_{Hdot^s} of real-data fields."""
    _require_same_grid(a.grid, b.grid)
    grid = a.grid
    prod = np.real(np.conj(a.coefficients) * b.coefficients)
    if s != 0:
        prod = prod * sobolev_multiplier(grid, 2 * s)
    return float((2 * np.pi) ** -4 * grid.frequency_spacing**4 * np.sum(prod))


def lebesgue_norm(field: PhysicalField, p: float) -> float:
    """Discrete L^p norm (h^4 sum |v|^p)^{1/p} for p in {2, 4, 6}.

    The field is real, so |v|^p is a product of v * v factors.
    """
    if p not in (2, 4, 6):
        raise ValueError(f"unsupported Lebesgue exponent p={p}; must be 2, 4 or 6")
    v = field.values
    sq = v * v
    power = sq if p == 2 else sq * sq if p == 4 else sq * sq * sq
    h4 = field.grid.spacing**4
    return float((h4 * np.sum(power)) ** (1.0 / p))
