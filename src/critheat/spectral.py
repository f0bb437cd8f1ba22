"""Discrete 4D periodic Fourier analysis.

Fields live on the torus [0, L)^4 sampled at N points per axis. The
spectral convention carries the physical volume element so lattice
coefficients approximate the continuum transform:

    v_hat(k) = h^4 * sum_x v(x) exp(-i xi_k . x),      h = L/N,
    v(x)     = L^{-4} * sum_k v_hat(k) exp(+i xi_k . x),

with frequencies xi_k = (2 pi / L) k, k in {-N/2, ..., N/2 - 1}^4.

Every field is real, so v_hat(-k) = conj(v_hat(k)) and half of the
lattice repeats the other half. A `SpectralField` stores only the
real-to-complex half spectrum, an (N, N, N, N/2 + 1) array: FFT order
on the first three axes and k_4 = 0, ..., N/2 on the last. Realness then
holds by construction. The k_4 = 0 and k_4 = N/2 planes are their own
mirror images and stand for one full-lattice plane each; every other
stored plane also stands for its mirror k_4 -> -k_4. The last axis
therefore carries a multiplicity (`TorusGrid.multiplicity`), 1 on those
two planes and 2 elsewhere, and a full-lattice sum is the half-lattice
sum weighted by it. On the Nyquist plane k_4 = N/2 the stored index is
+N/2 where the full lattice lists -N/2; every symbol here is even in xi,
so the two agree.

With that weight the discrete Plancherel identity

    h^4 sum_x |v|^2 = (2 pi)^{-4} dxi^4 sum_k mult(k_4) |v_hat|^2

holds exactly, and homogeneous Sobolev norms and inner products sum one
density (`sobolev_density`):

    <a, b>_{Hdot^s} = (2 pi)^{-4} dxi^4 sum_k mult(k_4) |xi_k|^{2s} Re(conj(a_hat) b_hat).

The |xi|^s symbol (s != 0) maps the xi = 0 coefficient to 0, so for
s < 0 the norm is that of the field with its mean removed.

The 2/3 rule keeps the modes with every |k_i| <= N/3: the index ranges
[0, m] and [N - m, N) on each full axis and [0, m] on the half axis,
m = floor(N/3) (`_kept_band`, the rule's one definition). The compact
band (`_band_index`) holds only those modes, 22 % of a half spectrum at
N = 16 and 18 % at N = 32; `gather_band` and `scatter_band` copy it out
of and into a half-lattice array.

The FFTs are numpy.fft's 1D transforms, pocketfft as in scipy.fft. The
dealiased transforms run each 1D FFT pass only over the lines that hold
a kept mode, and return, bit for bit, what scipy.fft's full
`irfftn`/`rfftn` return on the masked input (the tests' oracle).
`band_inverse(gather_band(c))` is the one dealiased inverse of a half
spectrum c. `transform_forward(dealiased=True)` zeroes the discarded
modes of a half spectrum, and `band_forward` gathers h^4 times the kept
modes straight into a band. Bit identity rests on repeating pocketfft's
own order and scaling:

  * inverse: complex passes over axes 0, 1 and 2, in that order, then
    one real pass over axis 3, all unscaled, then one multiplication by
    1/N^4, the single factor `irfftn` applies after its last pass. A pass
    runs only on the lines whose indices on the axes not yet transformed
    are kept; every other line holds zeros and would stay zero. The real
    pass (`irfft` with n = N) reads only the k_4 <= N/3 lines and
    zero-pads them to N/2 + 1 itself;
  * forward: one real pass over axis 3, then complex passes over axes 0,
    1 and 2, all unscaled, each only on the lines whose indices on the
    axes already transformed are kept; every other line ends in discarded
    modes. The full forward transform is the same passes over every line.

`numpy.fft.rfftn` and `irfftn` are not used: they run the complex axes
in the reverse order, which changes the last bit (at N = 16, 18 and 32).

Each complex pass runs in place on the last, contiguous axis of an array
that holds only the lines the pass transforms (`_fft_pass`): numpy's FFT
runs its inner loop once per outer index it cannot merge, so a pass over
a strided view of the lattice costs 2-3 times as much. Between passes one
copy rotates the axes left, (a, b, c, d) -> (b, c, d, a), bringing the
next axis last: the forward copy keeps only the kept indices of the axis
just transformed (`_rotated_gather`), the inverse copy spreads the next
axis's kept indices over N lines with zeros between (`_rotated_spread`).
The inverse's real pass reads its lines along the first axis and writes
the field in place. The inverse allocates the field first and runs its
first two passes in the field's memory, which the real pass overwrites
last, so it allocates one array besides its output and frees little at
the top of the heap (glibc returns a large free heap top to the system,
and the next arrays fault its pages in again). Each line that runs is the same 1D transform as in
the full pass. Each transform checks its input for finiteness; the band
inverse checks only the band, and `evolution.initial_state` the modes it
drops.

This module is the only one that calls an FFT or knows the lattice
layout. All reductions are fixed-order numpy sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np


class NonFiniteField(ValueError):
    """A field holds NaN or infinity (overflow guard)."""


@dataclass(frozen=True)
class TorusGrid:
    """The discrete 4D periodic computational domain and its half frequency lattice."""

    points_per_dim: int
    side_length: float
    _sobolev_weights: dict[float, np.ndarray] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n, length = self.points_per_dim, self.side_length
        if n % 2 != 0 or n < 16:
            raise ValueError(f"points_per_dim must be an even integer >= 16, got {n}")
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
        """Shape of a physical field, (N, N, N, N)."""
        return (self.points_per_dim,) * 4

    @property
    def spectral_shape(self) -> tuple[int, int, int, int]:
        """Shape of a stored half spectrum, (N, N, N, N/2 + 1)."""
        n = self.points_per_dim
        return (n, n, n, n // 2 + 1)

    @cached_property
    def x_axis(self) -> np.ndarray:
        """Physical points along one axis, x_j = j h."""
        return self.spacing * np.arange(self.points_per_dim)

    @cached_property
    def _k_axes(self) -> tuple[np.ndarray, ...]:
        """Integer frequency indices of the half lattice, one broadcastable array per axis."""
        n = self.points_per_dim
        full = np.fft.fftfreq(n, 1.0 / n)
        half = np.fft.rfftfreq(n, 1.0 / n)
        return (
            full[:, None, None, None],
            full[None, :, None, None],
            full[None, None, :, None],
            half[None, None, None, :],
        )

    @cached_property
    def xi_mag(self) -> np.ndarray:
        """|xi| over the half lattice."""
        sq = [(self.frequency_spacing * k) ** 2 for k in self._k_axes]
        return np.sqrt(sq[0] + sq[1] + sq[2] + sq[3])

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Full-lattice modes per stored mode along k_4: 1 at k_4 = 0 and N/2, else 2.

        Broadcasts against half-lattice arrays such as `xi_mag`.
        """
        m = np.full(self.points_per_dim // 2 + 1, 2.0)
        m[0] = m[-1] = 1.0
        return m


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
    """A real field in frequency representation: its half spectrum."""

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        if self.coefficients.shape != self.grid.spectral_shape:
            raise ValueError(
                f"coefficients shape {self.coefficients.shape} does not match the half "
                f"spectrum shape {self.grid.spectral_shape}"
            )


def _kept_band(n: int) -> tuple[tuple[slice, slice], slice]:
    """The 2/3 rule's kept indices |k_i| <= N/3: two ranges on a full axis, one on the half axis."""
    m = n // 3
    return (slice(0, m + 1), slice(n - m, n)), slice(0, m + 1)


def _band_index(n: int) -> tuple[tuple[np.ndarray, ...], slice]:
    """The compact band's layout: open-mesh indices of the full axes, and the half axis.

    A band array has shape (2m + 1, 2m + 1, 2m + 1, m + 1), m = floor(N/3):
    each full axis holds the indices 0, ..., m and then N - m, ..., N - 1,
    the half axis 0, ..., m.
    """
    (low, high), half = _kept_band(n)
    full = np.r_[low, high]
    return np.ix_(full, full, full), half


def gather_band(a: np.ndarray) -> np.ndarray:
    """The compact band of a half-lattice array."""
    mesh, half = _band_index(a.shape[0])
    return a[..., half][mesh]


def scatter_band(band: np.ndarray, out: np.ndarray) -> None:
    """Write a compact band into its place in the half-lattice array `out`."""
    mesh, half = _band_index(out.shape[0])
    out[..., half][mesh] = band


def _fft_pass(lines: np.ndarray, inverse: bool) -> None:
    """One unscaled complex FFT pass over the last axis of `lines`, in place."""
    if inverse:
        np.fft.ifft(lines, norm="forward", out=lines)
    else:
        np.fft.fft(lines, out=lines)


def _rotated_gather(lines: np.ndarray, pieces: tuple[slice, ...]) -> np.ndarray:
    """Axes (a, b, c, d) -> (b, c, k, a): a C-contiguous copy rotated left, d cut to its `pieces`."""
    a, b, c, _ = lines.shape
    out = np.empty((b, c, sum(p.stop - p.start for p in pieces), a), dtype=complex)
    start = 0
    for p in pieces:
        out[:, :, start : start + p.stop - p.start] = lines[..., p].transpose(1, 2, 3, 0)
        start += p.stop - p.start
    return out


def _rotated_spread(lines: np.ndarray, pieces: tuple[slice, ...], out: np.ndarray) -> np.ndarray:
    """Axes (k, b, c, d) -> (b, c, d, n) in `out`: rotated left, k spread over `pieces`, zeros elsewhere."""
    start = stop = 0
    for p in pieces:
        out[..., stop : p.start] = 0
        out[..., p] = lines[start : start + p.stop - p.start].transpose(1, 2, 3, 0)
        start += p.stop - p.start
        stop = p.stop
    out[..., stop:] = 0
    return out


def _forward_passes(values: np.ndarray, full: tuple[slice, ...], half: slice) -> np.ndarray:
    """The unscaled rfftn of `values` on the kept lines `full` of each full axis and `half`."""
    lines = _rotated_gather(np.fft.rfft(values), (half,))
    for _ in range(3):
        _fft_pass(lines, inverse=False)
        lines = _rotated_gather(lines, full)
    return lines


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteField(f"non-finite {what}")


def transform_forward(field: PhysicalField, dealiased: bool = False) -> SpectralField:
    """Forward transform to the half spectrum, v_hat = h^4 RFFT(v).

    With `dealiased`, the modes outside the 2/3 band are zero and the FFT
    passes skip the lines that only reach them.
    """
    _require_finite(field.values, "values in physical field")
    grid = field.grid
    n = grid.points_per_dim
    if not dealiased:
        coeffs = _forward_passes(field.values, (slice(0, n),), slice(0, n // 2 + 1))
        coeffs *= grid.spacing**4
        return SpectralField(grid, coeffs)
    band = _forward_passes(field.values, *_kept_band(n))
    band *= grid.spacing**4
    coeffs = np.zeros(grid.spectral_shape, dtype=complex)
    scatter_band(band, coeffs)
    return SpectralField(grid, coeffs)


def band_forward(field: PhysicalField) -> np.ndarray:
    """The compact band of the dealiased forward transform, with no zeroed half spectrum."""
    _require_finite(field.values, "values in physical field")
    band = _forward_passes(field.values, *_kept_band(field.grid.points_per_dim))
    band *= field.grid.spacing**4
    return band


def transform_inverse(field: SpectralField) -> PhysicalField:
    """Inverse transform of a half spectrum back to its real physical field.

    No run takes it (the tests' full inverse): each pass runs over one
    strided axis of the whole lattice, in the dealiased inverse's order.
    """
    _require_finite(field.coefficients, "coefficients in spectral field")
    grid = field.grid
    n = grid.points_per_dim
    lines = field.coefficients
    for axis in range(3):
        lines = np.fft.ifft(lines, axis=axis, norm="forward")
    vals = np.fft.irfft(lines, n, axis=3, norm="forward")
    vals *= 1.0 / n**4
    vals /= grid.spacing**4
    return PhysicalField(grid, vals)


def band_inverse(band: np.ndarray, grid: TorusGrid) -> PhysicalField:
    """The physical field of a compact band, the one dealiased inverse.

    The field is allocated first, and the first two passes run in its
    memory, which the real pass overwrites last: only the third pass's
    lines, (m + 1) N^3 values, are a separate array.
    """
    _require_finite(band, "coefficients in spectral band")
    n = grid.points_per_dim
    full, _ = _kept_band(n)
    k, k3 = band.shape[0], band.shape[3]
    vals = np.empty(grid.shape)
    work = vals.reshape(-1).view(complex)
    split = k * k * k3 * n
    first = work[:split].reshape(k, k, k3, n)
    second = work[split : split + k * k3 * n * n].reshape(k, k3, n, n)
    lines = _rotated_spread(band, full, first)
    del band  # a band the caller handed over is freed before the passes
    _fft_pass(lines, inverse=True)
    lines = _rotated_spread(lines, full, second)
    _fft_pass(lines, inverse=True)
    lines = _rotated_spread(lines, full, np.empty((k3, n, n, n), dtype=complex))
    _fft_pass(lines, inverse=True)
    del first, second
    # the real pass reads the k_4 <= N/3 lines from the first axis and
    # zero-pads the rest up to N/2 + 1
    np.fft.irfft(lines, n, axis=0, norm="forward", out=vals.transpose(3, 0, 1, 2))
    del lines
    vals *= 1.0 / n**4
    vals /= grid.spacing**4
    return PhysicalField(grid, vals)


def sobolev_multiplier(grid: TorusGrid, s: float) -> np.ndarray:
    """|xi|^s (s != 0) with the xi = 0 coefficient 0; built once per grid and s, read-only."""
    if s not in grid._sobolev_weights:
        with np.errstate(divide="ignore"):
            m = np.where(grid.xi_mag > 0, grid.xi_mag, 1.0) ** s
        m[0, 0, 0, 0] = 0.0
        m.flags.writeable = False
        grid._sobolev_weights[s] = m
    return grid._sobolev_weights[s]


def heat_multiplier(grid: TorusGrid, t: float) -> np.ndarray:
    """Heat kernel symbol exp(-t |xi|^2)."""
    return np.exp(-t * sobolev_multiplier(grid, 2.0))


def sobolev_density(a: SpectralField, b: SpectralField, s: float) -> np.ndarray:
    """Hdot^s pairing density of two real fields over the half lattice.

    (2 pi)^{-4} dxi^4 mult(k_4) |xi|^{2s} Re(conj(a_hat) b_hat): its sum is
    <a, b>_{Hdot^s}, and with b = a it is ||a||_{Hdot^s}^2.
    """
    grid = a.grid
    ca, cb = a.coefficients, b.coefficients
    density = ca.real * cb.real
    density += ca.imag * cb.imag
    density *= (2 * np.pi) ** -4 * grid.frequency_spacing**4 * grid.multiplicity
    if s != 0:
        density *= sobolev_multiplier(grid, 2 * s)
    return density


def sobolev_norm_sq(field: SpectralField, s: float) -> float:
    """Squared homogeneous Sobolev norm ||v||_{Hdot^s}^2.

    s = 0 recovers the squared L^2 norm by Plancherel.
    """
    return float(np.sum(sobolev_density(field, field, s)))


def sobolev_inner(a: SpectralField, b: SpectralField, s: float) -> float:
    """Real Hdot^s inner product <a, b>_{Hdot^s} of real fields."""
    return float(np.sum(sobolev_density(a, b, s)))


def l4_fourth(field: PhysicalField) -> float:
    """||v||_{L^4}^4 on the lattice, h^4 sum v^4: the field squared, then squared in place."""
    sq = field.values * field.values
    sq *= sq
    return float(field.grid.spacing**4 * np.sum(sq))
