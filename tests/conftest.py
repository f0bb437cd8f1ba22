import tracemalloc

import numpy as np
import pytest

from critheat import evolution as ev
from critheat.spectral import PhysicalField, SpectralField, TorusGrid, gather_band, scatter_band


@pytest.fixture(scope="session")
def small_grid() -> TorusGrid:
    return TorusGrid(16, 2 * np.pi)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture()
def random_field(small_grid, rng) -> PhysicalField:
    return PhysicalField(small_grid, rng.standard_normal(small_grid.shape))


def kept_band_mask(grid: TorusGrid) -> np.ndarray:
    """The 2/3 rule on the half lattice, every |k_i| <= N/3, from numpy's frequency lists."""
    n = grid.points_per_dim
    full = np.abs(np.fft.fftfreq(n, 1.0 / n)) <= n / 3.0
    half = np.abs(np.fft.rfftfreq(n, 1.0 / n)) <= n / 3.0
    return full[:, None, None, None] & full[None, :, None, None] & full[None, None, :, None] & half


def full_cubic(u_hat: SpectralField) -> SpectralField:
    """`evolution.nonlinear_term` on a half spectrum: its band's cubic, scattered into zeros."""
    grid = u_hat.grid
    out = np.zeros(grid.spectral_shape, dtype=complex)
    scatter_band(ev.nonlinear_term(gather_band(u_hat.coefficients), grid), out)
    return SpectralField(grid, out)


def cosine_field(grid: TorusGrid, amplitude: float = 1.0, mode: int = 1) -> PhysicalField:
    """a * cos(mode * dxi * x1), constant in the other directions."""
    profile = amplitude * np.cos(mode * grid.frequency_spacing * grid.x_axis)
    values = np.broadcast_to(profile[:, None, None, None], grid.shape).copy()
    return PhysicalField(grid, values)


def traced_peak(run, grid: TorusGrid) -> float:
    """Peak memory that run() allocates, under tracemalloc, in half spectra of the grid.

    A half spectrum is N^3 (N/2 + 1) complex values; a real half-lattice
    factor counts 0.5 and a physical field N/(N + 2).
    """
    n = grid.points_per_dim
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / (n**3 * (n // 2 + 1) * 16)
    finally:
        tracemalloc.stop()
