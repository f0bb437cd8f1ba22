"""Transforms, multipliers, the dealiased transforms, and norms on the 4D torus."""

import weakref

import numpy as np
import pytest

from critheat import evolution as ev
from critheat import spectral
from critheat.spectral import (
    NonFiniteField,
    PhysicalField,
    SpectralField,
    TorusGrid,
    band_inverse,
    gather_band,
    heat_multiplier,
    l4_fourth,
    sobolev_inner,
    sobolev_multiplier,
    sobolev_norm_sq,
    transform_forward,
    transform_inverse,
)

from critheat.diagnostics import POWER, SplittingSchedule, splitting_split

from conftest import cosine_field, kept_band_mask


class TestTorusGrid:
    def test_rejects_odd_or_small_n(self):
        with pytest.raises(ValueError, match="even"):
            TorusGrid(15, 1.0)
        with pytest.raises(ValueError, match=">= 16"):
            TorusGrid(8, 1.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="positive"):
            TorusGrid(16, 0.0)

    def test_spacings(self):
        grid = TorusGrid(32, 16.0)
        assert grid.spacing == 0.5
        assert grid.frequency_spacing == pytest.approx(2 * np.pi / 16.0)

    def test_nyquist_corner_bound(self, small_grid):
        # |xi| <= sqrt(4) * pi N / L, attained at the corner
        corner = 2.0 * np.pi * small_grid.points_per_dim / small_grid.side_length
        assert np.max(small_grid.xi_mag) == pytest.approx(corner)
        assert small_grid.axis_nyquist == pytest.approx(corner / 2.0)

    def test_field_shape_validation(self, small_grid):
        with pytest.raises(ValueError, match="shape"):
            PhysicalField(small_grid, np.zeros((16, 16, 16, 8)))
        with pytest.raises(ValueError, match="shape"):
            SpectralField(small_grid, np.zeros((8,) * 4, dtype=complex))
        # a full complex lattice is not a half spectrum
        with pytest.raises(ValueError, match="half spectrum shape"):
            SpectralField(small_grid, np.zeros(small_grid.shape, dtype=complex))


class TestTransforms:
    def test_roundtrip_random(self, random_field):
        back = transform_inverse(transform_forward(random_field))
        scale = np.max(np.abs(random_field.values))
        assert np.max(np.abs(back.values - random_field.values)) <= 1e-12 * scale

    def test_single_mode_coefficients(self, small_grid):
        # cos(dxi x1) -> coefficients h^4 N^4 / 2 at k = +-e1, zero elsewhere
        field = transform_forward(cosine_field(small_grid))
        n = small_grid.points_per_dim
        expected = small_grid.spacing**4 * n**4 / 2.0
        coeffs = field.coefficients.copy()
        assert coeffs[1, 0, 0, 0] == pytest.approx(expected, rel=1e-12)
        assert coeffs[-1, 0, 0, 0] == pytest.approx(expected, rel=1e-12)
        coeffs[1, 0, 0, 0] = 0
        coeffs[-1, 0, 0, 0] = 0
        assert np.max(np.abs(coeffs)) <= 1e-12 * expected

    def test_plancherel_random(self, small_grid, random_field):
        spec = transform_forward(random_field)
        physical = small_grid.spacing**4 * np.sum(random_field.values**2)
        spectral = sobolev_norm_sq(spec, 0.0)
        assert abs(spectral / physical - 1.0) <= 1e-12

    def test_plancherel_cosine_closed_form(self, small_grid):
        # both sides equal L^4 / 2 for cos(dxi x1)
        spec = transform_forward(cosine_field(small_grid))
        expected = small_grid.side_length**4 / 2.0
        assert sobolev_norm_sq(spec, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_forward_rejects_nonfinite(self, small_grid):
        values = np.zeros(small_grid.shape)
        values[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            transform_forward(PhysicalField(small_grid, values))


class TestMultipliers:
    def test_heat_at_zero_time_is_identity(self, small_grid, random_field):
        spec = transform_forward(random_field)
        out = SpectralField(small_grid, spec.coefficients * heat_multiplier(small_grid, 0.0))
        assert np.array_equal(out.coefficients, spec.coefficients)

    def test_composition_half_laplacian(self, small_grid, random_field):
        # |xi| applied twice equals |xi|^2 applied once
        c = transform_forward(random_field).coefficients
        lam = sobolev_multiplier(small_grid, 1.0)
        once = lam * (lam * c)
        square = sobolev_multiplier(small_grid, 2.0) * c
        scale = np.max(np.abs(square))
        assert np.max(np.abs(once - square)) <= 1e-12 * scale

    def test_real_even_symbol_preserves_hermitian_symmetry(self, small_grid, random_field):
        # a half spectrum is that of a real field when a round trip through
        # physical space returns it: the k4 = 0 and N/2 planes, which hold
        # their own mirror modes, must be Hermitian in themselves
        spec = transform_forward(random_field)
        out = SpectralField(small_grid, spec.coefficients * heat_multiplier(small_grid, 0.3))
        back = transform_forward(transform_inverse(out)).coefficients
        assert np.max(np.abs(back - out.coefficients)) <= 1e-12 * np.max(np.abs(out.coefficients))

    def test_sobolev_weight_built_once_per_grid(self):
        # a fresh grid: the weight is built on the first call and shared after
        grid = TorusGrid(16, 2 * np.pi)
        weight = sobolev_multiplier(grid, 2.0)
        assert sobolev_multiplier(grid, 2.0) is weight
        assert not weight.flags.writeable
        assert sobolev_multiplier(TorusGrid(16, 2 * np.pi), 2.0) is not weight
        # the heat symbol reads the same |xi|^2, bit for bit
        assert np.array_equal(weight, grid.xi_mag**2)
        assert np.array_equal(heat_multiplier(grid, 0.3), np.exp(-0.3 * grid.xi_mag**2))


class TestDealias:
    """The pruned transforms against the full transforms of the masked field.

    The mask comes from numpy's frequency lists (`kept_band_mask`), not from
    the band the transforms prune to. The one dealiased inverse is
    `band_inverse` of the gathered band.
    """

    @pytest.mark.parametrize("n", [16, 18, 24])
    def test_pruned_transforms_are_the_masked_full_transforms(self, n, rng):
        grid = TorusGrid(n, 7.0)
        field = PhysicalField(grid, rng.standard_normal(grid.shape))
        mask = kept_band_mask(grid)
        spec = transform_forward(field)
        forward = transform_forward(field, dealiased=True).coefficients
        inverse = band_inverse(gather_band(spec.coefficients), grid).values
        masked_inverse = transform_inverse(SpectralField(grid, spec.coefficients * mask)).values
        assert np.array_equal(forward, spec.coefficients * mask)
        assert np.array_equal(inverse, masked_inverse)
        assert 0 < np.count_nonzero(forward) <= np.count_nonzero(mask) < mask.size

    def test_low_mode_kept(self, small_grid):
        field = cosine_field(small_grid)
        spec = transform_forward(field)
        out = transform_forward(field, dealiased=True)
        scale = np.max(np.abs(spec.coefficients))
        assert out.coefficients[1, 0, 0, 0] == spec.coefficients[1, 0, 0, 0]
        assert np.max(np.abs(out.coefficients - spec.coefficients)) <= 1e-12 * scale
        back = band_inverse(gather_band(spec.coefficients), small_grid).values
        assert np.max(np.abs(back - field.values)) <= 1e-12

    def test_mode_seven_zeroed_at_n16(self, small_grid):
        # 7 > 16/3, so k = (7,0,0,0) is outside the kept band
        coeffs = np.zeros(small_grid.spectral_shape, dtype=complex)
        coeffs[7, 0, 0, 0] = 1.0
        coeffs[-7, 0, 0, 0] = 1.0
        out = band_inverse(gather_band(coeffs), small_grid)
        assert np.all(out.values == 0)

    def test_idempotent(self, small_grid, random_field):
        # a dealiased forward of a dealiased inverse reproduces a dealiased spectrum
        mask = kept_band_mask(small_grid)
        masked = transform_forward(random_field).coefficients * mask
        back = transform_forward(band_inverse(gather_band(masked), small_grid), dealiased=True)
        assert np.max(np.abs(back.coefficients - masked)) <= 1e-12 * np.max(np.abs(masked))
        assert np.all(back.coefficients[~mask] == 0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_dropped_mode_rejected(self, small_grid, random_field, bad):
        # the band inverse checks only its band; a dropped mode is checked
        # where the spectrum enters a state
        coeffs = transform_forward(random_field).coefficients
        coeffs[7, 0, 0, 0] = bad
        band_inverse(gather_band(coeffs), small_grid)
        with pytest.raises(NonFiniteField):
            ev.initial_state(SpectralField(small_grid, coeffs))
        coeffs[7, 0, 0, 0] = 0.0
        coeffs[1, 0, 0, 0] = bad
        with pytest.raises(NonFiniteField):
            band_inverse(gather_band(coeffs), small_grid)

    def test_band_inverse_drops_its_band(self, small_grid, random_field, monkeypatch):
        # a band handed over is freed before the passes run
        band = gather_band(transform_forward(random_field).coefficients)
        want = band_inverse(band.copy(), small_grid).values
        ref = weakref.ref(band)
        dead, fft_pass = [], spectral._fft_pass

        def traced(block, axis, inverse):
            dead.append(ref() is None)
            fft_pass(block, axis, inverse)

        monkeypatch.setattr(spectral, "_fft_pass", traced)
        held = [band]
        del band
        got = band_inverse(held.pop(), small_grid).values
        assert dead and all(dead)
        assert np.array_equal(got, want)


class TestSobolevNorms:
    def test_zero_field(self, small_grid):
        spec = SpectralField(small_grid, np.zeros(small_grid.spectral_shape, dtype=complex))
        assert sobolev_norm_sq(spec, 1.0) == 0.0

    def test_single_mode_h1(self, small_grid):
        # ||cos(dxi x1)||_{Hdot1}^2 = dxi^2 L^4 / 2
        spec = transform_forward(cosine_field(small_grid))
        expected = small_grid.frequency_spacing**2 * small_grid.side_length**4 / 2.0
        assert sobolev_norm_sq(spec, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_s_zero_matches_physical_sum(self, small_grid, random_field):
        spec = transform_forward(random_field)
        physical = small_grid.spacing**4 * np.sum(random_field.values**2)
        assert sobolev_norm_sq(spec, 0.0) == pytest.approx(physical, rel=1e-12)

    def test_mean_mode_dropped_for_positive_s(self, small_grid):
        coeffs = np.zeros(small_grid.spectral_shape, dtype=complex)
        coeffs[0, 0, 0, 0] = 5.0
        assert sobolev_norm_sq(SpectralField(small_grid, coeffs), 1.0) == 0.0


def _full_lattice(grid, values):
    """Full complex lattice coefficients h^4 FFT(v) and |xi|, from numpy.fft alone."""
    n = grid.points_per_dim
    xi = grid.frequency_spacing * np.fft.fftfreq(n, 1.0 / n)
    sq = xi**2
    xi_mag = np.sqrt(
        sq[:, None, None, None] + sq[None, :, None, None] + sq[None, None, :, None] + sq
    )
    return grid.spacing**4 * np.fft.fftn(values), xi_mag


class TestHalfLatticeOracle:
    """Half-lattice sums against (2 pi)^-4 dxi^4 sums over the full complex lattice."""

    @pytest.fixture()
    def fields(self, small_grid, rng):
        # zero-mean random fields: every plane, the Nyquist planes included, is nonzero
        a = rng.standard_normal(small_grid.shape)
        b = rng.standard_normal(small_grid.shape)
        return a - a.mean(), b - b.mean()

    @staticmethod
    def reference(grid, a, b, s):
        ca, xi_mag = _full_lattice(grid, a)
        cb, _ = _full_lattice(grid, b)
        if s == 0:
            weight = np.ones_like(xi_mag)
        else:
            weight = np.where(xi_mag > 0, xi_mag, 1.0) ** (2 * s) * (xi_mag > 0)
        density = (2 * np.pi) ** -4 * grid.frequency_spacing**4 * weight * np.real(np.conj(ca) * cb)
        return density, xi_mag

    def test_nyquist_planes_are_populated(self, small_grid, fields):
        coeffs = transform_forward(PhysicalField(small_grid, fields[0])).coefficients
        assert coeffs.shape == (16, 16, 16, 9)
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(coeffs[..., -1])) > 0.1 * scale
        assert np.max(np.abs(coeffs[8])) > 0.1 * scale

    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 2.0])
    def test_sobolev_norm_sq(self, small_grid, fields, s):
        a = fields[0]
        want = float(np.sum(self.reference(small_grid, a, a, s)[0]))
        got = sobolev_norm_sq(transform_forward(PhysicalField(small_grid, a)), s)
        assert abs(got / want - 1.0) <= 1e-12

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_sobolev_inner(self, small_grid, fields, s):
        a, b = fields
        want = float(np.sum(self.reference(small_grid, a, b, s)[0]))
        got = sobolev_inner(
            transform_forward(PhysicalField(small_grid, a)),
            transform_forward(PhysicalField(small_grid, b)),
            s,
        )
        assert abs(got / want - 1.0) <= 1e-12

    def test_splitting_parts(self, small_grid, fields):
        # radius sqrt(alpha) = 10 at t = 0 cuts through the lattice (dxi = 1, corner 16)
        schedule = SplittingSchedule(POWER, alpha=100.0)
        a = fields[0]
        density, xi_mag = self.reference(small_grid, a, a, 1.0)
        inside = xi_mag <= schedule.radius(0.0)
        want = (np.sum(density), np.sum(density[inside]), np.sum(density[~inside]))
        got = splitting_split(transform_forward(PhysicalField(small_grid, a)), schedule, 0.0)
        assert 0.1 < want[1] / want[0] < 0.9
        for g, w in zip(got, want):
            assert abs(g / w - 1.0) <= 1e-12


class TestLebesgueNorms:
    """The L^4 sum h^4 sum v^4 against closed forms and a numpy power."""

    def test_constant_field(self, small_grid):
        field = PhysicalField(small_grid, np.full(small_grid.shape, -2.5))
        assert l4_fourth(field) == pytest.approx(2.5**4 * small_grid.side_length**4, rel=1e-12)

    def test_zero_field(self, small_grid):
        field = PhysicalField(small_grid, np.zeros(small_grid.shape))
        assert l4_fourth(field) == 0.0

    def test_cosine_l4_closed_form(self, small_grid):
        # mean of cos^4 over a period is 3/8
        field = cosine_field(small_grid)
        expected = 3.0 * small_grid.side_length**4 / 8.0
        assert l4_fourth(field) == pytest.approx(expected, rel=1e-12)

    def test_products_match_generic_power(self, small_grid, rng):
        field = PhysicalField(small_grid, rng.standard_normal(small_grid.shape) - 0.5)
        assert np.any(field.values < 0)
        reference = small_grid.spacing**4 * np.sum(np.abs(field.values) ** 4)
        assert l4_fourth(field) == pytest.approx(reference, rel=1e-14)
