"""Transforms, multipliers, dealiasing, and norms on the 4D torus."""

import numpy as np
import pytest

from critheat.spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    apply_multiplier,
    dealias,
    heat_multiplier,
    hermitian_defect,
    lebesgue_norm,
    set_fft_workers,
    sobolev_multiplier,
    sobolev_norm_sq,
    transform_forward,
    transform_inverse,
)

from conftest import cosine_field


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

    def test_inverse_rejects_non_hermitian(self, small_grid, rng):
        coeffs = rng.standard_normal(small_grid.shape) + 1j * rng.standard_normal(
            small_grid.shape
        )
        with pytest.raises(ValueError, match="Hermitian"):
            transform_inverse(SpectralField(small_grid, coeffs))

    def test_worker_count_does_not_change_bits(self, small_grid, random_field):
        set_fft_workers(1)
        one = transform_forward(random_field).coefficients
        norm_one = sobolev_norm_sq(transform_forward(random_field), 1.0)
        set_fft_workers(2)
        two = transform_forward(random_field).coefficients
        norm_two = sobolev_norm_sq(transform_forward(random_field), 1.0)
        set_fft_workers(2)
        assert np.array_equal(one, two)
        assert norm_one == norm_two


class TestMultipliers:
    def test_identity_symbol(self, random_field):
        spec = transform_forward(random_field)
        out = apply_multiplier(spec, lambda xi: np.ones_like(xi))
        assert np.array_equal(out.coefficients, spec.coefficients)

    def test_heat_at_zero_time_is_identity(self, small_grid, random_field):
        spec = transform_forward(random_field)
        out = SpectralField(small_grid, spec.coefficients * heat_multiplier(small_grid, 0.0))
        assert np.array_equal(out.coefficients, spec.coefficients)

    def test_composition_half_laplacian(self, small_grid, random_field):
        # |xi| applied twice equals |xi|^2 applied once
        spec = transform_forward(random_field)
        lam = lambda xi: sobolev_multiplier(small_grid, 1.0)
        once = apply_multiplier(apply_multiplier(spec, lam), lam)
        square = apply_multiplier(spec, lambda xi: sobolev_multiplier(small_grid, 2.0))
        scale = np.max(np.abs(square.coefficients))
        assert np.max(np.abs(once.coefficients - square.coefficients)) <= 1e-12 * scale

    def test_real_even_symbol_preserves_hermitian_symmetry(self, small_grid, random_field):
        spec = transform_forward(random_field)
        assert hermitian_defect(spec) <= 1e-10 * np.max(np.abs(spec.coefficients))
        out = apply_multiplier(spec, lambda xi: np.exp(-0.3 * xi**2))
        assert hermitian_defect(out) <= 1e-10 * np.max(np.abs(out.coefficients))

    def test_nonfinite_symbol_rejected(self, small_grid, random_field):
        spec = transform_forward(random_field)
        with pytest.raises(ValueError, match="non-finite"):
            apply_multiplier(spec, lambda xi: 1.0 / xi)

    def test_negative_heat_time_rejected(self, small_grid):
        with pytest.raises(ValueError, match="t >= 0"):
            heat_multiplier(small_grid, -0.1)


class TestDealias:
    def test_low_mode_kept(self, small_grid):
        spec = transform_forward(cosine_field(small_grid))
        out = dealias(spec)
        scale = np.max(np.abs(spec.coefficients))
        assert out.coefficients[1, 0, 0, 0] == spec.coefficients[1, 0, 0, 0]
        assert np.max(np.abs(out.coefficients - spec.coefficients)) <= 1e-12 * scale

    def test_mode_seven_zeroed_at_n16(self, small_grid):
        # 7 > 16/3, so k = (7,0,0,0) is outside the kept band
        coeffs = np.zeros(small_grid.shape, dtype=complex)
        coeffs[7, 0, 0, 0] = 1.0
        coeffs[-7, 0, 0, 0] = 1.0
        out = dealias(SpectralField(small_grid, coeffs))
        assert np.all(out.coefficients == 0)

    def test_idempotent(self, random_field):
        spec = transform_forward(random_field)
        once = dealias(spec)
        twice = dealias(once)
        assert np.array_equal(once.coefficients, twice.coefficients)


class TestSobolevNorms:
    def test_zero_field(self, small_grid):
        spec = SpectralField(small_grid, np.zeros(small_grid.shape, dtype=complex))
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

    def test_negative_s_requires_zero_mean(self, small_grid, rng):
        values = rng.standard_normal(small_grid.shape) + 0.5
        spec = transform_forward(PhysicalField(small_grid, values))
        with pytest.raises(ValueError, match="zero mean"):
            sobolev_norm_sq(spec, -0.5)
        spec.coefficients[0, 0, 0, 0] = 0.0
        assert sobolev_norm_sq(spec, -0.5) > 0

    def test_mean_mode_dropped_for_positive_s(self, small_grid):
        coeffs = np.zeros(small_grid.shape, dtype=complex)
        coeffs[0, 0, 0, 0] = 5.0
        assert sobolev_norm_sq(SpectralField(small_grid, coeffs), 1.0) == 0.0


class TestLebesgueNorms:
    def test_constant_field(self, small_grid):
        field = PhysicalField(small_grid, np.full(small_grid.shape, -2.5))
        for p in (2, 4, 6):
            expected = 2.5 * small_grid.side_length ** (4.0 / p)
            assert lebesgue_norm(field, p) == pytest.approx(expected, rel=1e-12)

    def test_zero_field(self, small_grid):
        field = PhysicalField(small_grid, np.zeros(small_grid.shape))
        assert lebesgue_norm(field, 4) == 0.0

    def test_cosine_l4_closed_form(self, small_grid):
        # mean of cos^4 over a period is 3/8, so the norm is (3 L^4 / 8)^{1/4}
        field = cosine_field(small_grid)
        expected = (3.0 * small_grid.side_length**4 / 8.0) ** 0.25
        assert lebesgue_norm(field, 4) == pytest.approx(expected, rel=1e-12)

    def test_products_match_generic_power(self, small_grid, rng):
        field = PhysicalField(small_grid, rng.standard_normal(small_grid.shape) - 0.5)
        assert np.any(field.values < 0)
        h4 = small_grid.spacing**4
        for p in (2, 4, 6):
            reference = (h4 * np.sum(np.abs(field.values) ** p)) ** (1.0 / p)
            assert lebesgue_norm(field, p) == pytest.approx(reference, rel=1e-14)

    def test_unsupported_exponent(self, small_grid):
        field = PhysicalField(small_grid, np.zeros(small_grid.shape))
        with pytest.raises(ValueError, match="p=3"):
            lebesgue_norm(field, 3)
