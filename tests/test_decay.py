"""Decay indicator, decay character estimation, and the linear radial oracle."""

import numpy as np
import pytest
from scipy.integrate import quad

from critheat import decay as dc
from critheat.spectral import TorusGrid, transform_inverse


def dense_power_profile(r: float) -> dc.RadialProfile:
    # power_law_profile's [1e-8, 1] at 256 nodes per decade, not 64: the
    # trapezoid bias stays well below the closed forms
    nodes = 10.0 ** np.linspace(-8.0, 0.0, 8 * 256 + 1)
    return dc.RadialProfile(nodes, nodes**r)


class TestShellMass:
    def test_flat_profile_closed_form(self):
        # a = 1 below the cutoff: S(rho) = 2 pi^2 rho^4 / 4 = pi^2 rho^4 / 2
        prof = dense_power_profile(0.0)
        for rho in (1e-3, 0.1, 0.5):
            assert dc.shell_mass(prof, rho) == pytest.approx(
                np.pi**2 * rho**4 / 2.0, rel=2e-4
            )

    def test_linear_profile_closed_form(self):
        # a = sigma: S(rho) = 2 pi^2 rho^6 / 6 = pi^2 rho^6 / 3
        prof = dense_power_profile(1.0)
        for rho in (1e-2, 0.3):
            assert dc.shell_mass(prof, rho) == pytest.approx(
                np.pi**2 * rho**6 / 3.0, rel=1e-3
            )

    def test_zero_amplitudes(self):
        nodes = dc.log_nodes(1e-6, 8)
        prof = dc.RadialProfile(nodes, np.zeros_like(nodes))
        assert dc.shell_mass(prof, 0.5) == 0.0

    def test_monotone_in_rho(self):
        prof = dense_power_profile(0.5)
        rhos = np.geomspace(1e-5, 1.0, 40)
        masses = [dc.shell_mass(prof, r) for r in rhos]
        assert np.all(np.diff(masses) >= 0)

    def test_out_of_range_rejected(self):
        prof = dense_power_profile(0.0)
        with pytest.raises(ValueError, match="outside sampled range"):
            dc.shell_mass(prof, 1e3)


class TestDecayIndicator:
    def test_power_law_limits(self):
        # P_r(rho) -> 2 pi^2 / (2r + 4) as rho -> 0
        for r in (0.0, 1.0):
            prof = dense_power_profile(r)
            limit = 2.0 * np.pi**2 / (2.0 * r + 4.0)
            assert dc.decay_indicator(prof, r, 1e-5) == pytest.approx(limit, rel=1e-2)

    def test_zero_profile(self):
        nodes = dc.log_nodes(1e-6, 8)
        prof = dc.RadialProfile(nodes, np.zeros_like(nodes))
        for r in (-1.0, 0.0, 2.0):
            assert dc.decay_indicator(prof, r, 1e-3) == 0.0

    def test_mismatched_r_diverges(self):
        # flat profile probed with r = 1: P_1(rho) ~ pi^2 rho^{-2} / 2
        prof = dense_power_profile(0.0)
        p_at = lambda rho: dc.decay_indicator(prof, 1.0, rho)
        assert p_at(1e-4) / p_at(1e-3) == pytest.approx(100.0, rel=1e-6)

    def test_r_at_boundary_rejected(self):
        prof = dense_power_profile(0.0)
        with pytest.raises(ValueError, match="-n/2"):
            dc.decay_indicator(prof, -2.0, 1e-3)

    def test_indicator_curve_constancy(self):
        # with the true r the indicator is flat over the bottom two decades
        prof = dense_power_profile(1.0)
        rhos = np.geomspace(prof.nodes[0] * 10.0**2, prof.nodes[0], 21)
        vals = np.array([dc.decay_indicator(prof, 1.0, rho) for rho in rhos])
        assert np.all(np.diff(rhos) < 0)
        assert (vals.max() - vals.min()) / vals.mean() <= 0.01


class TestDecayCharacterEstimator:
    @pytest.mark.parametrize("r", [-1.0, 0.0, 1.0, 2.0])
    def test_power_law_recovery(self, r):
        est = dc.estimate_decay_character(dc.power_law_profile(r))
        assert abs(est.r_star - r) <= 0.05

    def test_flat_profile_gives_zero(self):
        nodes = dc.log_nodes(1e-6, 8)
        prof = dc.RadialProfile(nodes, np.ones_like(nodes))
        est = dc.estimate_decay_character(prof)
        assert abs(est.r_star) <= 0.05

    def test_gaussian_datum_gives_zero(self):
        # nonzero-mean physical datum: flat transform near xi = 0
        est = dc.estimate_decay_character(dc.gaussian_profile())
        assert abs(est.r_star) <= 0.05

    def test_scale_covariance(self):
        prof = dc.power_law_profile(0.5)
        scaled = dc.RadialProfile(prof.nodes, 7.3 * prof.amplitudes)
        a = dc.estimate_decay_character(prof)
        b = dc.estimate_decay_character(scaled)
        assert a.r_star == pytest.approx(b.r_star, abs=1e-12)

    def test_upper_sentinel_for_super_power_decay(self):
        nodes = dc.log_nodes(1e-6, 8)
        prof = dc.RadialProfile(nodes, np.exp(-1.0 / nodes))
        est = dc.estimate_decay_character(prof)
        assert est.r_star == np.inf

    def test_lower_sentinel_for_head_dominated_mass(self):
        # a = rho^{-2.4}: the shell integral diverges at 0, S is head-dominated
        nodes = dc.log_nodes(1e-6, 8)
        prof = dc.RadialProfile(nodes, np.where(nodes <= 1, nodes**-2.4, 0.0))
        est = dc.estimate_decay_character(prof)
        assert est.r_star == -2.0


class TestClassifiers:
    def test_lp_closed_forms(self):
        assert dc.classify_lp(4.0 / 3.0, 4) == pytest.approx(-1.0)
        assert dc.classify_lp(1.5, 4) == pytest.approx(-4.0 / 3.0)
        # p -> 1+ limit approaches 0
        assert abs(dc.classify_lp(1.0 + 1e-9, 4)) <= 1e-8

    def test_weighted(self):
        assert dc.classify_weighted(1.0, True) == 1.0
        assert dc.classify_weighted(0.5, False) == 0.0
        assert dc.classify_weighted(0.0, True) == 0.0


class TestLinearDecayExponent:
    def test_formula_cases(self):
        assert dc.linear_decay_exponent(0.0, 1.0) == 2.0
        assert dc.linear_decay_exponent(-1.0, 1.0) == 1.0
        assert dc.linear_decay_exponent(0.0, 0.5) == 4.0


class TestRadialLinearEvolution:
    def test_gaussian_closed_form(self):
        # ||v(t)||^2 = pi^2 / (1 + 2t)^2 for the standard Gaussian datum
        prof = dc.gaussian_profile()
        times = [0.0, 0.3, 1.0, 10.0, 1e3, 1e6]
        values = dc.radial_linear_evolution(prof, 1.0, times)
        for t, v in zip(times, values):
            assert v == pytest.approx(np.pi**2 / (1.0 + 2.0 * t) ** 2, rel=1e-8)

    def test_t_zero_matches_independent_quadrature(self):
        prof = dense_power_profile(0.5)
        mass = dc.radial_linear_evolution(prof, 1.0, [0.0])[0]
        oracle, _ = quad(lambda s: s ** (2 * 0.5) * s**3, 0.0, 1.0)
        oracle *= (2 * np.pi) ** -4 * 2 * np.pi**2
        assert mass == pytest.approx(oracle, rel=1e-3)

    def test_strictly_decreasing(self):
        prof = dc.power_law_profile(0.0)
        vals = dc.radial_linear_evolution(prof, 1.0, np.linspace(0, 5, 11))
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("r_star", [-1.0, -0.5, 0.0, 1.0])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_fitted_exponent_matches_theory(self, r_star, alpha):
        prof = dc.power_law_profile(r_star)
        times = np.geomspace(1e2, 1e6, 41)
        vals = dc.radial_linear_evolution(prof, alpha, times)
        slope = np.polyfit(np.log1p(times), np.log(vals), 1)[0]
        assert abs(slope + dc.linear_decay_exponent(r_star, alpha)) <= 0.05


class TestSynthesizedDatum:
    def test_zero_amplitude(self, small_grid):
        # a cutoff below the first lattice shell leaves every mode at zero amplitude
        field = dc.synthesize_datum(small_grid, 0.0, 0.5 * small_grid.frequency_spacing)
        assert np.all(field.coefficients == 0)

    def test_real_zero_mean_datum(self, small_grid):
        field = dc.synthesize_datum(small_grid, 0.0, 2.0)
        assert field.coefficients[0, 0, 0, 0] == 0.0
        assert np.all(field.coefficients.imag == 0)
        physical = transform_inverse(field)  # raises if not Hermitian
        assert np.all(np.isfinite(physical.values))

    def test_bump_datum_zero_mean(self):
        spec = dc.bump_datum(TorusGrid(16, 32.0))
        assert abs(spec.coefficients[0, 0, 0, 0]) <= 1e-10 * np.max(np.abs(spec.coefficients))

    def test_cutoff_smoothness_range(self):
        s = np.linspace(0, 2, 401)
        chi = dc.smooth_cutoff(s)
        assert np.all(chi[s <= 0.5] == 1.0)
        assert np.all(chi[s >= 1.0] == 0.0)
        assert np.all((chi >= 0) & (chi <= 1))
        assert np.all(np.diff(chi) <= 1e-12)

    def test_grid_estimator_recovers_r_zero(self):
        grid = TorusGrid(32, 32.0)
        datum = dc.synthesize_datum(grid, 0.0, 1.4)
        est = dc.estimate_decay_character_grid(datum, rho_max=0.7)
        assert abs(est.r_star) <= 0.1

    def test_grid_estimator_recovers_r_one(self):
        grid = TorusGrid(32, 32.0)
        datum = dc.synthesize_datum(grid, 1.0, 1.4)
        est = dc.estimate_decay_character_grid(datum, rho_max=0.7)
        assert abs(est.r_star - 1.0) <= 0.1

    def test_grid_estimator_exact_on_pure_power(self):
        # inside the cutoff plateau the lattice model matches exactly
        grid = TorusGrid(32, 32.0)
        for r in (-1.5, 0.0, 2.0):
            datum = dc.synthesize_datum(grid, r, 2.4)
            est = dc.estimate_decay_character_grid(datum, rho_max=1.2)
            assert abs(est.r_star - r) <= 1e-3
