"""Ground-state bubble: constants, stationarity, L^2 growth, small data."""

import numpy as np
import pytest
from scipy.integrate import quad

from critheat import bubble as bb
from critheat.spectral import TorusGrid, transform_forward

GRAD_EXACT = 32.0 * np.pi**2 / 3.0


class TestEvaluate:
    def test_value_at_origin(self):
        assert bb.bubble_radial(0.0) == 1.0

    def test_half_value_radius(self):
        # |x|^2 = 8 gives W = 1/2
        assert bb.bubble_radial(np.sqrt(8.0)) == pytest.approx(0.5)

    def test_far_field_tail(self):
        # W ~ 8 / |x|^2 far out
        assert bb.bubble_radial(200.0) == pytest.approx(8.0 / 200.0**2, rel=1e-3)


class TestBubbleConstants:
    def test_against_beta_integral_values(self):
        c = bb.bubble_constants()
        assert c.grad_l2_sq == pytest.approx(GRAD_EXACT, rel=1e-6)
        assert c.l4_fourth == pytest.approx(GRAD_EXACT, rel=1e-6)
        assert c.energy == pytest.approx(8.0 * np.pi**2 / 3.0, rel=1e-6)
        assert c.sobolev_constant == pytest.approx(
            (3.0 / (32.0 * np.pi**2)) ** 0.25, rel=1e-6
        )

    def test_against_adaptive_quadrature_oracle(self):
        # independent route: scipy adaptive quadrature of the raw integrands
        c = bb.bubble_constants()
        grad, _ = quad(
            lambda rho: (rho / 4.0 / (1 + rho**2 / 8) ** 2) ** 2 * 2 * np.pi**2 * rho**3,
            0.0,
            np.inf,
        )
        l4, _ = quad(
            lambda rho: (1 + rho**2 / 8) ** -4 * 2 * np.pi**2 * rho**3, 0.0, np.inf
        )
        assert c.grad_l2_sq == pytest.approx(grad, rel=1e-8)
        assert c.l4_fourth == pytest.approx(l4, rel=1e-8)

    def test_quarter_energy_identity(self):
        # E(W) = (1/4) ||grad W||^2 as an identity of the two quadrature values
        c = bb.bubble_constants()
        assert abs(c.energy - 0.25 * c.grad_l2_sq) <= 1e-10 * c.grad_l2_sq

    def test_extremizer_identity(self):
        c = bb.bubble_constants()
        assert c.l4_fourth == pytest.approx(c.grad_l2_sq, rel=1e-8)

    def test_general_dimension_formula_at_n4(self):
        c = bb.bubble_constants()
        assert bb.sobolev_constant_general(4) == pytest.approx(
            c.grad_l2_sq**-0.25, rel=1e-6
        )

    def test_truncation_estimate_within_budget(self):
        c = bb.bubble_constants()
        assert c.quadrature_truncation <= 1e-8 * c.grad_l2_sq

    def test_quadrature_weights_positive(self):
        quad_rule = bb.RadialQuadrature.build()
        assert np.all(quad_rule.weights > 0)
        assert np.all(np.diff(quad_rule.nodes) > 0)


class TestStationarity:
    def test_residual_zero_at_origin(self):
        # Delta W(0) = -1 and W(0)^3 = 1 cancel
        res = bb.stationarity_residual([[0.0, 0.0, 0.0, 0.0]], h_fd=1e-2)
        assert res[0] <= 1e-4

    def test_residual_zero_at_half_height(self):
        # at |x| = sqrt(8): Delta W = -1/8 cancels W^3 = 1/8
        res = bb.stationarity_residual([[np.sqrt(8.0), 0, 0, 0]], h_fd=1e-2)
        assert res[0] <= 1e-4

    def test_second_order_convergence(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-8.0, 8.0, size=(100, 4))
        res = [max(bb.stationarity_residual(pts, h)) for h in (0.02, 0.01, 0.005)]
        orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
        assert all(abs(o - 2.0) <= 0.1 for o in orders)


class TestTruncatedL2Growth:
    def exact_mass(self, r: float) -> float:
        # substitution s = rho^2/8: 64 pi^2 [ln(1+S) + 1/(1+S) - 1], S = R^2/8
        s = r**2 / 8.0
        return 64.0 * np.pi**2 * (np.log1p(s) + 1.0 / (1.0 + s) - 1.0)

    def test_matches_antiderivative(self):
        radii = [1.0, 10.0, 1e3]
        masses = bb.truncated_l2_growth(radii)
        for r, m in zip(radii, masses):
            assert m == pytest.approx(self.exact_mass(r), rel=1e-6)

    def test_log_slope(self):
        # W^2 ~ 64 |x|^{-4}: mass grows like 64 * |S^3| * ln R = 128 pi^2 ln R
        radii = np.geomspace(1e2, 1e4, 9)
        masses = bb.truncated_l2_growth(radii)
        slope = np.polyfit(np.log(radii), masses, 1)[0]
        assert slope == pytest.approx(128.0 * np.pi**2, rel=0.02)

    def test_small_radius_taylor(self):
        # W ~ 1 near 0: mass ~ (pi^2 / 2) R^4
        masses = bb.truncated_l2_growth([0.01])
        assert masses[0] == pytest.approx(np.pi**2 / 2.0 * 0.01**4, rel=1e-3)

    def test_strictly_increasing(self):
        masses = bb.truncated_l2_growth(np.geomspace(0.1, 100.0, 12))
        assert np.all(np.diff(masses) > 0)


class TestSubcriticalDatum:
    def test_small_delta_conditions_hold(self):
        grid = TorusGrid(16, 32.0)
        datum = bb.subcritical_datum(grid, 0.1)
        assert datum.grad_condition and datum.energy_condition
        assert datum.grad_l2 == pytest.approx(0.1 * np.sqrt(GRAD_EXACT), rel=1e-10)

    def test_zero_delta(self):
        grid = TorusGrid(16, 32.0)
        datum = bb.subcritical_datum(grid, 0.0)
        assert np.all(datum.field.values == 0)
        assert datum.energy == 0.0 and datum.energy_condition

    def test_large_delta_energy_checked_not_assumed(self):
        # at delta = 0.9 the gradient condition holds but the energy
        # comparison fails: E ~ delta^2/2 ||grad W||^2 > E(W)
        grid = TorusGrid(16, 32.0)
        datum = bb.subcritical_datum(grid, 0.9)
        assert datum.grad_condition
        direct = 0.5 * datum.grad_l2**2 - 0.25 * grid.spacing**4 * np.sum(datum.field.values**4)
        assert datum.energy == pytest.approx(direct, rel=1e-12)
        assert datum.energy_condition == (datum.energy <= 8.0 * np.pi**2 / 3.0)
        assert not datum.energy_condition

    def test_zero_mean(self):
        grid = TorusGrid(16, 32.0)
        datum = bb.subcritical_datum(grid, 0.1)
        spec = transform_forward(datum.field)
        assert abs(spec.coefficients[0, 0, 0, 0]) <= 1e-10 * np.max(
            np.abs(spec.coefficients)
        )
