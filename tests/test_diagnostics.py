"""Monitored quantities, splitting schedules, identity checks, and rate fits."""

import numpy as np
import pytest

from critheat import diagnostics as dg
from critheat import evolution as ev
from critheat import spectral
from critheat.spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    sobolev_inner,
    sobolev_multiplier,
    sobolev_norm_sq,
    transform_forward,
    transform_inverse,
)

from conftest import cosine_field, full_cubic, kept_band_mask


SCHEDULE = dg.SplittingSchedule(dg.POWER, 2.5)


@pytest.fixture(scope="module")
def grid() -> TorusGrid:
    return TorusGrid(16, 2 * np.pi)


def synthetic_records(ts, h1, low=None):
    out = []
    for i, t in enumerate(ts):
        l = low[i] if low is not None else h1[i]
        out.append(
            dg.DiagnosticsRecord(
                t=t,
                h1_sq=h1[i],
                grad_h1_sq=1.0,
                energy=0.0,
                l4_fourth=0.0,
                l6_accum=0.0,
                low_sq=l,
                high_sq=h1[i] - l,
                pairing=0.0,
                pairing_ratio=0.0,
            )
        )
    return out


class TestSplittingSchedule:
    def test_g_starts_at_one(self):
        for sched in (dg.SplittingSchedule(dg.LOG_CUBED), dg.SplittingSchedule(dg.POWER, 2.5)):
            assert sched.g(0.0) == pytest.approx(1.0)

    def test_g_increasing(self):
        ts = np.linspace(0, 50, 200)
        for sched in (dg.SplittingSchedule(dg.LOG_CUBED), dg.SplittingSchedule(dg.POWER, 1.5)):
            gs = [sched.g(t) for t in ts]
            assert np.all(np.diff(gs) > 0)

    def test_log_cubed_radius_at_zero(self):
        # r(0) = sqrt(3 / (e ln e)) = sqrt(3/e)
        sched = dg.SplittingSchedule(dg.LOG_CUBED)
        assert sched.radius(0.0) == pytest.approx(np.sqrt(3.0 / np.e), rel=1e-12)
        assert sched.radius(0.0) == pytest.approx(1.0505, abs=2e-4)

    def test_power_radius_formula(self):
        for alpha in (3.0, 0.5):
            sched = dg.SplittingSchedule(dg.POWER, alpha=alpha)
            for t in (0.0, 1.0, 9.0):
                assert sched.radius(t) == pytest.approx(np.sqrt(alpha / (1.0 + t)))


class TestRecord:
    def test_zero_field(self, grid):
        zero = SpectralField(grid, np.zeros(grid.spectral_shape, dtype=complex))
        rec = dg.record(ev.initial_state(zero), SCHEDULE)
        assert rec.h1_sq == 0 and rec.grad_h1_sq == 0 and rec.energy == 0
        assert rec.pairing == 0 and rec.pairing_ratio == 0

    def test_single_mode_h1(self, grid):
        a = 0.3
        state = ev.initial_state(transform_forward(cosine_field(grid, a)))
        rec = dg.record(state, SCHEDULE)
        expected = grid.frequency_spacing**2 * a**2 * grid.side_length**4 / 2.0
        assert rec.h1_sq == pytest.approx(expected, rel=1e-12)

    def test_energy_scaling_of_bump(self, grid):
        # E(delta b) = delta^2/2 ||grad b||^2 - delta^4/4 ||b||_4^4, positive when small
        base = cosine_field(grid, 1.0)
        rec1 = dg.record(ev.initial_state(transform_forward(base)), SCHEDULE)
        delta = 0.01
        scaled = PhysicalField(grid, delta * base.values)
        rec2 = dg.record(ev.initial_state(transform_forward(scaled)), SCHEDULE)
        expected = 0.5 * delta**2 * rec1.h1_sq - 0.25 * delta**4 * rec1.l4_fourth
        assert rec2.energy == pytest.approx(expected, rel=1e-10)
        assert rec2.energy > 0

    def test_pairing_single_mode_closed_form_and_lattice_sum(self, grid):
        # <Lambda u, Lambda(u^3)> = (3/8) a^4 dxi^2 L^4 for u = a cos(dxi x1)
        a = 0.8
        state = ev.initial_state(transform_forward(cosine_field(grid, a)))
        rec = dg.record(state, SCHEDULE)
        closed = (3.0 / 8.0) * a**4 * grid.frequency_spacing**2 * grid.side_length**4
        assert rec.pairing == pytest.approx(closed, rel=1e-12)

        # independent route: physical-space lattice sum of (Lambda u)(Lambda u^3)
        u_hat = state.u_hat
        lam = sobolev_multiplier(grid, 1.0)
        cubic = full_cubic(u_hat)
        lam_u = transform_inverse(SpectralField(grid, u_hat.coefficients * lam))
        lam_cubic = transform_inverse(SpectralField(grid, cubic.coefficients * lam))
        lattice = grid.spacing**4 * np.sum(lam_u.values * lam_cubic.values)
        assert rec.pairing == pytest.approx(lattice, rel=1e-10)

        # ratio is amplitude-independent: (3/2) / (2 pi)^4
        assert rec.pairing_ratio == pytest.approx(1.5 / (2 * np.pi) ** 4, rel=1e-10)


def _counted(func, log):
    """Wrap `func` to log each call's first argument and whether it asked for `dealiased`."""

    def wrapper(field, *args, **kwargs):
        log.append((field, kwargs.get("dealiased", False)))
        return func(field, *args, **kwargs)

    return wrapper


class TestRecordCaches:
    @pytest.fixture()
    def datum(self, grid, rng):
        return transform_forward(PhysicalField(grid, 0.3 * rng.standard_normal(grid.shape)))

    def test_nonlinear_pairing_is_the_cubic_pairing(self, datum):
        start = ev.initial_state(datum)
        (stepped,) = ev.advance(ev.initial_state(datum), (0.01,), 0.005)
        for state in (start, stepped):
            direct = sobolev_inner(state.u_hat, full_cubic(state.u_hat), 1.0)
            assert dg.record(state, SCHEDULE).pairing == direct

    def test_linear_state_computes_its_cubic(self, datum):
        # the linear equation has no cubic: the pairing the energy identity
        # integrates, and the record reports, is 0
        state = ev.initial_state(datum, nonlinear=False)
        pairing = dg.record(state, SCHEDULE).pairing
        assert pairing == 0.0 and pairing == state.rates().pairing

    def test_l4_mass_of_dealiased_field(self, datum):
        # the field the cubic sees; the random datum has modes out of the band
        rec = dg.record(ev.initial_state(datum), SCHEDULE)
        mask = kept_band_mask(datum.grid)
        u = transform_inverse(SpectralField(datum.grid, datum.coefficients * mask)).values
        assert rec.l4_fourth == pytest.approx(datum.grid.spacing**4 * np.sum(u**4), rel=1e-14)

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_sobolev_masses_match_sobolev_norm_sq(self, datum, nonlinear):
        (state,) = ev.advance(ev.initial_state(datum, nonlinear=nonlinear), (0.01,), 0.005)
        assert state.step_count == 2
        rec = dg.record(state, dg.SplittingSchedule(dg.POWER, 2.5))
        assert rec.h1_sq == sobolev_norm_sq(state.u_hat, 1.0)
        assert rec.grad_h1_sq == sobolev_norm_sq(state.u_hat, 2.0)

    def test_h1_density_sum_is_sobolev_norm_sq(self, rng):
        big = TorusGrid(32, 32.0)
        spec = transform_forward(PhysicalField(big, rng.standard_normal(big.shape)))
        total, low, high = dg.splitting_split(spec, dg.SplittingSchedule(dg.POWER, 2.5), 0.5)
        assert total == sobolev_norm_sq(spec, 1.0)
        assert low > 0 and high > 0

    def test_second_record_reuses_the_state(self, datum, monkeypatch):
        (state,) = ev.advance(ev.initial_state(datum), (0.01,), 0.005)
        first = dg.record(state, dg.SplittingSchedule(dg.POWER, 2.5))
        calls = []
        names = ("transform_inverse", "band_inverse", "transform_forward", "sobolev_norm_sq")
        for module in (ev, dg):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(
                        module, name, _counted(getattr(module, name), calls)
                    )
        second = dg.record(state, dg.SplittingSchedule(dg.LOG_CUBED))
        assert calls == []
        assert (second.h1_sq, second.grad_h1_sq, second.pairing) == (
            first.h1_sq, first.grad_h1_sq, first.pairing,
        )

    def test_second_linear_record_transforms_nothing(self, datum, monkeypatch):
        # a linear state caches its rates: the second record
        # transforms nothing
        (state,) = ev.advance(ev.initial_state(datum, nonlinear=False), (0.01,), 0.005)
        first = dg.record(state, dg.SplittingSchedule(dg.POWER, 2.5))
        calls = []
        names = ("transform_inverse", "band_inverse", "transform_forward", "sobolev_inner")
        for module in (ev, dg):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _counted(getattr(module, name), calls))
        second = dg.record(state, dg.SplittingSchedule(dg.LOG_CUBED))
        assert calls == []
        assert second.pairing.hex() == first.pairing.hex()

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_transforms_per_state(self, datum, monkeypatch, nonlinear):
        full, band, forward = [], [], []
        stage_cubics, stage_forward = [], []
        for module in (spectral, ev, dg):
            if hasattr(module, "transform_inverse"):
                monkeypatch.setattr(
                    module, "transform_inverse", _counted(module.transform_inverse, full)
                )
        monkeypatch.setattr(ev, "band_inverse", _counted(ev.band_inverse, band))
        monkeypatch.setattr(ev, "transform_forward", _counted(ev.transform_forward, forward))
        monkeypatch.setattr(ev, "band_forward", _counted(ev.band_forward, stage_forward))
        monkeypatch.setattr(ev, "nonlinear_term", _counted(ev.nonlinear_term, stage_cubics))
        start = ev.initial_state(datum, nonlinear=nonlinear)
        (end,) = ev.advance(start, (0.02,), 0.005)
        dg.record(end, dg.SplittingSchedule(dg.POWER, 2.5))
        dg.record(end, dg.SplittingSchedule(dg.LOG_CUBED))
        ev.stability_bound(end)
        n = end.step_count
        assert n == 4
        # the records and the bounds read the rates: no full inverse
        assert full == []
        # each of the n + 1 states: one dealiased inverse and, nonlinear,
        # one forward transform of its cube; each nonlinear step: three RK4
        # stage cubics, which transform the compact band; no record
        # computes a cubic
        stages = 3 * n if nonlinear else 0
        assert len(stage_cubics) == stages
        assert len(band) == (n + 1) + stages
        assert len(forward) == (n + 1 if nonlinear else 0)
        assert len(stage_forward) == stages
        assert all(dealiased for _, dealiased in forward)


class TestSplittingSplit:
    def test_partition_is_exact(self, grid, rng):
        spec = transform_forward(PhysicalField(grid, rng.standard_normal(grid.shape)))
        sched = dg.SplittingSchedule(dg.POWER, alpha=2.5)
        rec = dg.record(ev.initial_state(spec), sched)
        assert abs(rec.low_sq + rec.high_sq - rec.h1_sq) <= 1e-13 * rec.h1_sq

    def test_radius_above_corner_keeps_everything(self, grid, rng):
        spec = transform_forward(PhysicalField(grid, rng.standard_normal(grid.shape)))
        # a large alpha pushes r(0) = sqrt(alpha) above the Nyquist corner 16
        sched = dg.SplittingSchedule(dg.POWER, alpha=2.5e6)
        _, low, high = dg.splitting_split(spec, sched, 0.0)
        assert high == 0.0
        assert low > 0

    def test_vanishing_radius_keeps_nothing(self, grid, rng):
        spec = transform_forward(PhysicalField(grid, rng.standard_normal(grid.shape)))
        # r(0) = sqrt(alpha) = 1.6e-6, below the first shell |xi| = 1
        sched = dg.SplittingSchedule(dg.POWER, alpha=2.5e-12)
        _, low, high = dg.splitting_split(spec, sched, 0.0)
        assert low == 0.0
        assert high > 0


class TestLyapunov:
    def test_decreasing_passes(self):
        ts = np.linspace(0, 1, 10)
        recs = synthetic_records(ts, np.exp(-ts))
        report = dg.lyapunov_check(recs)
        assert report.passed and not report.violations

    def test_increase_flagged(self):
        recs = synthetic_records([0.0, 1.0, 2.0], [1.0, 0.5, 0.8])
        report = dg.lyapunov_check(recs)
        assert not report.passed
        assert report.violations[0][:2] == (1.0, 2.0)

    def test_tolerance_respected(self):
        # a relative rise within LYAPUNOV_TOL = 1e-10 passes, one beyond it fails
        assert dg.lyapunov_check(synthetic_records([0.0, 1.0], [1.0, 1.0 + 1e-12])).passed
        assert not dg.lyapunov_check(synthetic_records([0.0, 1.0], [1.0, 1.0 + 1e-9])).passed


class TestEnergyIdentity:
    def test_zero_run(self, grid):
        zero = SpectralField(grid, np.zeros(grid.spectral_shape, dtype=complex))
        start = ev.initial_state(zero)
        (end,) = ev.advance(start, (0.2,), 0.05)
        assert dg.energy_identity_residual(start, end) == 0.0

    def test_linear_run_parseval_identity(self):
        # without pairing the identity is pure Parseval calculus; on the
        # slowly decaying L = 32 grid the trapezoid bias sits below 1e-10
        slow = TorusGrid(16, 32.0)
        datum = transform_forward(cosine_field(slow, 0.5))
        start = ev.initial_state(datum, nonlinear=False)
        (end,) = ev.advance(start, (0.2,), 0.001)
        assert dg.energy_identity_residual(start, end) <= 1e-10

    def test_nonlinear_second_order_refinement(self, grid):
        datum = transform_forward(cosine_field(grid, 0.5))
        residuals = []
        for dt in (0.02, 0.01, 0.005):
            start = ev.initial_state(datum, nonlinear=True)
            (end,) = ev.advance(start, (0.4,), dt)
            residuals.append(dg.energy_identity_residual(start, end))
        ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
        assert all(r >= 3.5 for r in ratios), (residuals, ratios)


class TestPairingReport:
    def test_max_located(self):
        recs = synthetic_records([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        recs[1] = dg.DiagnosticsRecord(
            t=1.0, h1_sq=1.0, grad_h1_sq=1.0, energy=0, l4_fourth=0,
            l6_accum=0, low_sq=1.0, high_sq=0.0, pairing=0.5, pairing_ratio=0.5,
        )
        report = dg.pairing_ratio_report(recs)
        assert report.max_ratio == 0.5 and report.t_at_max == 1.0


class TestRateFit:
    def test_exact_power_law(self):
        ts = np.geomspace(0.1, 50, 30)
        recs = synthetic_records(ts, 7.0 * (1 + ts) ** -2.0)
        fit = dg.fit_decay_rate(recs, (0.1, 50.0))
        assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_window_filtering_and_errors(self):
        ts = np.geomspace(0.1, 10, 12)
        recs = synthetic_records(ts, (1 + ts) ** -1.0)
        with pytest.raises(dg.UnfittableWindow, match="holds 0 usable records, need 5") as info:
            dg.fit_decay_rate(recs, (100.0, 200.0))
        assert info.value.window == (100.0, 200.0)


class TestBoundCheck:
    def test_pass_when_faster_than_bound(self):
        fit = dg.RateFit(-1.3, (0.1, 1.0), 0.0)
        assert dg.bound_check(0.0, fit)

    def test_fail_when_slower_than_bound(self):
        fit = dg.RateFit(-0.2, (0.1, 1.0), 0.0)
        assert not dg.bound_check(-1.5, fit)

    def test_min_formula(self):
        # q* = -0.5 gives bound min{1.5, 1} = 1
        ok = dg.RateFit(-0.95, (0.1, 1.0), 0.0)
        bad = dg.RateFit(-0.85, (0.1, 1.0), 0.0)
        assert dg.bound_check(-0.5, ok)
        assert not dg.bound_check(-0.5, bad)

    def test_one_sided_property(self):
        # any exponent at least the bound passes, however fast
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.uniform(-1.9, 1.0)
            bound = min(2.0 + q, 1.0)
            observed = bound + rng.uniform(0.0, 5.0)
            fit = dg.RateFit(-observed, (0.1, 1.0), 0.0)
            assert dg.bound_check(q, fit)


class TestKeyInequality:
    def test_satisfied_for_low_concentrated_decay(self):
        # all mass low: d/dt(g h1) - g' h1 = g h1' < 0 for decaying h1
        ts = np.geomspace(0.01, 5.0, 40)
        sched = dg.SplittingSchedule(dg.POWER, alpha=2.0)
        recs = synthetic_records(ts, (1 + ts) ** -2.5)
        report = dg.key_inequality_check(recs, sched)
        assert report.passed, report.max_margin

    def test_violated_for_growth(self):
        ts = np.geomspace(0.01, 5.0, 40)
        sched = dg.SplittingSchedule(dg.POWER, alpha=2.0)
        recs = synthetic_records(ts, np.exp(ts), low=np.zeros_like(ts))
        report = dg.key_inequality_check(recs, sched)
        assert not report.passed
