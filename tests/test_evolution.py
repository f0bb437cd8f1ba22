"""Heat propagator, cubic term, IF-RK4 stepping, Duhamel checks, checkpoints."""

import numpy as np
import pytest

from critheat import evolution as ev
from critheat.spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    hermitian_defect,
    sobolev_norm_sq,
    transform_forward,
)

from conftest import cosine_field


@pytest.fixture(scope="module")
def grid() -> TorusGrid:
    return TorusGrid(16, 2 * np.pi)


@pytest.fixture(scope="module")
def random_spec(grid) -> SpectralField:
    rng = np.random.default_rng(5)
    return transform_forward(PhysicalField(grid, rng.standard_normal(grid.shape)))


class TestHeatPropagate:
    def test_zero_time_identity(self, random_spec):
        out = ev.heat_propagate(random_spec, 0.0)
        assert np.array_equal(out.coefficients, random_spec.coefficients)

    def test_single_mode_factor(self, grid):
        spec = transform_forward(cosine_field(grid))
        t = 0.42
        out = ev.heat_propagate(spec, t)
        factor = np.exp(-t * grid.frequency_spacing**2)
        assert out.coefficients[1, 0, 0, 0] == pytest.approx(
            spec.coefficients[1, 0, 0, 0] * factor, rel=1e-13
        )

    def test_semigroup_property(self, random_spec):
        once = ev.heat_propagate(random_spec, 1.0)
        split = ev.heat_propagate(ev.heat_propagate(random_spec, 0.3), 0.7)
        scale = np.max(np.abs(once.coefficients))
        assert np.max(np.abs(once.coefficients - split.coefficients)) <= 1e-12 * scale

    def test_negative_time_rejected(self, random_spec):
        with pytest.raises(ValueError, match="t >= 0"):
            ev.heat_propagate(random_spec, -1e-3)


class TestNonlinearTerm:
    def test_zero_field(self, grid):
        zero = SpectralField(grid, np.zeros(grid.shape, dtype=complex))
        assert np.all(ev.nonlinear_term(zero).coefficients == 0)

    def test_constant_field_cubes(self, grid):
        field = PhysicalField(grid, np.full(grid.shape, 1.7))
        out = ev.nonlinear_term(transform_forward(field))
        mean = out.coefficients[0, 0, 0, 0] / (grid.spacing**4 * 16**4)
        assert mean == pytest.approx(1.7**3, rel=1e-12)
        rest = out.coefficients.copy()
        rest[0, 0, 0, 0] = 0
        assert np.max(np.abs(rest)) <= 1e-9 * abs(out.coefficients[0, 0, 0, 0])

    def test_cosine_cube_harmonics(self, grid):
        # cos^3 = (3 cos + cos 3.)/4; both harmonics inside the kept band at N=16
        a = 0.9
        out = ev.nonlinear_term(transform_forward(cosine_field(grid, a)))
        per_mode = out.coefficients / (grid.spacing**4 * 16**4)
        assert per_mode[1, 0, 0, 0].real == pytest.approx(3 * a**3 / 8.0, rel=1e-12)
        assert per_mode[3, 0, 0, 0].real == pytest.approx(a**3 / 8.0, rel=1e-12)

    def test_output_hermitian(self, random_spec):
        out = ev.nonlinear_term(random_spec)
        assert hermitian_defect(out) <= 1e-10 * np.max(np.abs(out.coefficients))


class TestStep:
    def test_zero_state_stays_zero(self, grid):
        zero = SpectralField(grid, np.zeros(grid.shape, dtype=complex))
        state = ev.initial_state(zero, nonlinear=True)
        state = ev.step(state, 0.1)
        assert np.all(state.u_hat.coefficients == 0)
        assert state.t == pytest.approx(0.1)

    @pytest.mark.parametrize("dt", [0.5, 0.05, 0.001])
    def test_linear_only_matches_semigroup(self, random_spec, dt):
        state = ev.initial_state(random_spec, nonlinear=False)
        steps = 4
        for _ in range(steps):
            state = ev.step(state, dt)
        exact = ev.heat_propagate(random_spec, steps * dt)
        scale = np.max(np.abs(exact.coefficients))
        assert np.max(np.abs(state.u_hat.coefficients - exact.coefficients)) <= 1e-12 * scale

    def test_accumulators_nondecreasing(self, grid):
        datum = transform_forward(cosine_field(grid, 0.2))
        state = ev.initial_state(datum, nonlinear=True)
        diss, l6 = [0.0], [0.0]
        for _ in range(5):
            state = ev.step(state, 0.02)
            diss.append(state.dissipation_integral)
            l6.append(state.l6_integral)
        assert np.all(np.diff(diss) > 0)
        assert np.all(np.diff(l6) > 0)

    def test_blow_up_guard(self, grid):
        # far above the ground state the cubic dominates and overflows
        huge = transform_forward(cosine_field(grid, 1e4))
        state = ev.initial_state(huge, nonlinear=True)
        with pytest.raises(ev.BlowUpSuspected) as err:
            for _ in range(2000):
                state = ev.step(state, 0.05)
        assert err.value.last_state.step_count >= 0

    def test_duhamel_order_small_amplitude(self, grid):
        # ||u(t) - e^{t Delta} u0|| = O(delta^3)
        t_end = 0.25
        errs = []
        for delta in (0.02, 0.01):
            datum = transform_forward(cosine_field(grid, delta))
            state = ev.initial_state(datum, nonlinear=True)
            state = ev.advance(state, t_end, 0.01)
            linear = ev.heat_propagate(datum, t_end)
            diff = SpectralField(grid, state.u_hat.coefficients - linear.coefficients)
            errs.append(np.sqrt(sobolev_norm_sq(diff, 0.0)))
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(8.0, rel=0.15)


class TestManufacturedOrder:
    def test_fourth_order_convergence(self, grid):
        # forced single-mode solution: u*(t) = phi(t) cos(dxi x1)
        xi1 = grid.frequency_spacing
        mode = transform_forward(cosine_field(grid, 1.0)).coefficients

        def phi(t):
            return 0.5 * np.exp(-t) * (1.0 + 0.3 * np.sin(2.0 * t))

        def phi_dot(t):
            return 0.5 * np.exp(-t) * (0.6 * np.cos(2.0 * t) - 1.0 - 0.3 * np.sin(2.0 * t))

        def exact_hat(t):
            return phi(t) * mode

        def forcing(t):
            linear_part = (phi_dot(t) + xi1**2 * phi(t)) * mode
            cubic = ev.nonlinear_term(SpectralField(grid, exact_hat(t))).coefficients
            return linear_part - cubic

        t_end = 0.5
        errors = []
        dts = [0.1, 0.05, 0.025, 0.0125]
        for dt in dts:
            state = ev.initial_state(SpectralField(grid, exact_hat(0.0)), nonlinear=True)
            for _ in range(int(round(t_end / dt))):
                state = ev.step(state, dt, forcing=forcing)
            diff = SpectralField(grid, state.u_hat.coefficients - exact_hat(t_end))
            errors.append(np.sqrt(sobolev_norm_sq(diff, 0.0)))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(dts) - 1)]
        assert all(o >= 3.7 for o in orders), (errors, orders)


class TestAdvance:
    def test_snaps_to_target(self, random_spec):
        state = ev.initial_state(random_spec, nonlinear=False)
        state = ev.advance(state, 0.3141, 0.1)
        assert state.t == 0.3141

    def test_stability_bound_positive(self, random_spec):
        state = ev.initial_state(random_spec, nonlinear=True)
        assert ev.stability_bound(state) > 0

    def test_bound_clamps_large_dt(self, grid):
        # sup |u| = 3 forces dt <= 0.75/9; the requested big step splits
        # (linear mode so the clamp is observable without blow-up)
        datum = transform_forward(cosine_field(grid, 3.0))
        state = ev.initial_state(datum, nonlinear=False)
        state = ev.advance(state, 0.5, dt_max=10.0)
        assert state.step_count >= int(0.5 / (0.75 / 9.0))

    def test_backwards_rejected(self, random_spec):
        state = ev.initial_state(random_spec, nonlinear=False)
        state = ev.advance(state, 0.2, 0.1)
        with pytest.raises(ValueError, match="backwards"):
            ev.advance(state, 0.1, 0.1)


class TestDuhamelResidual:
    def run_samples(self, grid, amplitude, n_samples, nonlinear=True, t_end=0.4):
        datum = transform_forward(cosine_field(grid, amplitude))
        state = ev.initial_state(datum, nonlinear=nonlinear)
        samples = [ev.duhamel_sample(state)]
        for t in np.linspace(0.0, t_end, n_samples)[1:]:
            state = ev.advance(state, t, 0.002)
            samples.append(ev.duhamel_sample(state))
        return samples

    def test_linear_run_pure_semigroup(self, grid):
        samples = self.run_samples(grid, 0.5, 9, nonlinear=False)
        assert ev.duhamel_residual(samples, grid) <= 1e-12

    def test_zero_datum(self, grid):
        zero = SpectralField(grid, np.zeros(grid.shape, dtype=complex))
        state = ev.initial_state(zero, nonlinear=True)
        samples = [ev.duhamel_sample(state)]
        for t in (0.1, 0.2, 0.3):
            state = ev.advance(state, t, 0.05)
            samples.append(ev.duhamel_sample(state))
        assert ev.duhamel_residual(samples, grid) == 0.0

    def test_second_order_in_sample_density(self, grid):
        coarse = ev.duhamel_residual(self.run_samples(grid, 0.4, 9), grid)
        fine = ev.duhamel_residual(self.run_samples(grid, 0.4, 17), grid)
        assert coarse / fine >= 3.5

    def test_too_few_samples(self, grid):
        samples = self.run_samples(grid, 0.3, 9)[:2]
        with pytest.raises(ValueError, match="at least 3"):
            ev.duhamel_residual(samples, grid)


class TestCheckpoint:
    def test_roundtrip(self, grid, tmp_path, rng):
        field = PhysicalField(grid, rng.standard_normal(grid.shape))
        path = tmp_path / "state.chk"
        ev.save_checkpoint(path, field, t=1.25, step_count=77)
        loaded, t, steps = ev.load_checkpoint(path)
        assert loaded.grid == grid
        assert t == 1.25 and steps == 77
        assert np.array_equal(loaded.values, field.values)

    def test_header_layout(self, grid, tmp_path):
        field = PhysicalField(grid, np.zeros(grid.shape))
        path = tmp_path / "state.chk"
        ev.save_checkpoint(path, field, t=2.0, step_count=3)
        raw = path.read_bytes()
        assert raw[:8] == b"CRITHEAT"
        assert int.from_bytes(raw[8:16], "little") == 16
        assert np.frombuffer(raw[16:24], "<f8")[0] == grid.side_length
        assert np.frombuffer(raw[24:32], "<f8")[0] == 2.0
        assert int.from_bytes(raw[32:40], "little") == 3
        assert len(raw) == 40 + 16**4 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.chk"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            ev.load_checkpoint(path)

    def test_truncated_payload_rejected(self, grid, tmp_path):
        field = PhysicalField(grid, np.zeros(grid.shape))
        path = tmp_path / "trunc.chk"
        ev.save_checkpoint(path, field, t=0.0, step_count=0)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="payload"):
            ev.load_checkpoint(path)
