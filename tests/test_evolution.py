"""Heat propagator, cubic term, IF-RK4 stepping, Duhamel checks, checkpoints."""

import warnings
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from critheat import decay as dc
from critheat import evolution as ev
from critheat.spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    sobolev_inner,
    sobolev_norm_sq,
    transform_forward,
    transform_inverse,
)

from conftest import cosine_field, full_cubic, kept_band_mask, traced_peak


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


class TestNonlinearTerm:
    def test_zero_field(self, grid):
        zero = SpectralField(grid, np.zeros(grid.spectral_shape, dtype=complex))
        assert np.all(full_cubic(zero).coefficients == 0)

    def test_constant_field_cubes(self, grid):
        field = PhysicalField(grid, np.full(grid.shape, 1.7))
        out = full_cubic(transform_forward(field))
        mean = out.coefficients[0, 0, 0, 0] / (grid.spacing**4 * 16**4)
        assert mean == pytest.approx(1.7**3, rel=1e-12)
        rest = out.coefficients.copy()
        rest[0, 0, 0, 0] = 0
        assert np.max(np.abs(rest)) <= 1e-9 * abs(out.coefficients[0, 0, 0, 0])

    def test_cosine_cube_harmonics(self, grid):
        # cos^3 = (3 cos + cos 3.)/4; both harmonics inside the kept band at N=16
        a = 0.9
        out = full_cubic(transform_forward(cosine_field(grid, a)))
        per_mode = out.coefficients / (grid.spacing**4 * 16**4)
        assert per_mode[1, 0, 0, 0].real == pytest.approx(3 * a**3 / 8.0, rel=1e-12)
        assert per_mode[3, 0, 0, 0].real == pytest.approx(a**3 / 8.0, rel=1e-12)

    def test_output_hermitian(self, random_spec):
        # the output is the half spectrum of a real field: a round trip
        # through physical space returns it
        out = full_cubic(random_spec).coefficients
        back = transform_forward(transform_inverse(SpectralField(random_spec.grid, out)))
        assert np.max(np.abs(back.coefficients - out)) <= 1e-12 * np.max(np.abs(out))

    @pytest.mark.parametrize("datum", ["random", "power_law"])
    def test_state_rates_hold_the_same_cubic(self, random_spec, datum):
        # the first RK4 stage of a step is the cubic cached with the state's rates
        if datum == "power_law":
            u_hat = dc.synthesize_datum(TorusGrid(16, 16.0), 0.0, 1.4)
        else:
            u_hat = random_spec
        cached = ev.initial_state(u_hat).rates().nl_hat
        assert np.array_equal(cached, full_cubic(u_hat).coefficients)


def padded_cubic(u_hat: SpectralField) -> np.ndarray:
    """The exact dealiased cubic, from the cube on a 2x zero-padded full lattice.

    The kept modes satisfy |k_i| <= N/3, so the cube's modes satisfy
    |k_i| <= N and none aliases onto a kept mode of the 2N lattice. Only
    numpy.fft is used.
    """
    grid = u_hat.grid
    n, m = grid.points_per_dim, 2 * grid.points_per_dim
    h4 = grid.spacing**4
    mask = kept_band_mask(grid)
    v = np.fft.irfftn(u_hat.coefficients * mask, s=grid.shape, axes=(0, 1, 2, 3)) / h4
    idx = np.fft.fftfreq(n, 1.0 / n).astype(int) % m
    modes = np.ix_(idx, idx, idx, idx)
    padded = np.zeros((m,) * 4, dtype=complex)
    padded[modes] = np.fft.fftn(v)
    fine = np.fft.ifftn(padded).real * (m / n) ** 4
    full = np.fft.fftn(fine * fine * fine)[modes] * (n / m) ** 4
    return h4 * full[..., : n // 2 + 1] * mask


class TestPaddedProduct:
    """The 2/3-rule cubic against the exact product of the dealiased field.

    Measured at N = 16: 2.6e-16 on the power-law datum (L = 16, cutoff
    1.4, the benchmark's grid), 4.1e-6 on the bump (L = 32, the
    energy-identity grid) and 0.22 on a random dealiased field, whose
    cube reaches the aliased band. Relative to the largest exact
    coefficient.
    """

    @staticmethod
    def defect(u_hat: SpectralField) -> float:
        want = padded_cubic(u_hat)
        got = full_cubic(u_hat).coefficients
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

    def test_power_law_datum_is_alias_free(self):
        datum = dc.synthesize_datum(TorusGrid(16, 16.0), 0.0, 1.4)
        assert self.defect(datum) <= 1e-14

    def test_bump_aliasing_is_small(self):
        # the relative defect of a cubic does not depend on the datum's size
        assert self.defect(dc.bump_datum(TorusGrid(16, 32.0))) <= 1e-5

    def test_oracle_sees_aliasing(self, random_spec):
        masked = random_spec.coefficients * kept_band_mask(random_spec.grid)
        assert self.defect(SpectralField(random_spec.grid, masked)) >= 0.1


class TestStep:
    def test_zero_state_stays_zero(self, grid):
        zero = SpectralField(grid, np.zeros(grid.spectral_shape, dtype=complex))
        state = ev.initial_state(zero, nonlinear=True)
        state = ev.step(state, 0.1)
        assert np.all(state.u_hat.coefficients == 0)
        assert state.t == pytest.approx(0.1)

    def test_linear_state_rejects_forcing(self, random_spec):
        state = ev.initial_state(random_spec, nonlinear=False)
        with pytest.raises(ValueError, match="forcing needs a nonlinear state"):
            ev.step(state, 0.1, forcing=lambda t: np.zeros(random_spec.grid.spectral_shape))

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

    def test_band_limited_blow_up_guard(self):
        # a band-limited state's rates sum u^4 before the forward transform
        # of its cube names the blow-up; no overflow warning comes first
        unit = dc.synthesize_datum(TorusGrid(16, 16.0), 0.0, 1.4)
        datum = SpectralField(unit.grid, 1000.0 * unit.coefficients)
        state = ev.initial_state(datum)
        assert state.band_limited
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ev.BlowUpSuspected) as err:
                for _ in range(100):
                    state = ev.step(state, 0.01)
        assert err.value.last_state.band_limited

    def test_duhamel_order_small_amplitude(self, grid):
        # ||u(t) - e^{t Delta} u0|| = O(delta^3)
        t_end = 0.25
        errs = []
        for delta in (0.02, 0.01):
            datum = transform_forward(cosine_field(grid, delta))
            state = ev.initial_state(datum, nonlinear=True)
            (state,) = ev.advance(state, (t_end,), 0.01)
            linear = ev.heat_propagate(datum, t_end)
            diff = SpectralField(grid, state.u_hat.coefficients - linear.coefficients)
            errs.append(np.sqrt(sobolev_norm_sq(diff, 0.0)))
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(8.0, rel=0.15)


def masked_cubic(coeffs: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """The dealiased cubic from the full transforms and the 2/3 mask, and the cube it transforms."""
    mask = kept_band_mask(grid)
    v = transform_inverse(SpectralField(grid, coeffs * mask)).values
    cube = v * v
    cube *= v
    return transform_forward(PhysicalField(grid, cube)).coefficients * mask, cube


class TestCompactStepOracle:
    """`ev.step` against a full-lattice IF-RK4 built from the masked full transforms.

    The oracle keeps the whole update on the half lattice, with every stage
    a cubic of the masked field, so it never gathers or scatters a band.
    The step must reproduce it bit for bit: coefficients and rates.
    """

    @staticmethod
    def oracle(u: np.ndarray, grid: TorusGrid, dt: float, steps: int):
        e1 = np.exp(-(0.5 * dt) * grid.xi_mag**2)
        e2 = e1 * e1
        a, _ = masked_cubic(u, grid)
        out = []
        for _ in range(steps):
            b, _ = masked_cubic(e1 * (u + 0.5 * dt * a), grid)
            c, _ = masked_cubic(e1 * u + 0.5 * dt * b, grid)
            d, _ = masked_cubic(e2 * u + dt * e1 * c, grid)
            u = e2 * u + (dt / 6.0) * (e2 * a + 2.0 * e1 * (b + c) + d)
            a, cube = masked_cubic(u, grid)
            spec = SpectralField(grid, u)
            rates = (
                sobolev_norm_sq(spec, 2.0),
                sobolev_inner(spec, SpectralField(grid, a), 1.0),
                float(grid.spacing**4 * np.sum(cube * cube)),
            )
            out.append((u, rates))
        return out

    @pytest.mark.parametrize("datum", ["power_law", "random", "random_n18"])
    def test_three_steps_match_the_oracle(self, random_spec, datum):
        if datum == "power_law":
            # band-limited, scaled so that the cubic is felt: sup |u| = 0.99
            grid = TorusGrid(16, 16.0)
            u0 = SpectralField(grid, 200.0 * dc.synthesize_datum(grid, 0.0, 1.4).coefficients)
            dt = 0.05
        elif datum == "random":
            u0, dt = random_spec, 0.01
        else:
            grid = TorusGrid(18, 2 * np.pi)
            rng = np.random.default_rng(18)
            u0 = transform_forward(PhysicalField(grid, 0.5 * rng.standard_normal(grid.shape)))
            dt = 0.01
        grid = u0.grid
        state = ev.initial_state(u0)
        assert state.band_limited == (datum == "power_law")
        for want, want_rates in self.oracle(u0.coefficients, grid, dt, 3):
            state = ev.step(state, dt)
            assert np.array_equal(state.u_hat.coefficients, want)
            got = state.rates()
            assert [x.hex() for x in (got.dissipation, got.pairing, got.l6)] == [
                x.hex() for x in want_rates
            ]
        assert state.pairing_integral != 0.0


class TestLatticeArraysHeldOnce:
    def test_initial_state_shares_the_datum_read_only(self, random_spec):
        state = ev.initial_state(random_spec)
        assert np.shares_memory(state.u_hat.coefficients, random_spec.coefficients)
        with pytest.raises(ValueError, match="read-only"):
            state.u_hat.coefficients *= 2.0
        assert random_spec.coefficients.flags.writeable

    def test_linear_step_holds_one_factor(self, random_spec):
        # the new state (1), the dealiased inverse's work array (1) and field
        # (16/18) peak together with the factor e^{-dt|xi|^2} (0.5) released;
        # e^{-dt|xi|^2/2} and e^{-dt|xi|^2} both alive add 1.0
        state = ev.initial_state(random_spec, nonlinear=False)
        state.rates()
        ev.step(state, 0.5)  # first calls, outside the trace
        assert traced_peak(lambda: ev.step(state, 0.5), random_spec.grid) <= 3.0

    def test_nonlinear_step_holds_its_stages_on_the_band(self, random_spec):
        # the RK4 stages are compact bands (0.22 each at N = 16), released
        # before the new state's rates run; with full-lattice stages the
        # step peaked at 7.97
        state = ev.initial_state(random_spec)
        state.rates()
        ev.step(state, 0.01)  # first calls, outside the trace
        assert traced_peak(lambda: ev.step(state, 0.01), random_spec.grid) <= 6.5


    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_step_leaves_a_state_its_caller_holds_as_it_was(self, random_spec, nonlinear):
        # a step drops only its own references to the old state
        state = ev.initial_state(random_spec, nonlinear=nonlinear)
        before = state.u_hat.coefficients.copy()
        rates = state.rates()
        assert ev.step(state, 0.01) is not state
        assert np.array_equal(state.u_hat.coefficients, before)
        assert state.rates() is rates
        assert (state.t, state.step_count) == (0.0, 0)

    def test_advance_releases_a_linear_substep_state(self, random_spec, monkeypatch):
        # `advance` hands each state to `step`, which drops it before the new
        # state's rates run: at every dealiased inverse one state is alive
        made, alive = [], []
        rates, inverse = ev.SolverState.rates, ev.band_inverse

        def traced_rates(self):
            if self._rates is None:
                made.append(weakref.ref(self))
            return rates(self)

        def traced_inverse(band, grid):
            alive.append(sum(ref() is not None for ref in made))
            return inverse(band, grid)

        monkeypatch.setattr(ev.SolverState, "rates", traced_rates)
        monkeypatch.setattr(ev, "band_inverse", traced_inverse)
        (end,) = ev.advance(ev.initial_state(random_spec, nonlinear=False), (0.5,), 0.1)
        assert end.step_count >= 5
        assert alive == [1] * (end.step_count + 1)


class TestHeldField:
    """A band-limited state stays band-limited, and its rates compute its norms."""

    @pytest.fixture()
    def power_law(self) -> SpectralField:
        # cutoff 1.4 lies inside the 2/3 band at N = L = 16
        return dc.synthesize_datum(TorusGrid(16, 16.0), 0.0, 1.4)

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_steps_keep_out_of_band_modes_zero(self, power_law, nonlinear):
        outside = ~kept_band_mask(power_law.grid)
        state = ev.initial_state(power_law, nonlinear=nonlinear)
        assert state.band_limited
        for _ in range(3):
            state = ev.step(state, 0.05)
            assert state.band_limited
            assert np.all(state.u_hat.coefficients[outside] == 0)
            assert np.count_nonzero(state.u_hat.coefficients) > 0

    def test_forcing_clears_the_flag(self, power_law):
        state = ev.initial_state(power_law)
        forced = ev.step(state, 0.05, forcing=lambda t: np.zeros(power_law.grid.spectral_shape))
        assert not forced.band_limited

    @pytest.mark.parametrize("datum", ["power_law", "random"])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_norms_equal_the_full_inverse_norms(self, power_law, random_spec, datum, nonlinear):
        # a band-limited state reads the dealiased field of its rates; any
        # other state, like the fresh one here, a full inverse transform
        u0 = power_law if datum == "power_law" else random_spec
        (state,) = ev.advance(ev.initial_state(u0, nonlinear=nonlinear), (0.1,), 0.05)
        assert state.band_limited == (datum == "power_law")
        got = state.observables()
        full = ev.SolverState(t=state.t, u_hat=state.u_hat).observables()
        assert got == full

    @pytest.mark.parametrize("datum", ["power_law", "random"])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_observables_after_a_step_left_the_state(
        self, power_law, random_spec, datum, nonlinear
    ):
        # a step computes the rates of the state it leaves, and with them
        # the observables of a band-limited one
        u0 = power_law if datum == "power_law" else random_spec
        left = ev.initial_state(u0, nonlinear)
        ev.step(left, 0.05)
        fresh = ev.initial_state(u0, nonlinear).observables()
        got = left.observables()
        assert [v.hex() for v in astuple(got)] == [v.hex() for v in astuple(fresh)]

    @pytest.mark.parametrize("datum", ["power_law", "random"])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_which_rates_compute_the_observables(self, power_law, random_spec, datum, nonlinear):
        state = ev.initial_state(power_law if datum == "power_law" else random_spec, nonlinear)
        state.rates()
        assert (state._observables is not None) == (datum == "power_law")
        before = dict(vars(state))
        new = ev.step(state, 0.05)
        # the step writes nothing to the state it leaves
        assert all(getattr(state, name) is value for name, value in before.items())
        assert (new._observables is not None) == (datum == "power_law")


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
            cubic = full_cubic(SpectralField(grid, exact_hat(t))).coefficients
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
        (state,) = ev.advance(state, (0.3141,), 0.1)
        assert state.t == 0.3141

    def test_stability_bound_positive(self, random_spec):
        state = ev.initial_state(random_spec, nonlinear=True)
        assert ev.stability_bound(state) > 0

    def test_bound_clamps_large_dt(self, grid):
        # sup |u| = 3 forces dt <= 0.75/9; the requested big step splits
        # (linear mode so the clamp is observable without blow-up)
        datum = transform_forward(cosine_field(grid, 3.0))
        state = ev.initial_state(datum, nonlinear=False)
        (state,) = ev.advance(state, (0.5,), dt_max=10.0)
        assert state.step_count >= int(0.5 / (0.75 / 9.0))


class TestDuhamelResidual:
    def run_samples(self, grid, amplitude, n_samples, nonlinear=True, t_end=0.4):
        datum = transform_forward(cosine_field(grid, amplitude))
        state = ev.initial_state(datum, nonlinear=nonlinear)
        samples = [ev.duhamel_sample(state)]
        for t in np.linspace(0.0, t_end, n_samples)[1:]:
            (state,) = ev.advance(state, (t,), 0.002)
            samples.append(ev.duhamel_sample(state))
        return samples

    def test_linear_run_pure_semigroup(self, grid):
        samples = self.run_samples(grid, 0.5, 9, nonlinear=False)
        assert ev.duhamel_residual(samples, grid) <= 1e-12

    def test_zero_datum(self, grid):
        zero = SpectralField(grid, np.zeros(grid.spectral_shape, dtype=complex))
        state = ev.initial_state(zero, nonlinear=True)
        samples = [ev.duhamel_sample(state)]
        for t in (0.1, 0.2, 0.3):
            (state,) = ev.advance(state, (t,), 0.05)
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
        loaded = ev.load_checkpoint(path)
        assert loaded.grid == grid
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
