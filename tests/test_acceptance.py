"""Acceptance gate: every numerically checkable claim at its stated tolerance.

Each criterion prints one pass/fail line (visible with pytest -s) and
asserts at the tolerance it states. Expensive solver runs are shared
through module-scoped fixtures.

Criterion 3 note: the coefficient of the logarithmic L^2-mass growth of
the ground state follows from its far field W ~ 8 |x|^{-2}, giving
W^2 ~ 64 |x|^{-4} and slope 64 * |S^3| = 128 pi^2; the independent
antiderivative oracle in test_bubble.py confirms it.
"""

import json
import time

import numpy as np
import pytest

from critheat import bubble as bb
from critheat import decay as dc
from critheat import diagnostics as dg
from critheat import evolution as ev
from critheat.config import parse_config
from critheat.experiments import _RUNNERS, ExperimentSpec, run_experiment
from critheat.spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    sobolev_norm_sq,
    transform_forward,
)

from conftest import full_cubic


def report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


@pytest.fixture(scope="module")
def lyapunov_summary():
    cfg = parse_config(None, "lyapunov")
    with _Timer() as timer:
        summary, records = _RUNNERS["lyapunov"](cfg)
    return summary, records, all(summary["verdicts"].values()), timer.elapsed


@pytest.fixture(scope="module")
def nonlinear_q0_summary():
    cfg = parse_config(None, "nonlinear-decay")
    with _Timer() as timer:
        summary, _ = _RUNNERS["nonlinear-decay"](cfg)
    return summary, timer.elapsed


@pytest.fixture(scope="module")
def nonlinear_qm15_summary(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "qm15.cfg"
    path.write_text("profile_r = -1.5\n")
    cfg = parse_config(path, "nonlinear-decay")
    with _Timer() as timer:
        summary, _ = _RUNNERS["nonlinear-decay"](cfg)
    return summary, timer.elapsed


def test_criterion_1_bubble_constants():
    with _Timer() as timer:
        consts = bb.bubble_constants()
    exact = 32.0 * np.pi**2 / 3.0
    checks = [
        abs(consts.grad_l2_sq / exact - 1.0) <= 1e-6,
        abs(consts.l4_fourth / exact - 1.0) <= 1e-6,
        abs(consts.energy / (8.0 * np.pi**2 / 3.0) - 1.0) <= 1e-6,
        abs(consts.energy - 0.25 * consts.grad_l2_sq) <= 1e-6 * consts.grad_l2_sq,
        abs(bb.sobolev_constant_general(4) / consts.grad_l2_sq**-0.25 - 1.0) <= 1e-6,
        timer.elapsed < 1.0,
    ]
    report(
        "criterion 1: bubble constants (grad, L4, energy, Sobolev) to 1e-6",
        all(checks),
        f"grad={consts.grad_l2_sq:.9f} vs {exact:.9f}, {timer.elapsed:.2f}s",
    )


def test_criterion_2_stationarity_order():
    with _Timer() as timer:
        rng = np.random.default_rng(0)
        pts = rng.uniform(-8.0, 8.0, size=(100, 4))
        residuals = [max(bb.stationarity_residual(pts, h)) for h in (0.02, 0.01, 0.005)]
        orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok = all(abs(o - 2.0) <= 0.1 for o in orders) and timer.elapsed < 1.0
    report(
        "criterion 2: stationarity residual vanishes at order 2.0 +- 0.1",
        ok,
        f"orders={[f'{o:.3f}' for o in orders]}, {timer.elapsed:.2f}s",
    )


def test_criterion_3_not_in_l2():
    with _Timer() as timer:
        radii = np.geomspace(1e2, 1e4, 9)
        masses = bb.truncated_l2_growth(radii)
        slope = float(np.polyfit(np.log(radii), masses, 1)[0])
    expected = 128.0 * np.pi**2  # 64 |S^3|, from the W ~ 8|x|^{-2} far field
    ok = abs(slope / expected - 1.0) <= 0.02 and timer.elapsed < 1.0
    report(
        "criterion 3: truncated L2 mass grows like 128 pi^2 ln R (+- 2%)",
        ok,
        f"slope={slope:.3f} vs {expected:.3f}, {timer.elapsed:.2f}s",
    )


def test_criterion_4_decay_character_estimator():
    with _Timer() as timer:
        errs = []
        for r in (-1.0, 0.0, 1.0, 2.0):
            est = dc.estimate_decay_character(dc.power_law_profile(r))
            errs.append(abs(est.r_star - r))
        classifiers_exact = (
            dc.classify_lp(4.0 / 3.0, 4) == -1.0
            and abs(dc.classify_lp(1.5, 4) + 4.0 / 3.0) < 1e-14
            and dc.classify_weighted(1.0, True) == 1.0
            and dc.classify_weighted(0.5, False) == 0.0
            and dc.classify_weighted(0.0, True) == 0.0
        )
    ok = max(errs) <= 0.05 and classifiers_exact and timer.elapsed < 1.0
    report(
        "criterion 4: r* recovery +-0.05 on {-1,0,1,2}; classifiers exact",
        ok,
        f"max err={max(errs):.4f}, {timer.elapsed:.2f}s",
    )


def test_criterion_5_linear_decay_law():
    with _Timer() as timer:
        times = np.geomspace(1e2, 1e6, 41)
        worst = 0.0
        for r_star in (-1.0, -0.5, 0.0, 1.0):
            for alpha in (1.0, 0.5):
                vals = dc.radial_linear_evolution(dc.power_law_profile(r_star), alpha, times)
                slope = np.polyfit(np.log1p(times), np.log(vals), 1)[0]
                worst = max(worst, abs(slope + dc.linear_decay_exponent(r_star, alpha)))
        gauss = dc.gaussian_profile()
        t_check = [0.0, 0.5, 1.0, 10.0, 1e3, 1e6]
        gvals = dc.radial_linear_evolution(gauss, 1.0, t_check)
        gerr = max(
            abs(v / (np.pi**2 / (1.0 + 2.0 * t) ** 2) - 1.0)
            for v, t in zip(gvals, t_check)
        )
    ok = worst <= 0.05 and gerr <= 1e-8 and timer.elapsed < 10.0
    report(
        "criterion 5: 8-case linear exponents +-0.05; Gaussian to 1e-8",
        ok,
        f"worst exponent err={worst:.4f}, gaussian err={gerr:.2e}, {timer.elapsed:.1f}s",
    )


def test_criterion_6_torus_linear_consistency():
    cfg = parse_config(None, "linear-decay")
    with _Timer() as timer:
        summary, _ = _RUNNERS["linear-decay"](cfg)
    fit = summary["torus_fit"]
    ok = abs(-fit["exponent"] - 2.0) <= 0.1 and timer.elapsed < 120.0
    report(
        "criterion 6: torus linear q*=0 decay exponent 2 +- 0.1 in the box window",
        ok,
        f"exponent={-fit['exponent']:.4f}, window={fit['window']}, {timer.elapsed:.1f}s",
    )


def test_criterion_7_lyapunov(lyapunov_summary):
    summary, records, passed, elapsed = lyapunov_summary
    enough = summary["snapshots"] >= 40
    ok = passed and enough and summary["lyapunov"]["tol"] == 1e-10 and elapsed < 600.0
    report(
        "criterion 7: h1_sq nonincreasing over >=40 snapshots (tol 1e-10)",
        ok,
        f"snapshots={summary['snapshots']}, violations={len(summary['lyapunov']['violations'])}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_8_energy_identity():
    cfg = parse_config(None, "energy-identity")
    with _Timer() as timer:
        summary, _ = _RUNNERS["energy-identity"](cfg)
    residuals = summary["residuals"]
    ratios = summary["refinement_ratios"]
    ok = (
        residuals[0] <= 1e-6
        and len(ratios) == 2
        and all(r >= 4.0 for r in ratios)
        and timer.elapsed < 300.0
    )
    report(
        "criterion 8: energy identity residual <= 1e-6, >= 4x per dt halving",
        ok,
        f"residuals={[f'{r:.2e}' for r in residuals]}, ratios={[f'{r:.3f}' for r in ratios]}, "
        f"{timer.elapsed:.0f}s",
    )


def test_criterion_9_main_theorem_consistency(nonlinear_q0_summary, nonlinear_qm15_summary):
    total = 0.0
    all_ok = True
    details = []
    for label, (summary, elapsed) in (
        ("q*=0", nonlinear_q0_summary),
        ("q*=-1.5", nonlinear_qm15_summary),
    ):
        total += elapsed
        verdicts = summary["verdicts"]
        all_ok &= (
            summary["bound_tol"] == 0.1
            and verdicts["bound_check"]
            and summary["partition_max_defect"] <= 1e-13
            and verdicts["key_inequality_power"]
            and verdicts["key_inequality_log_cubed"]
        )
        details.append(
            f"{label}: exp={-summary['fit']['exponent']:.3f} vs bound {summary['decay_bound']}"
        )
    # one-sided property: any faster decay than the bound passes
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = rng.uniform(-1.9, 1.0)
        observed = min(2.0 + q, 1.0) + rng.uniform(0.0, 5.0)
        fit = dg.RateFit(-observed, (0.1, 1.0), 0.0)
        all_ok &= dg.bound_check(q, fit)
    all_ok &= total < 900.0
    report(
        "criterion 9: decay bound min{2+q*,1} (tol 0.1), exact splitting, key inequality",
        all_ok,
        "; ".join(details) + f", total {total:.0f}s",
    )


class TestCriterion10SolverOrderAndPurity:
    def test_fourth_order_manufactured(self):
        grid = TorusGrid(16, 2 * np.pi)
        xi1 = grid.frequency_spacing
        profile = np.cos(xi1 * grid.x_axis)
        base = PhysicalField(grid, np.broadcast_to(profile[:, None, None, None], grid.shape).copy())
        mode = transform_forward(base).coefficients

        phi = lambda t: 0.5 * np.exp(-t) * (1.0 + 0.3 * np.sin(2.0 * t))
        phi_dot = lambda t: 0.5 * np.exp(-t) * (
            0.6 * np.cos(2.0 * t) - 1.0 - 0.3 * np.sin(2.0 * t)
        )

        def forcing(t):
            cubic = full_cubic(SpectralField(grid, phi(t) * mode)).coefficients
            return (phi_dot(t) + xi1**2 * phi(t)) * mode - cubic

        errors = []
        dts = [0.1, 0.05, 0.025]
        for dt in dts:
            state = ev.initial_state(SpectralField(grid, phi(0.0) * mode), nonlinear=True)
            for _ in range(int(round(0.5 / dt))):
                state = ev.step(state, dt, forcing=forcing)
            diff = SpectralField(grid, state.u_hat.coefficients - phi(0.5) * mode)
            errors.append(np.sqrt(sobolev_norm_sq(diff, 0.0)))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(dts) - 1)]
        report(
            "criterion 10a: IF-RK4 fourth-order convergence on a forced problem",
            all(o >= 3.7 for o in orders),
            f"orders={[f'{o:.2f}' for o in orders]}",
        )

    def test_linear_stepping_is_diagonal_semigroup(self):
        grid = TorusGrid(16, 2 * np.pi)
        rng = np.random.default_rng(11)
        datum = transform_forward(PhysicalField(grid, rng.standard_normal(grid.shape)))
        state = ev.initial_state(datum, nonlinear=False)
        for _ in range(7):
            state = ev.step(state, 0.07)
        exact = ev.heat_propagate(datum, 7 * 0.07)
        scale = np.max(np.abs(exact.coefficients))
        defect = np.max(np.abs(state.u_hat.coefficients - exact.coefficients))
        report(
            "criterion 10b: linear-only stepping equals the diagonal semigroup to 1e-12",
            defect <= 1e-12 * scale,
            f"defect={defect / scale:.2e}",
        )

    def test_bit_reproducible_runs(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nsnapshot_count = 10\nt_end = 0.3\n")
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_experiment(ExperimentSpec("nonlinear-decay", str(cfg), out)) in (0, 1)
            outs.append((out / "series.csv").read_bytes())
        report(
            "criterion 10c: identical config gives byte-identical series.csv",
            outs[0] == outs[1],
        )
