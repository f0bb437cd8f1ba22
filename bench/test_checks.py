"""Each benchmark check passes on a correct output and fails on a perturbed one.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def failed(found: list[checks.Check]) -> list[str]:
    return [c.name for c in found if not c.ok]


# ------------------------------------------------------------ linear-decay


@pytest.fixture(scope="module")
def linear():
    expect = run.Expectations(run.WORKLOADS["linear-decay-n32"])
    h1 = expect.h1.copy()
    low = 0.75 * h1
    series = {"t": expect.t.copy(), "h1_sq": h1, "low_sq": low, "high_sq": h1 - low}
    summary = {"verdicts": {"oracle_grid": True, "torus_exponent": True}}
    return expect, series, summary


def test_linear_passes(linear):
    expect, series, summary = linear
    found = checks.linear_decay(series, summary, expect.t, expect.h1)
    assert failed(found) == []
    # t column, 13 closed-form and 13 partition records, 2 verdicts
    assert len(found) == 1 + 2 * len(expect.t) + 2


def test_linear_h1_raised_by_1e_6(linear):
    expect, series, summary = linear
    s = copy.deepcopy(series)
    s["h1_sq"][5] *= 1.0 + 1e-6
    s["high_sq"][5] = s["h1_sq"][5] - s["low_sq"][5]
    assert failed(checks.linear_decay(s, summary, expect.t, expect.h1)) == ["h1_closed_form[5]"]


def test_linear_partition_broken(linear):
    expect, series, summary = linear
    s = copy.deepcopy(series)
    s["high_sq"][3] *= 1.0 + 1e-9
    assert failed(checks.linear_decay(s, summary, expect.t, expect.h1)) == ["partition[3]"]


def test_linear_t_column_shifted(linear):
    expect, series, summary = linear
    s = copy.deepcopy(series)
    s["t"][4] *= 1.0 + 1e-12
    assert failed(checks.linear_decay(s, summary, expect.t, expect.h1)) == ["t_column"]


def test_linear_record_missing(linear):
    expect, series, summary = linear
    s = {k: v[:-1] for k, v in series.items()}
    assert failed(checks.linear_decay(s, summary, expect.t, expect.h1)) == ["record_count"]


def test_verdict_false(linear):
    expect, series, summary = linear
    bad = {"verdicts": {**summary["verdicts"], "torus_exponent": False}}
    assert failed(checks.linear_decay(series, bad, expect.t, expect.h1)) == [
        "verdict.torus_exponent"
    ]


def test_closed_form_at_zero_is_the_datum_norm(linear):
    expect, _, _ = linear
    assert expect.h1[0] == pytest.approx(0.01 * checks.GRAD_W_L2_SQ, rel=1e-13)
    assert np.all(np.diff(expect.h1) < 0)


# --------------------------------------------------------- nonlinear-decay


@pytest.fixture()
def nonlinear():
    t = np.concatenate([[0.0], np.geomspace(0.003, 1.6, 48)])
    h1 = 0.3 * (1.0 + t) ** -1.8
    series = {"t": t, "h1_sq": h1, "energy": 0.5 * h1 - 1e-4 * h1**2}
    summary = {"verdicts": {"bound_check": True, "partition_exact": True}}
    return series, summary


def test_nonlinear_passes(nonlinear):
    series, summary = nonlinear
    found = checks.nonlinear_decay(series, summary)
    assert failed(found) == []
    assert len(found) == 2 + 2 * 48


@pytest.mark.parametrize("column", ["h1_sq", "energy"])
def test_nonlinear_rise(nonlinear, column):
    series, summary = nonlinear
    series[column][10] = series[column][9] * (1.0 + 1e-9)
    assert failed(checks.nonlinear_decay(series, summary)) == [f"{column}_nonincreasing[9]"]


# --------------------------------------------------------- energy-identity


def energy_summary():
    return {
        "step_counts": [16, 32, 64],
        "residuals": [6.852940375595104e-08, 1.7132356843328652e-08, 4.283086789286736e-09],
    }


def test_energy_passes():
    assert failed(checks.energy_identity(energy_summary(), 0.125, 0.008, 3)) == []


def test_energy_step_count_off_by_one():
    s = energy_summary()
    s["step_counts"][1] += 1
    assert failed(checks.energy_identity(s, 0.125, 0.008, 3)) == ["step_counts"]


def test_energy_n0_is_ceil():
    # 0.125 / 0.008 = 15.625 -> n0 = 16; a program using floor would step 15
    s = energy_summary()
    s["step_counts"] = [15, 30, 60]
    assert failed(checks.energy_identity(s, 0.125, 0.008, 3)) == ["step_counts"]


def test_energy_baseline_residual():
    s = energy_summary()
    s["residuals"] = [r * 20.0 for r in s["residuals"]]
    assert failed(checks.energy_identity(s, 0.125, 0.008, 3)) == ["baseline_residual"]


@pytest.mark.parametrize("factor, name", [(2.0, "second_order[1]"), (1.02, "second_order[1]")])
def test_energy_ratio_not_second_order(factor, name):
    s = energy_summary()
    s["residuals"][2] *= factor
    assert failed(checks.energy_identity(s, 0.125, 0.008, 3)) == [name]


def test_energy_missing_level():
    s = energy_summary()
    s["step_counts"] = s["step_counts"][:2]
    s["residuals"] = s["residuals"][:2]
    assert failed(checks.energy_identity(s, 0.125, 0.008, 3)) == ["step_counts", "second_order[1]"]


# ------------------------------------------------------------------ common


def test_common():
    assert failed(checks.common(0, b"a", b"a")) == []
    assert failed(checks.common(1, b"a", b"a")) == ["exit_code"]
    assert failed(checks.common(0, b"a", b"b")) == ["series_identical"]


# ------------------------------------------------------------------ tracer


def test_aggregate_self_time():
    spans = [
        ["a", -1, 0.0, 10.0, 0],
        ["b", 0, 1.0, 4.0, 8],
        ["c", 1, 2.0, 3.0, 0],
        ["b", 0, 5.0, 7.0, 8],
    ]
    agg = tracer.aggregate(spans)
    assert agg["a"] == {"calls": 1, "s": 10.0, "self_s": 5.0, "bytes": 0}
    assert agg["b"] == {"calls": 2, "s": 5.0, "self_s": 4.0, "bytes": 16}
    assert agg["c"]["self_s"] == 1.0
    assert tracer.count_children(spans, "c", "b") == 1
    assert tracer.count_children(spans, "b", "c") == 0


def test_install_wraps_every_binding():
    from critheat import bubble, diagnostics, evolution, experiments, spectral
    from critheat.spectral import TorusGrid

    t = tracer.Tracer()
    tracer.install(t)
    wrapped = spectral.transform_inverse
    assert hasattr(wrapped, "__wrapped__")
    assert hasattr(spectral.transform_forward, "__wrapped__")
    assert evolution.transform_inverse is wrapped
    assert diagnostics.transform_inverse is wrapped
    assert bubble.transform_forward is spectral.transform_forward
    assert experiments.transform_forward is spectral.transform_forward
    assert diagnostics.nonlinear_term is evolution.nonlinear_term

    grid = TorusGrid(16, 2.0 * math.pi)
    field = spectral.transform_forward(
        spectral.PhysicalField(grid, np.cos(grid.x_axis)[:, None, None, None] * np.ones(grid.shape))
    )
    evolution.nonlinear_term(field)
    names = [s[0] for s in t.spans]
    assert names.count("evolution.nonlinear_term") == 1
    assert tracer.count_children(t.spans, "spectral.transform_inverse", "evolution.nonlinear_term") == 1
    forward = [s for s in t.spans if s[0] == "spectral.transform_forward"]
    assert forward[0][4] == 16**4 * 8  # float64 input
    inverse = [s for s in t.spans if s[0] == "spectral.transform_inverse"]
    assert inverse[0][4] == 16**4 * 16  # complex128 input
