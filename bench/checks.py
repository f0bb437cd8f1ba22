"""Output checks for the benchmark workloads.

Each check compares one output of `run_experiment` with a value the
benchmark derives on its own (a closed form, a step count, a physical
property of small data), never with a stored copy of an earlier output.
A check function returns a list of `Check`s; the runner counts them as
attempted and the false ones as failed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

GRAD_W_L2_SQ = 32.0 * np.pi**2 / 3.0  # ||grad W||^2 of the Aubin-Talenti bubble

# tolerances, each far below the error a broken program would show
CLOSED_FORM_RTOL = 1e-9   # h1_sq against the heat semigroup (seen: ~1e-15)
PARTITION_RTOL = 1e-12    # low_sq + high_sq against h1_sq (seen: ~1e-16)
T_COLUMN_RTOL = 1e-14     # snapshot times against geomspace
MONOTONE_RTOL = 1e-12     # allowed relative rise of h1_sq / energy between snapshots
BASELINE_RESIDUAL = 1e-6  # first energy-identity residual
RATIO_TOL = 0.01          # |refinement ratio - 4|: second order, not first (2) or third (8)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def read_series(text: str) -> dict[str, np.ndarray]:
    """series.csv as one float array per column."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    data = np.array([[float(v) for v in row] for row in body])
    return {name: data[:, i] for i, name in enumerate(header)}


def common(exit_code: int, series_bytes: bytes, reference_bytes: bytes) -> list[Check]:
    """Every workload: exit code 0, and series.csv identical to the run's first round."""
    return [
        Check("exit_code", exit_code == 0, f"exit code {exit_code}"),
        Check("series_identical", series_bytes == reference_bytes,
              "series.csv differs from the first round's"),
    ]


def verdicts(summary: dict) -> list[Check]:
    return [
        Check(f"verdict.{key}", bool(value), f"{key} = {value}")
        for key, value in sorted(summary["verdicts"].items())
    ]


def power_law_datum(n: int, length: float, cutoff_rho: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """|xi| over the lattice and the q* = 0 datum magnitude |xi|^-1 chi(|xi|/cutoff_rho).

    chi is 1 on [0, 1/2], 0 on [1, inf) and smooth in between; the mean
    is zero and the magnitude is scaled so that ||grad u0|| = delta ||grad W||.
    This is the program's documented power-law datum, rebuilt here so that
    the linear closed form does not rest on the program's own construction.
    """
    dxi = 2.0 * np.pi / length
    axis = dxi * np.fft.fftfreq(n, 1.0 / n)
    sq = axis**2
    xi = np.sqrt(sq[:, None, None, None] + sq[None, :, None, None]
                 + sq[None, None, :, None] + sq[None, None, None, :])
    s = xi / cutoff_rho
    chi = np.zeros_like(s)
    chi[s <= 0.5] = 1.0
    mid = (s > 0.5) & (s < 1.0)
    x = 2.0 * s[mid] - 1.0
    chi[mid] = np.exp(-1.0 / (1.0 - x)) / (np.exp(-1.0 / (1.0 - x)) + np.exp(-1.0 / x))
    mag = np.where(xi > 0, chi / np.where(xi > 0, xi, 1.0), 0.0)
    h1 = (2.0 * np.pi) ** -4 * dxi**4 * np.sum(xi**2 * mag**2)
    return xi, mag * (delta * math.sqrt(GRAD_W_L2_SQ) / math.sqrt(h1))


def heat_h1_sq(xi: np.ndarray, u0_abs: np.ndarray, length: float, times: np.ndarray) -> np.ndarray:
    """(2 pi)^-4 dxi^4 sum |xi|^2 exp(-2 t |xi|^2) |u0_hat|^2 at each time."""
    dxi = 2.0 * np.pi / length
    norm = (2.0 * np.pi) ** -4 * dxi**4
    xi_sq = xi.ravel() ** 2
    weight = xi_sq * u0_abs.ravel() ** 2
    keep = weight > 0
    xi_sq, weight = xi_sq[keep], weight[keep]
    return np.array([norm * np.sum(weight * np.exp(-2.0 * t * xi_sq)) for t in times])


def linear_decay(series: dict[str, np.ndarray], summary: dict, expected_t: np.ndarray,
                 expected_h1: np.ndarray) -> list[Check]:
    """Heat closed form per record, exact splitting per record, snapshot times, verdicts."""
    out = []
    t, h1 = series["t"], series["h1_sq"]
    if len(t) != len(expected_t):
        return [Check("record_count", False, f"{len(t)} records, expected {len(expected_t)}")]
    out.append(Check("t_column", bool(np.all(np.abs(t - expected_t) <= T_COLUMN_RTOL * expected_t)),
                     "t column is not 0 followed by the geomspace snapshots"))
    for i in range(len(t)):
        rel = abs(h1[i] / expected_h1[i] - 1.0)
        out.append(Check(f"h1_closed_form[{i}]", rel <= CLOSED_FORM_RTOL,
                         f"t = {t[i]:.6g}: relative difference {rel:.3e}"))
    out += partition(series)
    return out + verdicts(summary)


def partition(series: dict[str, np.ndarray]) -> list[Check]:
    low, high, h1 = series["low_sq"], series["high_sq"], series["h1_sq"]
    return [
        Check(f"partition[{i}]", abs(low[i] + high[i] - h1[i]) <= PARTITION_RTOL * h1[i],
              f"low_sq + high_sq - h1_sq = {low[i] + high[i] - h1[i]:.3e}")
        for i in range(len(h1))
    ]


def nonlinear_decay(series: dict[str, np.ndarray], summary: dict) -> list[Check]:
    """Verdicts, and h1_sq and energy nonincreasing across snapshots (E' = -||u_t||^2)."""
    out = verdicts(summary)
    for col in ("h1_sq", "energy"):
        v = series[col]
        for i in range(len(v) - 1):
            rise = v[i + 1] - v[i]
            out.append(Check(f"{col}_nonincreasing[{i}]", rise <= MONOTONE_RTOL * abs(v[i]),
                             f"{col} rises by {rise:.3e} after t = {series['t'][i]:.6g}"))
    return out


def energy_identity(summary: dict, t_end: float, dt: float, levels: int) -> list[Check]:
    """Nested step counts n0 * 2^k, the first residual, and second-order ratios."""
    n0 = math.ceil(t_end / dt)
    planned = [n0 * 2**k for k in range(levels)]
    steps = summary["step_counts"]
    out = [
        Check("step_counts", steps == planned, f"step counts {steps}, expected {planned}"),
        Check("baseline_residual", summary["residuals"][0] <= BASELINE_RESIDUAL,
              f"first residual {summary['residuals'][0]:.3e}"),
    ]
    residuals = summary["residuals"]
    for i in range(levels - 1):
        ratio = residuals[i] / residuals[i + 1] if i + 1 < len(residuals) else float("nan")
        out.append(Check(f"second_order[{i}]", abs(ratio - 4.0) <= RATIO_TOL,
                         f"refinement ratio {ratio:.7g}"))
    return out
