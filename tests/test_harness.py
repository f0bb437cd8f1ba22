"""Config parsing, experiment orchestration, and file outputs."""

import json
import os
import re
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from critheat import bubble as bb
from critheat import decay as dc
from critheat import diagnostics as dg
from critheat import evolution as ev
from critheat import experiments, spectral
from critheat.config import ConfigError, HarnessConfig, _parse_float, parse_config
from critheat.diagnostics import CSV_COLUMNS
from critheat.experiments import EXPERIMENT_NAMES, ExperimentSpec, build_datum, run_experiment
from critheat.spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    sobolev_norm_sq,
    transform_inverse,
)
from critheat.cli import main

from conftest import traced_peak


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None, "nonlinear-decay")
        assert cfg.points_per_dim == 32
        assert cfg.side_length == 32.0
        assert cfg.delta == 0.1
        assert cfg.datum == "power_law" and cfg.profile_r == 0.0

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert parse_config(path, "nonlinear-decay") == parse_config(None, "nonlinear-decay")

    def test_comments_and_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# a comment\n"
            "points_per_dim = 64   # inline comment\n"
            "datum = bump\n"
            "delta = 0.25\n"
        )
        cfg = parse_config(path, "nonlinear-decay")
        assert cfg.points_per_dim == 64
        assert cfg.datum == "bump"
        assert cfg.delta == 0.25

    def test_odd_n_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dim = 15\n")
        with pytest.raises(ConfigError, match="even integer >= 16"):
            parse_config(path, "nonlinear-decay")

    def test_profile_r_hypothesis_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("profile_r = -2.5\n")
        with pytest.raises(ConfigError, match="q\\* > -2"):
            parse_config(path, "nonlinear-decay")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dimension = 32\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path, "nonlinear-decay")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path, "nonlinear-decay")

    def test_key_set_twice_rejected(self, tmp_path, capsys):
        # the later value does not silently win: the run exits 2 and writes nothing
        path = tmp_path / "c.cfg"
        path.write_text(
            "points_per_dim = 16\nt_end = 0.01\ndt = 0.001\n# a comment\n"
            "snapshot_count = 4\ndt = 0.002\n"
        )
        reason = f"{path}:6: dt is set twice (first on line 3)"
        with pytest.raises(ConfigError) as err:
            parse_config(path, "lyapunov")
        assert str(err.value) == reason
        out = tmp_path / "out"
        assert run_experiment(ExperimentSpec("lyapunov", str(path), out)) == 2
        assert capsys.readouterr().out == f"config error: {reason}\n"
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg", "nonlinear-decay")

    def test_experiment_defaults(self):
        cfg = parse_config(None, "energy-identity")
        assert cfg.points_per_dim == 16
        assert cfg.datum == "bump"
        cfg = parse_config(None, "lyapunov")
        assert cfg.datum == "bump" and cfg.points_per_dim == 32

    def test_user_keys_override_experiment_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dim = 32\n")
        assert parse_config(path, "energy-identity").points_per_dim == 32

    def test_every_experiment_default_is_within_the_step_bound(self):
        for name in EXPERIMENT_NAMES:
            parse_config(None, name)

    def test_finest_refinement_level_is_bounded(self, tmp_path):
        # energy-identity's finest of three levels steps dt / 4 = 0.001, so its
        # 10^9 steps, less one per snapshot interval, end just below t_end =
        # 10^6; lyapunov, stepping dt = 0.004, reaches it
        path = tmp_path / "c.cfg"
        path.write_text("t_end = 999999\n")
        assert parse_config(path, "energy-identity").t_end == 999999
        assert parse_config(path, "lyapunov").t_end == 999999
        path.write_text("t_end = 1000000\n")
        assert parse_config(path, "lyapunov").t_end == 1000000
        message = (
            "t_end = 1e+06 (resolved) in steps of at most 0.001 (dt = 0.004, side_length = 32.0, "
            "3 refinement levels, snapshot_count = 48 intervals of a step or more) needs more "
            "than 1e+09 steps"
        )
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path, "energy-identity")

    def test_snapshot_count_beyond_the_step_bound_exits_2_at_once(self, tmp_path, capsys):
        # each snapshot interval takes a step: 10^12 of them are rejected
        # before any array of snapshot times is built
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nsnapshot_count = 1000000000000\n")
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run_experiment(ExperimentSpec("linear-decay", str(cfg), out)) == 2
        assert time.perf_counter() - start < 1.0
        message = "snapshot_count must lie in [2, 1e+09] (each snapshot interval takes a step)"
        assert message in capsys.readouterr().out
        assert not out.exists()

    def test_snapshot_intervals_count_in_the_step_bound(self, tmp_path, monkeypatch):
        # t_end / dt = 50 steps, plus at least one for each of 60 intervals
        monkeypatch.setattr("critheat.config._MAX_STEPS", 100)
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dim = 16\nt_end = 1\ndt = 0.02\nsnapshot_count = 40\n")
        assert parse_config(path, "lyapunov").snapshot_count == 40
        path.write_text("points_per_dim = 16\nt_end = 1\ndt = 0.02\nsnapshot_count = 60\n")
        message = "snapshot_count = 60 intervals of a step or more) needs more than 1e+02 steps"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path, "lyapunov")

    def test_snapshot_records_count_in_the_memory_estimate(self, tmp_path):
        # 10^9 snapshots are within the step bound, but not their records
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dim = 16\nsnapshot_count = 1000000000\n")
        message = r"^snapshot_count = 1000000000 adds an estimated [0-9.e+]+ GiB of records "
        with pytest.raises(ConfigError, match=message):
            parse_config(path, "nonlinear-decay")
        # an experiment that steps no state reads no snapshot_count
        with pytest.raises(ConfigError, match="decay-character does not read snapshot_count"):
            parse_config(path, "decay-character")

    @pytest.mark.parametrize(
        "experiment, config",
        [
            ("nonlinear-decay", "points_per_dim = 16\nt_end = 1e-13\nsnapshot_count = 4\n"),
            ("energy-identity", "t_end = 1e-300\ndt = 1e-300\nsnapshot_count = 4\n"),
            # the first gap, 2e-12 (500^(1/999) - 1) = 1.2e-14
            ("lyapunov", "t_end = 1e-9\nsnapshot_count = 1000\n"),
            # t_end / 500 rounds to 0, where no log-spaced snapshots can start
            ("lyapunov", "points_per_dim = 16\nt_end = 5e-324\n"),
            ("linear-decay", "points_per_dim = 16\nt_end = 1e-321\n"),
        ],
    )
    def test_snapshot_within_advance_tolerance_exits_2(
        self, tmp_path, capsys, experiment, config
    ):
        # advance would take no step to such a snapshot and record the state
        # it already holds
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert run_experiment(ExperimentSpec(experiment, str(cfg), out)) == 2
        text = capsys.readouterr().out
        assert "t_end = " in text and "snapshots from t_end / 500" in text
        assert "so no step would reach it" in text
        assert not out.exists()

    def test_threads_is_not_a_config_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("threads = 2\n")
        with pytest.raises(ConfigError, match="unknown key 'threads'"):
            parse_config(path, "nonlinear-decay")

    def test_nonlinearity_key_exits_2_as_unknown(self, tmp_path, capsys):
        # the experiment names the flow: linear-decay is the one linear run
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nnonlinearity = false\n")
        out = tmp_path / "out"
        assert main(["linear-decay", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().out == f"config error: {cfg}:2: unknown key 'nonlinearity'\n"
        assert not out.exists()

    # how a run is judged is fixed, not configured; each at its fixed value
    JUDGING_KEYS = {
        "snapshot_t_min": "0",
        "fit_t_min": "0",
        "fit_t_max": "0",
        "schedule": "power",
        "schedule_alpha": "0",
        "c_tilde": "1",
        "bound_tol": "0.1",
        "lyapunov_tol": "1e-10",
        "refinement_levels": "3",
    }

    @pytest.mark.parametrize("key", list(JUDGING_KEYS))
    def test_judging_key_exits_2_as_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"points_per_dim = 16\n{key} = {self.JUDGING_KEYS[key]}\n")
        out = tmp_path / "out"
        assert main(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().out == f"config error: {cfg}:2: unknown key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["0", "-0.01"])
    def test_nonpositive_dt_rejected(self, tmp_path, dt):
        path = tmp_path / "c.cfg"
        path.write_text(f"dt = {dt}\n")
        with pytest.raises(ConfigError, match="dt must be positive"):
            parse_config(path, "nonlinear-decay")

    def test_unknown_datum_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("datum = wavelet\n")
        with pytest.raises(ConfigError, match="datum must be one of .*; got 'wavelet'"):
            parse_config(path, "nonlinear-decay")

    def test_file_datum_needs_a_path(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("datum = file\n")
        with pytest.raises(ConfigError, match="datum = file requires datum_file"):
            parse_config(path, "nonlinear-decay")

    def test_grid_beyond_physical_memory_rejected(self, tmp_path):
        # parsed only: a real 512^4 array alone would be 512 GiB, and 10^400 is
        # an int no float holds, so the estimate stays in ints
        path = tmp_path / "c.cfg"
        for n in ("512", "1" + "0" * 400):
            path.write_text(f"points_per_dim = {n}\n")
            with pytest.raises(
                ConfigError,
                match=rf"^points_per_dim = {n} needs an estimated [0-9.e+]+ GiB working set "
                r"\([0-9]+ bytes per N\^4 point plus [0-9]+ MiB\), more than the [0-9.e+]+ "
                r"GiB of physical memory$",
            ):
                parse_config(path, "nonlinear-decay")

    def test_bump_rejects_profile_r(self, tmp_path):
        # a bump's q* is 1, so a bump run reads no profile_r, not even its default
        path = tmp_path / "c.cfg"
        for text, experiment in (
            ("datum = bump\nprofile_r = 0.5\n", "nonlinear-decay"),
            ("profile_r = 0.5\n", "lyapunov"),
            ("datum = bump\nprofile_r = 0\n", "nonlinear-decay"),
        ):
            path.write_text(text)
            with pytest.raises(ConfigError, match=f"{experiment} with datum = bump does not "
                               "read profile_r; it reads .*, datum, delta$"):
                parse_config(path, experiment)
        path.write_text("datum = bump\n")
        assert parse_config(path, "nonlinear-decay").nominal_q_star() == 1.0

    def test_datum_rejects_keys_it_ignores(self, tmp_path):
        # a file datum is given whole (see also test_key_the_datum_ignores_exits_2)
        path = tmp_path / "c.cfg"
        path.write_text("datum = file\ndatum_file = u0.chk\ncutoff_rho = 0.5\n")
        message = f"{path}: nonlinear-decay with datum = file does not read cutoff_rho"
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            parse_config(path, "nonlinear-decay")
        # decay-character builds its own power-law datum from cutoff_rho,
        # whatever datum a config names, so it reads no datum
        path.write_text("cutoff_rho = 0.5\n")
        assert parse_config(path, "decay-character").cutoff_rho == 0.5
        path.write_text("datum = bump\ncutoff_rho = 0.5\n")
        message = f"{path}: decay-character does not read datum"
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            parse_config(path, "decay-character")

    def test_cutoff_validation_names_nyquist(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("cutoff_rho = 50\n")
        with pytest.raises(ConfigError, match="Nyquist"):
            parse_config(path, "nonlinear-decay")

    def test_resolved_quantities(self):
        cfg = HarnessConfig()
        assert cfg.t_box == pytest.approx((32.0 / (2 * np.pi)) ** 2 / 4.0)
        lo, hi = cfg.resolved_fit_window()
        assert lo == pytest.approx(cfg.t_box / 100.0)
        assert hi == pytest.approx(cfg.t_box / 3.0)
        assert cfg.resolved_schedule_alpha() == pytest.approx(3.0)  # q*=0 datum

    def test_q_star_of_each_datum(self, tmp_path):
        # a file datum's q* is profile_r (default 0); a bump's is 1
        path = tmp_path / "c.cfg"
        path.write_text("datum = file\ndatum_file = u0.chk\n")
        cfg = parse_config(path, "nonlinear-decay")
        assert cfg.nominal_q_star() == 0.0
        assert cfg.resolved_schedule_alpha() == 3.0
        path.write_text("datum = file\ndatum_file = u0.chk\nprofile_r = 1\n")
        cfg = parse_config(path, "nonlinear-decay")
        assert cfg.nominal_q_star() == 1.0
        assert cfg.resolved_schedule_alpha() == 4.0
        path.write_text("datum = bump\n")
        assert parse_config(path, "nonlinear-decay").nominal_q_star() == 1.0


FLOAT_KEYS = [
    f.name for f in fields(HarnessConfig) if type(getattr(HarnessConfig(), f.name)) is float
]
# spellings float() accepts; the last two overflow to infinity
NON_FINITE = ["nan", "NaN", "-nan", "inf", "+inf", "-inf", "Infinity", "-INFINITY", "1e999", "-2e308"]


class TestFloatKeys:
    def test_float_keys_are_the_float_parsed_keys(self):
        assert set(FLOAT_KEYS) == {f.name for f in fields(HarnessConfig) if f.type == "float"}

    @given(key=st.sampled_from(FLOAT_KEYS), raw=st.sampled_from(NON_FINITE))
    def test_non_finite_rejected_by_name(self, tmp_path_factory, key, raw):
        path = tmp_path_factory.mktemp("cfg") / "c.cfg"
        path.write_text(f"{key} = {raw}\n")
        message = f"{key} must be a finite number, got '{raw}'"
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            parse_config(path, "nonlinear-decay")

    @given(key=st.sampled_from(FLOAT_KEYS), value=st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_values_parse_exactly(self, key, value):
        assert _parse_float(key, repr(value)) == value


# extreme values: an int key draws ints up to 2 10^400 and a float key these;
# a str key draws from STR_VALUES, every datum and one unknown name, or a path;
# a config is up to five lines, and a key may be set on more than one
EXTREME = [
    "0", "5e-324", "1e-321", "1e-300", "1e-38", "1e38", "1e300", "1.7e308",
    "-5e-324", "-1e-321", "-1e-300", "-1e-38", "-1e38", "-1e300", "-1.7e308", "-1",
]
STR_VALUES = {
    "datum": ["bump", "power_law", "file", "wavelet"],
    "datum_file": ["u0.chk", "/nonexistent/u0.chk"],
}
EXTREME_CONFIGS = st.lists(
    st.sampled_from(fields(HarnessConfig)).flatmap(
        lambda f: st.tuples(
            st.just(f.name),
            st.integers(-2 * 10**400, 2 * 10**400).map(str)
            if f.type == "int"
            else st.sampled_from(STR_VALUES[f.name] if f.type == "str" else EXTREME),
        )
    ),
    max_size=5,
)


@pytest.fixture(scope="module")
def totality_cfg(tmp_path_factory):
    return tmp_path_factory.mktemp("totality") / "c.cfg"


class TestTotality:
    """parse_config returns or raises ConfigError on every config, and warns of
    nothing; a config that sets a key twice always raises."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(experiment=st.sampled_from(EXPERIMENT_NAMES), lines=EXTREME_CONFIGS)
    @example(experiment="lyapunov", lines=[("t_end", "5e-324")])
    @example(experiment="linear-decay", lines=[("t_end", "1e-321")])
    @example(experiment="linear-decay", lines=[("points_per_dim", "1" + "0" * 400)])
    @example(experiment="nonlinear-decay", lines=[("datum", "file"), ("datum_file", "u0.chk")])
    @example(experiment="lyapunov", lines=[("datum", "power_law"), ("cutoff_rho", "1e-38")])
    @example(experiment="lyapunov", lines=[("t_end", "0"), ("t_end", "0")])
    def test_parse_config_is_total(self, totality_cfg, experiment, lines):
        totality_cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines))
        repeated = len({k for k, _ in lines}) < len(lines)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                parse_config(totality_cfg, experiment)
            except ConfigError:
                return
        assert not repeated


TINY = "points_per_dim = 16\nt_end = 0.01\nsnapshot_count = 4\n"
DERIVED = {"t_box", "t_end_resolved", "fit_window_resolved", "schedule_alpha_resolved"}


class TestKeysRead:
    """Each runner reads exactly the config keys that `HarnessConfig.keys_read` states."""

    @pytest.mark.parametrize(
        "experiment, keys",
        [
            ("bubble-constants", ""),
            ("decay-character", "points_per_dim = 16\n"),
            ("linear-decay", TINY),
            ("nonlinear-decay", TINY),
            ("lyapunov", TINY),
            ("energy-identity", TINY),
            ("lyapunov", TINY + "datum = power_law\n"),
            ("lyapunov", TINY + "datum = file\n"),
        ],
    )
    def test_runner_reads_the_keys_of_the_table(self, tmp_path, experiment, keys):
        if "datum = file" in keys:
            chk = tmp_path / "u0.chk"
            bump = build_datum(HarnessConfig(points_per_dim=16, datum="bump"))
            ev.save_checkpoint(chk, transform_inverse(bump), t=0.0, step_count=0)
            keys += f"datum_file = {chk}\n"
        path = tmp_path / "c.cfg"
        path.write_text(keys)
        cfg = parse_config(path, experiment)
        names, read = {f.name for f in fields(HarnessConfig)}, set()

        class Recording(HarnessConfig):
            def __getattribute__(self, name):
                if name in names:
                    read.add(name)
                return super().__getattribute__(name)

            def echo(self, experiment):
                return {}  # what the echo reads is checked below

        experiments._RUNNERS[experiment](Recording(**{n: getattr(cfg, n) for n in names}))
        table = set(cfg.keys_read(experiment))
        assert read == table
        echo = cfg.echo(experiment)
        steps = experiment not in ("bubble-constants", "decay-character")
        assert set(echo) == table | (DERIVED if steps else set())


class TestBuildDatum:
    @pytest.mark.filterwarnings("error")
    def test_large_profile_r_gives_a_finite_datum(self, tmp_path):
        # the power is taken below the cutoff alone, where 1.4^699 is finite;
        # the power schedule's alpha = 703 keeps (1 + t)^alpha finite to t_end = 0.01
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dim = 16\nprofile_r = 700\nt_end = 0.01\n")
        u0 = build_datum(parse_config(path, "linear-decay"))
        assert np.all(np.isfinite(u0.coefficients))
        h1 = np.sqrt(sobolev_norm_sq(u0, 1.0))
        assert h1 == pytest.approx(0.1 * np.sqrt(32 * np.pi**2 / 3), rel=1e-10)

    def test_power_law_scaled_to_delta(self):
        cfg = HarnessConfig()
        u0 = build_datum(cfg)
        assert cfg.nominal_q_star() == 0.0
        h1 = np.sqrt(sobolev_norm_sq(u0, 1.0))
        assert h1 == pytest.approx(0.1 * np.sqrt(32 * np.pi**2 / 3), rel=1e-10)

    def test_energy_decides_above_delta_squared_half(self):
        # ||grad u0|| = delta ||grad W|| for every size; above delta^2 = 1/2 the
        # datum's own energy decides: the bump at 0.75 lies below E(W), the
        # q* = 0 power law at 0.8 above it (the bump at 0.1 and 0.9 is in test_bubble)
        grad_w_sq = 32 * np.pi**2 / 3
        grid = TorusGrid(16, 32.0)
        units = {"bump": dc.bump_datum(grid), "power_law": dc.synthesize_datum(grid, 0.0, 1.4)}
        for datum, delta, admissible in (
            ("bump", 0.75, True),
            ("power_law", 0.8, False),
        ):
            unit = units[datum]
            scale = delta * np.sqrt(grad_w_sq / sobolev_norm_sq(unit, 1.0))
            u0 = transform_inverse(SpectralField(grid, scale * unit.coefficients))
            energy = 0.5 * delta**2 * grad_w_sq - 0.25 * grid.spacing**4 * np.sum(u0.values**4)
            assert (energy <= grad_w_sq / 4) == admissible
            cfg = HarnessConfig(points_per_dim=16, datum=datum, delta=delta)
            if admissible:
                h1 = np.sqrt(sobolev_norm_sq(build_datum(cfg), 1.0))
                assert h1 == pytest.approx(delta * np.sqrt(grad_w_sq), rel=1e-12)
            else:
                with pytest.raises(ConfigError, match=f"^delta = {delta} gives a {datum} datum"):
                    build_datum(cfg)

    @pytest.mark.parametrize(
        "datum, delta, transforms",
        [("bump", 0.1, (1, 0)), ("power_law", 0.1, (0, 0)), ("bump", 0.75, (1, 1))],
    )
    def test_transforms_per_datum(self, monkeypatch, datum, delta, transforms):
        # a bump costs one forward transform; an inverse, for E(u0), only above delta^2 = 1/2
        counts = dict.fromkeys(("transform_forward", "transform_inverse"), 0)
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "critheat"]
        for name in counts:
            original = getattr(spectral, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        build_datum(HarnessConfig(points_per_dim=16, datum=datum, delta=delta))
        assert tuple(counts.values()) == transforms

    def test_bump_state_reads_its_dealiased_field(self):
        # a bump has modes outside the 2/3 band: the record and the stability
        # bound read the dealiased field the cubic sees, not the full field
        u0 = build_datum(HarnessConfig(points_per_dim=16, side_length=32.0, datum="bump"))
        state = ev.initial_state(u0)
        rec = dg.record(state, dg.SplittingSchedule(dg.POWER, 2.5))
        field = spectral.band_inverse(spectral.gather_band(u0.coefficients), u0.grid)
        sup = float(np.abs(field.values).max())
        assert rec.l4_fourth.hex() == spectral.l4_fourth(field).hex()
        assert ev.stability_bound(state).hex() == ev.stable_dt(u0.grid, sup).hex()
        assert spectral.l4_fourth(transform_inverse(u0)) != rec.l4_fourth

    def test_file_datum_roundtrip(self, tmp_path):
        grid = TorusGrid(16, 32.0)
        rng = np.random.default_rng(3)
        field = PhysicalField(grid, rng.standard_normal(grid.shape))
        chk = tmp_path / "u0.chk"
        ev.save_checkpoint(chk, field, t=0.0, step_count=0)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            f"points_per_dim = 16\ndatum = file\ndatum_file = {chk}\n"
        )
        cfg = parse_config(cfg_path, "nonlinear-decay")
        u0 = build_datum(cfg)
        back = sobolev_norm_sq(u0, 0.0)
        assert back == pytest.approx(grid.spacing**4 * np.sum(field.values**2), rel=1e-12)

    def test_file_datum_grid_mismatch(self, tmp_path):
        grid = TorusGrid(16, 32.0)
        field = PhysicalField(grid, np.zeros(grid.shape))
        chk = tmp_path / "u0.chk"
        ev.save_checkpoint(chk, field, t=0.0, step_count=0)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"datum = file\ndatum_file = {chk}\n")  # default N=32
        cfg = parse_config(cfg_path, "nonlinear-decay")
        with pytest.raises(ConfigError, match="does not match"):
            build_datum(cfg)


class TestRunSimulation:
    def test_linear_run_holds_each_array_once(self, tmp_path):
        # the state shares the datum built inline, which is freed after the
        # first step; a linear step releases its old state before the new
        # state's rates run, and those rates take the Hdot^2 density before
        # the dealiased inverse; a linear record transforms nothing forward:
        # 4.40 half spectra; the old state held through the rates, or a
        # pinned snapshot state, or a copied datum would add 1 more
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dim = 16\nsnapshot_count = 6\n")
        cfg = parse_config(path, "linear-decay")
        sched = cfg.splitting_schedule()

        def run():
            experiments.run_simulation(cfg, build_datum(cfg), {"primary": sched}, nonlinear=False)

        run()  # first calls, outside the trace
        assert traced_peak(run, TorusGrid(16, cfg.side_length)) <= 4.6

    def test_snapshot_state_is_freed_while_stepping(self, tmp_path, monkeypatch):
        # an interval of several substeps: from its second substep on, only
        # the step's old and new states are alive, not the snapshot it left
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dim = 16\nt_end = 0.2\nsnapshot_count = 4\ndt = 0.02\n")
        cfg = parse_config(path, "nonlinear-decay")
        sched = cfg.splitting_schedule()
        snapshots, pinned, later_substeps = [], [], []
        record, step = dg.record, ev.step

        def recorded(state, schedule):
            snapshots.append(weakref.ref(state))
            return record(state, schedule)

        def stepped(state, dt):
            if all(ref() is not state for ref in snapshots):
                later_substeps.append(state.t)
                pinned.extend(ref().t for ref in snapshots if ref() is not None)
            return step(state, dt)

        monkeypatch.setattr(dg, "record", recorded)
        monkeypatch.setattr(ev, "step", stepped)
        experiments.run_simulation(cfg, build_datum(cfg), {"primary": sched})
        assert len(snapshots) == 5 and later_substeps
        assert pinned == []


# the keys every run that steps a state reads, before its datum's
STEP_KEYS = "points_per_dim, side_length, dt, t_end, snapshot_count, datum"


def _delta_case(datum: str, delta: str, grad_sq: str) -> tuple[str, str]:
    """The config keys and config error of a datum whose ||grad u0||^2 is not a normal float."""
    return (
        f"datum = {datum}\ndelta = {delta}\n",
        f"delta = {float(delta)} gives a {datum} datum with ||grad u0||^2 = delta^2 "
        f"||grad W||^2 = {grad_sq}, not a normal float (the smallest is 2.225e-308)",
    )


class TestRunExperiment:
    def test_unknown_experiment_rejected(self, tmp_path):
        for name in ("warp-drive", "splitting"):
            with pytest.raises(ConfigError, match=f"unknown experiment '{name}'"):
                ExperimentSpec(name, None, tmp_path)

    def test_bubble_constants_end_to_end(self, tmp_path):
        spec = ExperimentSpec("bubble-constants", None, tmp_path / "out")
        assert run_experiment(spec) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["passed"] is True
        got = summary["constants"]["grad_l2_sq"]
        assert abs(got / (32 * np.pi**2 / 3) - 1) <= 1e-6
        # it reads no config key and steps no state: its echo is empty, no T_box
        assert summary["config"] == {} and "t_box" not in summary
        # header-only series for the no-simulation experiment
        csv = (tmp_path / "out" / "series.csv").read_text()
        assert csv.strip() == ",".join(CSV_COLUMNS)

    def test_decay_character_end_to_end(self, tmp_path):
        spec = ExperimentSpec("decay-character", None, tmp_path / "out")
        assert run_experiment(spec) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["verdicts"]["classifiers"] is True
        assert abs(summary["grid_estimate"]["q_star"]) <= 0.1

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("points_per_dim = 15\n")
        spec = ExperimentSpec("lyapunov", str(bad), tmp_path / "out")
        assert run_experiment(spec) == 2

    @pytest.mark.parametrize(
        "experiment, keys, reason",
        [
            (
                "lyapunov",
                "points_per_dim = 16\ncutoff_rho = 0.5\n",
                f"lyapunov with datum = bump does not read cutoff_rho; it reads {STEP_KEYS}, "
                "delta",
            ),
            (
                "nonlinear-decay",
                "points_per_dim = 16\ndatum = file\ndatum_file = u0.chk\ndelta = 0.7\n",
                f"nonlinear-decay with datum = file does not read delta; it reads {STEP_KEYS}, "
                "profile_r, datum_file",
            ),
            # decay-character builds its own power-law datum: no datum, no checkpoint path
            (
                "decay-character",
                "datum = file\ndatum_file = nowhere.chk\ndelta = 0.7\n",
                "decay-character does not read datum; it reads points_per_dim, side_length, "
                "profile_r, cutoff_rho",
            ),
            # bubble-constants steps no state and has no fit window or schedule alpha
            (
                "bubble-constants",
                "dt = 5\nt_end = 3\nsnapshot_count = 7\ndelta = 0.3\n",
                "bubble-constants does not read dt; it reads no key",
            ),
            (
                "lyapunov",
                "datum_file = /nonexistent.chk\n",
                f"lyapunov with datum = bump does not read datum_file; it reads {STEP_KEYS}, "
                "delta",
            ),
        ],
        ids=["bump-cutoff_rho", "file-delta", "decay-character-datum", "bubble-constants-dt",
             "bump-datum_file"],
    )
    def test_key_the_datum_ignores_exits_2(self, tmp_path, capsys, experiment, keys, reason):
        # a key the run does not read, for its datum or for any datum
        cfg = tmp_path / "c.cfg"
        cfg.write_text(keys)
        assert run_experiment(ExperimentSpec(experiment, str(cfg), tmp_path / "out")) == 2
        assert capsys.readouterr().out == f"config error: {cfg}: {reason}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("datum", ["bump", "file"])
    def test_unread_default_is_not_checked(self, tmp_path, datum):
        # on N = 16, L = 40 the axis Nyquist is 1.257, below the default
        # cutoff_rho = 1.4, which only a power-law datum reads (a power-law
        # datum there exits 2: test_cutoff_validation_names_nyquist)
        cfg = tmp_path / "c.cfg"
        keys = "points_per_dim = 16\nside_length = 40\nt_end = 0.01\nsnapshot_count = 4\n"
        keys += f"datum = {datum}\n"
        if datum == "file":
            bump = build_datum(HarnessConfig(points_per_dim=16, side_length=40.0, datum="bump"))
            chk = tmp_path / "u0.chk"
            ev.save_checkpoint(chk, transform_inverse(bump), t=0.0, step_count=0)
            keys += f"datum_file = {chk}\n"
        cfg.write_text(keys)
        out = tmp_path / "out"
        assert run_experiment(ExperimentSpec("lyapunov", str(cfg), out)) == 0
        assert "cutoff_rho" not in json.loads((out / "summary.json").read_text())["config"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_profile_r_exits_2(self, tmp_path, capsys):
        # 1.4^4999 overflows below the cutoff, so no scale can mend the datum;
        # the power schedule's alpha = 5003 keeps (1 + t)^alpha finite to t_end = 0.01
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nprofile_r = 5000\nt_end = 0.01\n")
        out_dir = tmp_path / "out"
        assert run_experiment(ExperimentSpec("linear-decay", str(cfg), out_dir)) == 2
        assert capsys.readouterr().out == (
            "config error: profile_r = 5000.0 overflows the unscaled power_law datum "
            "|xi|^(profile_r - 1) below cutoff_rho = 1.4\n"
        )
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_profile_r_exits_2_on_decay_character(self, tmp_path, capsys):
        # decay-character builds its own power-law datum, through the same check
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nprofile_r = 5000\n")
        out_dir = tmp_path / "out"
        assert run_experiment(ExperimentSpec("decay-character", str(cfg), out_dir)) == 2
        assert capsys.readouterr().out == (
            "config error: profile_r = 5000.0 overflows the unscaled power_law datum "
            "|xi|^(profile_r - 1) below cutoff_rho = 1.4\n"
        )
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "experiment, keys, named",
        [
            ("linear-decay", "profile_r = 700\n", "q* = 700 (profile_r, or 1 for a bump datum)"
             " gives the power schedule alpha = 703"),
        ],
    )
    def test_overflowing_power_schedule_exits_2(self, tmp_path, capsys, experiment, keys, named):
        # (1 + t)^alpha at t_end = 5 is past float range: every ball radius would be NaN
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nt_end = 5\nsnapshot_count = 8\n" + keys)
        out_dir = tmp_path / "out"
        assert run_experiment(ExperimentSpec(experiment, str(cfg), out_dir)) == 2
        assert capsys.readouterr().out == (
            f"config error: {named}, and g(t) = (1 + t)^alpha overflows by t_end = 5 (resolved)\n"
        )
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "config",
        [
            "side_length = 1e300\n",  # T_box
            "side_length = 1e80\ncutoff_rho = 4e-79\nt_end = 1\n",  # h^4
            "side_length = 1e-100\nt_end = 0.01\n",  # dxi^4
        ],
    )
    def test_overflowing_side_length_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\n" + config)
        out_dir = tmp_path / "out"
        assert run_experiment(ExperimentSpec("linear-decay", str(cfg), out_dir)) == 2
        length = float(config.split("\n")[0].split(" = ")[1])
        assert capsys.readouterr().out == (
            f"config error: side_length = {length} overflows T_box = (L / 2 pi)^2 / 4, the "
            "cell volume h^4 = (L / N)^4 or the Hdot^2 weight (2 pi)^-4 dxi^4 |xi|^4 at the "
            "largest |xi| = N 2 pi / L\n"
        )
        assert not out_dir.exists()

    def test_power_schedule_overflow_needs_a_schedule(self, tmp_path):
        # decay-character runs no splitting schedule, so its alpha is never formed
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nprofile_r = 700\n")
        assert parse_config(cfg, "decay-character").profile_r == 700.0
        cfg.write_text("points_per_dim = 16\nt_end = 5\nprofile_r = 200\n")
        assert parse_config(cfg, "linear-decay").resolved_schedule_alpha() == 203.0

    @pytest.mark.parametrize(
        "experiment, config, named",
        [
            # dt <= 0.75 / dxi^2 = 1.9e-77: about 5e74 steps
            ("lyapunov", "points_per_dim = 16\nside_length = 3.2e-38\nt_end = 0.01\n",
             "t_end = 0.01 (resolved) in steps of at most 1.95e-77 (dt = 0.04, "
             "side_length = 3.2e-38)"),
        ],
    )
    def test_run_past_the_step_bound_exits_2(self, tmp_path, capsys, experiment, config, named):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        out_dir = tmp_path / "out"
        start = time.perf_counter()
        assert run_experiment(ExperimentSpec(experiment, str(cfg), out_dir)) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert out == f"config error: {named} needs more than 1e+09 steps\n"
        assert not out_dir.exists()

    @staticmethod
    def assert_inadmissible(tmp_path, capsys, experiment, keys, named):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\n" + keys)
        spec = ExperimentSpec(experiment, str(cfg), tmp_path / "out")
        assert run_experiment(spec) == 2
        out = capsys.readouterr().out
        assert f"config error: {named} datum outside the small-data regime" in out
        energy = re.search(r"E\(u0\) = ([0-9.e+]+) > E\(W\) = ([0-9.e+]+)$", out, re.M)
        assert energy and float(energy[1]) > float(energy[2])
        assert float(energy[2]) == pytest.approx(8 * np.pi**2 / 3, rel=1e-5)
        assert not (tmp_path / "out").exists()

    def test_inadmissible_bump_exits_2(self, tmp_path, capsys):
        # at delta = 0.9 the bump's energy exceeds E(W): outside the small-data regime
        self.assert_inadmissible(
            tmp_path, capsys, "lyapunov", "delta = 0.9\n", "delta = 0.9 gives a bump"
        )

    def test_inadmissible_power_law_exits_2(self, tmp_path, capsys):
        # at delta = 0.8 the q* = 0 power law has E(u0) = 1.088 E(W)
        self.assert_inadmissible(
            tmp_path, capsys, "nonlinear-decay", "delta = 0.8\n", "delta = 0.8 gives a power_law"
        )

    @staticmethod
    def write_datum(path, case):
        if case == "missing":
            return
        if case == "not_a_checkpoint":
            path.write_bytes(b"u0 = 1\n" * 20)
            return
        grid = TorusGrid(16, 16.0)
        values = np.random.default_rng(2).standard_normal(grid.shape)
        if case == "nan":
            values[3, 1, 4, 1] = np.nan
        elif case == "huge":
            values *= 1e110
        ev.save_checkpoint(path, PhysicalField(grid, values), t=0.0, step_count=0)

    BAD_DATUM_REASONS = {
        "missing": "No such file or directory",
        "not_a_checkpoint": "bad checkpoint magic",
        "nan": "non-finite values in physical field",
        "huge": r"max \|u\| = [0-9.]+e\+110 overflows u\^4$",
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "experiment, case",
        [
            ("nonlinear-decay", "missing"),
            ("nonlinear-decay", "not_a_checkpoint"),
            ("nonlinear-decay", "nan"),
            ("nonlinear-decay", "huge"),
            ("linear-decay", "nan"),
            ("linear-decay", "huge"),
        ],
    )
    def test_bad_datum_file_exits_2(self, tmp_path, capsys, experiment, case):
        chk = tmp_path / "u0.chk"
        self.write_datum(chk, case)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"points_per_dim = 16\nside_length = 16\ndatum = file\ndatum_file = {chk}\n"
        )
        out_dir = tmp_path / "out"
        assert run_experiment(ExperimentSpec(experiment, str(cfg), out_dir)) == 2
        out = capsys.readouterr().out
        prefix = f"^config error: datum_file '{re.escape(str(chk))}': .*"
        assert re.search(prefix + self.BAD_DATUM_REASONS[case], out, re.M)
        assert not out_dir.exists()

    ZERO_DATUM_CASES = {
        # ||grad u0||^2 = delta^2 ||grad W||^2 is 0, subnormal, or 0 by underflow
        "bump_delta": _delta_case("bump", "0", "0"),
        "power_law_delta": _delta_case("power_law", "0", "0"),
        "bump_delta_1e-160": _delta_case("bump", "1e-160", "1.053e-318"),
        "power_law_delta_1e-160": _delta_case("power_law", "1e-160", "1.053e-318"),
        "bump_delta_1e-200": _delta_case("bump", "1e-200", "0"),
        "power_law_delta_1e-200": _delta_case("power_law", "1e-200", "0"),
        # the first lattice shell of L = 32 lies at 2 pi / 32 = 0.196
        "cutoff_rho": (
            "datum = power_law\ncutoff_rho = 0.15\n",
            "cutoff_rho = 0.15 gives a zero power_law datum: no lattice shell lies below it "
            "(the first is at 2 pi / side_length = 0.1963)",
        ),
        # a checkpoint holding this one value everywhere
        "zero_file": (0.0, "a zero or constant datum (||grad u0|| = 0)"),
        "constant_file": (0.3, "a zero or constant datum (||grad u0|| = 0)"),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", list(ZERO_DATUM_CASES))
    @pytest.mark.parametrize(
        "experiment",
        ["lyapunov", "energy-identity", "nonlinear-decay", "linear-decay"],
    )
    def test_zero_datum_exits_2(self, tmp_path, capsys, experiment, case):
        keys, reason = self.ZERO_DATUM_CASES[case]
        if isinstance(keys, float):
            chk = tmp_path / "u0.chk"
            grid = TorusGrid(16, 32.0)
            values = np.full(grid.shape, keys)
            ev.save_checkpoint(chk, PhysicalField(grid, values), t=0.0, step_count=0)
            keys = f"datum = file\ndatum_file = {chk}\n"
            reason = f"datum_file '{chk}': " + reason
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\n" + keys)
        out_dir = tmp_path / "out"
        assert run_experiment(ExperimentSpec(experiment, str(cfg), out_dir)) == 2
        out = capsys.readouterr().out
        assert out == f"config error: {reason}\n"
        assert not out_dir.exists()

    def test_decay_character_without_fit_shells_exits_2(self, tmp_path, capsys):
        # the fit runs below cutoff_rho / 2 = 0.075; the first shell is at 0.196
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\ncutoff_rho = 0.15\n")
        out_dir = tmp_path / "out"
        assert run_experiment(ExperimentSpec("decay-character", str(cfg), out_dir)) == 2
        out = capsys.readouterr().out
        assert out.startswith(
            "config error: cutoff_rho = 0.15: decay-character fits the lattice shells below "
            "cutoff_rho / 2, and the first lies at 2 pi / side_length = 0.1963"
        )
        assert not out_dir.exists()
        # at exactly twice the first shell the fit has that shell
        cfg.write_text(f"points_per_dim = 16\ncutoff_rho = {4 * np.pi / 32}\n")
        assert parse_config(cfg, "decay-character").cutoff_rho == 4 * np.pi / 32

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"delta = 0.1\n\xff\n")
        out_dir = tmp_path / "out"
        assert run_experiment(ExperimentSpec("bubble-constants", str(cfg), out_dir)) == 2
        message = f"config error: config file {cfg}: 'utf-8' codec can't decode byte 0xff"
        assert capsys.readouterr().out.startswith(message)
        assert not out_dir.exists()

    def test_config_echo_has_no_worker_count(self, tmp_path):
        spec = ExperimentSpec("bubble-constants", None, tmp_path / "out")
        assert run_experiment(spec) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not any("thread" in key for key in summary["config"])

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nsnapshot_count = 8\nt_end = 0.2\n")
        for out in (out1, out2):
            assert run_experiment(ExperimentSpec("lyapunov", str(cfg), out)) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_series_csv_columns_fixed(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nsnapshot_count = 8\nt_end = 0.2\n")
        out = tmp_path / "out"
        assert run_experiment(ExperimentSpec("lyapunov", str(cfg), out)) == 0
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header == "t,h1_sq,grad_h1_sq,energy,l4_fourth,l6_accum,low_sq,high_sq,pairing,pairing_ratio"
        rows = (out / "series.csv").read_text().splitlines()[1:]
        assert len(rows) == 9  # t=0 plus 8 snapshots

    @pytest.mark.parametrize(
        "experiment, snapshots, fit_key, verdict, usable",
        [
            ("nonlinear-decay", 10, "fit", "bound_check", 3),
            ("linear-decay", 6, "torus_fit", "torus_exponent", 2),
        ],
    )
    def test_unfittable_window_is_failed_check(
        self, tmp_path, experiment, snapshots, fit_key, verdict, usable
    ):
        # t_end = 0.3 leaves too few snapshots inside the default window
        # (T_box/100, T_box/3) for a slope
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"points_per_dim = 16\nsnapshot_count = {snapshots}\nt_end = 0.3\n")
        out = tmp_path / "out"
        assert run_experiment(ExperimentSpec(experiment, str(cfg), out)) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        assert summary["verdicts"][verdict] is False
        fit = summary[fit_key]
        assert fit["exponent"] is None
        assert f"holds {usable} usable records, need 5" in fit["reason"]
        assert fit["window"] == summary["config"]["fit_window_resolved"]
        rows = (out / "series.csv").read_text().splitlines()[1:]
        assert len(rows) == snapshots + 1

    def test_energy_identity_nested_levels(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("t_end = 0.05\nsnapshot_count = 4\n")
        out = tmp_path / "out"
        assert run_experiment(ExperimentSpec("energy-identity", str(cfg), out)) in (0, 1)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdicts"] and all(
            type(v) is bool for v in summary["verdicts"].values()
        )
        assert type(summary["passed"]) is bool
        n0 = 13  # ceil(0.05 / 0.004)
        assert summary["step_counts"] == [n0, 2 * n0, 4 * n0]
        assert summary["dt_levels"] == [0.05 / n0, 0.05 / (2 * n0), 0.05 / (4 * n0)]
        assert len(summary["residuals"]) == 3

    def test_linear_energy_identity_is_unchanged_by_held_states(self, tmp_path, monkeypatch):
        # a linear step releases its old state unless its caller holds it; a
        # caller that holds every state it steps changes no byte
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nsnapshot_count = 16\n")
        assert run_experiment(ExperimentSpec("linear-decay", str(cfg), tmp_path / "a")) == 0
        held, step = [], ev.step

        def holding(state, dt):
            held.append(state)
            return step(state, dt)

        monkeypatch.setattr(ev, "step", holding)
        assert run_experiment(ExperimentSpec("linear-decay", str(cfg), tmp_path / "b")) == 0
        # a step per snapshot interval, and more where an interval exceeds dt = 1
        assert len(held) > 16 and not any(state.nonlinear for state in held)
        for name in ("summary.json", "series.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_energy_identity_residual_gives_no_ratio(self, tmp_path, monkeypatch):
        # level 1's residual is 0: the ratio to it is null, the verdict fails,
        # and the JSON stays standard
        residual = dg.energy_identity_residual
        levels = []

        def zero_at_level_1(start, end):
            levels.append(residual(start, end))
            return 0.0 if len(levels) == 2 else levels[-1]

        monkeypatch.setattr(dg, "energy_identity_residual", zero_at_level_1)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("t_end = 0.05\nsnapshot_count = 4\n")
        out = tmp_path / "out"
        assert run_experiment(ExperimentSpec("energy-identity", str(cfg), out)) == 1

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["residuals"] == [levels[0], 0.0, levels[2]] and levels[0] > 0
        assert summary["refinement_ratios"] == [None, 0.0]
        assert summary["dt_levels"] == [0.05 / 13, 0.05 / 26, 0.05 / 52]
        assert "the residual of level 1 is 0" in summary["refinement_reason"]
        assert summary["verdicts"]["refinement_factor"] is False
        assert summary["passed"] is False

    def test_energy_identity_builds_its_datum_once(self, tmp_path, monkeypatch):
        calls = {"build_datum": 0, "bubble_constants": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(experiments, "build_datum")
        counted(bb, "bubble_constants")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("t_end = 0.05\nsnapshot_count = 4\n")
        spec = ExperimentSpec("energy-identity", str(cfg), tmp_path / "out")
        assert run_experiment(spec) in (0, 1)
        # the datum is sized by the Beta value of ||grad W||^2, not by quadrature
        assert calls == {"build_datum": 1, "bubble_constants": 0}

    def test_blow_up_is_a_failed_check(self, tmp_path):
        # 20 exp(-|x - c|^2) is far outside the small-data regime; a file
        # datum is not checked against it, so the run starts and blows up
        grid = TorusGrid(16, 16.0)
        x = grid.x_axis - 8.0
        r2 = (
            x[:, None, None, None] ** 2
            + x[None, :, None, None] ** 2
            + x[None, None, :, None] ** 2
            + x[None, None, None, :] ** 2
        )
        chk = tmp_path / "u0.chk"
        ev.save_checkpoint(chk, PhysicalField(grid, 20.0 * np.exp(-r2)), t=0.0, step_count=0)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"points_per_dim = 16\nside_length = 16\ndatum = file\ndatum_file = {chk}\n"
        )
        out = tmp_path / "out"
        assert run_experiment(ExperimentSpec("nonlinear-decay", str(cfg), out)) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        assert summary["verdicts"] == {"no_blow_up": False}
        blow_up = summary["blow_up"]
        # the step bound reads the dealiased field's sup |u|, 11.88 against
        # the full field's 20
        assert blow_up["step_count"] == 14
        assert blow_up["t"] == pytest.approx(0.011562, rel=1e-5)
        assert "non-finite values at t=0.011562 after 14 steps" in blow_up["reason"]
        assert (out / "series.csv").read_text().strip() == ",".join(CSV_COLUMNS)


class TestCli:
    def test_main_smoke(self, tmp_path):
        code = main(["bubble-constants", "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_main_threads_flag(self, tmp_path, capsys):
        # transforms run on one FFT worker; there is no flag to change that
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["bubble-constants", "--out", str(out), "--threads", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_main_out_on_a_file_exits_2(self, tmp_path, capsys, under):
        # checked before the run, so nothing is computed or written
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / "out" if under else blocker
        assert main(["bubble-constants", "--out", str(out)]) == 2
        message = f"config error: --out {out}: {blocker} exists and is not a directory"
        assert capsys.readouterr().out.startswith(message)
        assert blocker.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_help_names_the_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "exit codes: 0 every verdict passed; 1 a check failed" in text
        assert "2 a config or usage error. A traceback is a bug." in text

    def test_python_m_critheat_is_the_cli(self):
        src = str(Path(experiments.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-m", "critheat", "--help"], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0
        text = " ".join(out.stdout.split())
        assert "exit codes: 0 every verdict passed; 1 a check failed" in text

    def test_main_nonlinear_decay_checks_the_splitting(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nt_end = 0.2\nsnapshot_count = 8\n")
        out = tmp_path / "out"
        # the fit window holds too few snapshots at t_end = 0.2, so bound_check fails
        assert main(["nonlinear-decay", "--config", str(cfg), "--out", str(out)]) == 1
        assert (out / "series.csv").is_file() and (out / "summary.json").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdicts"] == {
            "bound_check": False,
            "partition_exact": True,
            "key_inequality_power": True,
            "key_inequality_log_cubed": True,
        }
        assert "holds 2 usable records, need 5" in summary["fit"]["reason"]

    @pytest.mark.parametrize(
        "experiment, config, code",
        [
            ("decay-character", "", 0),
            # the torus fit window holds too few snapshots at t_end = 0.2
            ("linear-decay", "t_end = 0.2\nsnapshot_count = 8\n", 1),
            ("lyapunov", "t_end = 0.2\nsnapshot_count = 8\n", 0),
            # the second refinement ratio reads 3.999994, under the gate of 4:
            # the known criterion-8 fault of second-order refinement at these steps
            ("energy-identity", "t_end = 0.05\nsnapshot_count = 8\n", 1),
        ],
    )
    def test_main_end_to_end(self, tmp_path, experiment, config, code):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\n" + config)
        out = tmp_path / "out"
        assert main([experiment, "--config", str(cfg), "--out", str(out)]) == code
        assert (out / "series.csv").is_file() and (out / "summary.json").is_file()

    def test_main_rejects_unknown_experiment(self, capsys):
        for name in ("perpetual-motion", "splitting"):
            with pytest.raises(SystemExit) as info:
                main([name])
            assert info.value.code == 2
            assert f"invalid choice: '{name}'" in capsys.readouterr().err
