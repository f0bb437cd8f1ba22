"""Config parsing, experiment orchestration, and file outputs."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from critheat import evolution as ev
from critheat.config import _PARSERS, ConfigError, HarnessConfig, _parse_float, parse_config
from critheat.diagnostics import CSV_COLUMNS
from critheat.experiments import ExperimentSpec, build_datum, run_experiment
from critheat.spectral import PhysicalField, TorusGrid, sobolev_norm_sq
from critheat.cli import main


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg.points_per_dim == 32
        assert cfg.side_length == 32.0
        assert cfg.delta == 0.1
        assert cfg.datum == "power_law" and cfg.profile_r == 0.0

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert parse_config(path) == parse_config(None)

    def test_comments_and_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# a comment\n"
            "points_per_dim = 64   # inline comment\n"
            "nonlinearity = false\n"
            "delta = 0.25\n"
        )
        cfg = parse_config(path)
        assert cfg.points_per_dim == 64
        assert cfg.nonlinearity is False
        assert cfg.delta == 0.25

    def test_odd_n_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dim = 15\n")
        with pytest.raises(ConfigError, match="even integer >= 16"):
            parse_config(path)

    def test_profile_r_hypothesis_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("profile_r = -2.5\n")
        with pytest.raises(ConfigError, match="q\\* > -2"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dimension = 32\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

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

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CRITHEAT_THREADS", "3")
        assert parse_config(None).resolved_threads() == 3
        monkeypatch.setenv("CRITHEAT_THREADS", "zero")
        with pytest.raises(ConfigError, match="integer"):
            parse_config(None).resolved_threads()
        monkeypatch.delenv("CRITHEAT_THREADS")
        assert parse_config(None).resolved_threads() == 1

    def test_threads_override(self):
        cfg = parse_config(None)
        assert cfg.resolved_threads(3) == 3
        assert cfg.resolved_threads(0) == cfg.resolved_threads()
        with pytest.raises(ConfigError, match="threads must be >= 1.*got -1"):
            cfg.resolved_threads(-1)

    def test_snapshot_t_min_must_be_below_t_end(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("t_end = 0.5\nsnapshot_t_min = 0.5\n")
        with pytest.raises(ConfigError, match="snapshot_t_min = 0.5 must be below t_end = 0.5"):
            parse_config(path)
        path.write_text("t_end = 0.5\nsnapshot_t_min = 0.49\n")
        assert parse_config(path).resolved_snapshot_t_min() == 0.49

    def test_negative_snapshot_t_min_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("t_end = 0.5\nsnapshot_t_min = -1\n")
        message = "snapshot_t_min must be positive (or 0 for t_end / 500), got -1.0"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        path.write_text("t_end = 0.5\nsnapshot_t_min = 0\n")
        assert parse_config(path).resolved_snapshot_t_min() == 0.5 / 500.0

    @pytest.mark.parametrize("dt", ["0", "-0.01"])
    def test_nonpositive_dt_rejected(self, tmp_path, dt):
        path = tmp_path / "c.cfg"
        path.write_text(f"dt = {dt}\n")
        with pytest.raises(ConfigError, match="dt must be positive"):
            parse_config(path)

    def test_unknown_datum_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("datum = wavelet\n")
        with pytest.raises(ConfigError, match="datum must be one of .*; got 'wavelet'"):
            parse_config(path)

    def test_file_datum_needs_a_path(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("datum = file\n")
        with pytest.raises(ConfigError, match="datum = file requires datum_file"):
            parse_config(path)

    def test_grid_beyond_physical_memory_rejected(self, tmp_path):
        # parsed only: a complex 512^4 array alone would be 1 TiB
        path = tmp_path / "c.cfg"
        path.write_text("points_per_dim = 512\n")
        with pytest.raises(
            ConfigError,
            match=r"^points_per_dim = 512 needs an estimated [0-9.e+]+ GiB working set "
            r"\(22 complex N\^4 arrays\), more than the [0-9.e+]+ GiB of physical memory$",
        ):
            parse_config(path)

    def test_cutoff_validation_names_nyquist(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("cutoff_rho = 50\n")
        with pytest.raises(ConfigError, match="Nyquist"):
            parse_config(path)

    def test_resolved_quantities(self):
        cfg = HarnessConfig()
        assert cfg.t_box == pytest.approx((32.0 / (2 * np.pi)) ** 2 / 4.0)
        lo, hi = cfg.resolved_fit_window()
        assert lo == pytest.approx(cfg.t_box / 100.0)
        assert hi == pytest.approx(cfg.t_box / 3.0)
        assert cfg.resolved_schedule_alpha() == pytest.approx(3.0)  # q*=0 datum


FLOAT_KEYS = [
    f.name for f in fields(HarnessConfig) if type(getattr(HarnessConfig(), f.name)) is float
]
# spellings float() accepts; the last two overflow to infinity
NON_FINITE = ["nan", "NaN", "-nan", "inf", "+inf", "-inf", "Infinity", "-INFINITY", "1e999", "-2e308"]


class TestFloatKeys:
    def test_float_keys_are_the_float_parsed_keys(self):
        assert set(FLOAT_KEYS) == {f.name for f in fields(HarnessConfig)} - set(_PARSERS)

    @given(key=st.sampled_from(FLOAT_KEYS), raw=st.sampled_from(NON_FINITE))
    def test_non_finite_rejected_by_name(self, tmp_path_factory, key, raw):
        path = tmp_path_factory.mktemp("cfg") / "c.cfg"
        path.write_text(f"{key} = {raw}\n")
        message = f"{key} must be a finite number, got '{raw}'"
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            parse_config(path)

    @given(key=st.sampled_from(FLOAT_KEYS), value=st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_values_parse_exactly(self, key, value):
        assert _parse_float(key, repr(value)) == value


class TestBuildDatum:
    def test_power_law_scaled_to_delta(self):
        cfg = HarnessConfig()
        grid = TorusGrid(cfg.points_per_dim, cfg.side_length)
        u0 = build_datum(cfg, grid)
        assert cfg.nominal_q_star() == 0.0
        h1 = np.sqrt(sobolev_norm_sq(u0, 1.0))
        assert h1 == pytest.approx(0.1 * np.sqrt(32 * np.pi**2 / 3), rel=1e-10)

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
        cfg = parse_config(cfg_path)
        u0 = build_datum(cfg, grid)
        back = sobolev_norm_sq(u0, 0.0)
        assert back == pytest.approx(grid.spacing**4 * np.sum(field.values**2), rel=1e-12)

    def test_file_datum_grid_mismatch(self, tmp_path):
        grid = TorusGrid(16, 32.0)
        field = PhysicalField(grid, np.zeros(grid.shape))
        chk = tmp_path / "u0.chk"
        ev.save_checkpoint(chk, field, t=0.0, step_count=0)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"datum = file\ndatum_file = {chk}\n")  # default N=32
        cfg = parse_config(cfg_path)
        with pytest.raises(ConfigError, match="does not match"):
            build_datum(cfg, TorusGrid(32, 32.0))


class TestRunExperiment:
    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentSpec("warp-drive", None, tmp_path)

    def test_bubble_constants_end_to_end(self, tmp_path):
        spec = ExperimentSpec("bubble-constants", None, tmp_path / "out")
        assert run_experiment(spec) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["passed"] is True
        got = summary["constants"]["grad_l2_sq"]
        assert abs(got / (32 * np.pi**2 / 3) - 1) <= 1e-6
        assert "config" in summary and "t_box" in summary
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
        spec = ExperimentSpec("bubble-constants", str(bad), tmp_path / "out")
        assert run_experiment(spec) == 2

    def test_snapshot_t_min_beyond_t_end_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nt_end = 0.5\nsnapshot_t_min = 1\n")
        spec = ExperimentSpec("lyapunov", str(cfg), tmp_path / "out")
        assert run_experiment(spec) == 2
        out = capsys.readouterr().out
        assert "config error: snapshot_t_min = 1.0 must be below t_end = 0.5" in out
        assert not (tmp_path / "out").exists()

    def test_negative_snapshot_t_min_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nt_end = 0.5\nsnapshot_t_min = -1\n")
        spec = ExperimentSpec("lyapunov", str(cfg), tmp_path / "out")
        assert run_experiment(spec) == 2
        out = capsys.readouterr().out
        assert "config error: snapshot_t_min must be positive (or 0 for t_end / 500)" in out
        assert not (tmp_path / "out").exists()

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
        cfg.write_text("t_end = 0.05\nsnapshot_count = 4\nrefinement_levels = 2\n")
        out = tmp_path / "out"
        assert run_experiment(ExperimentSpec("energy-identity", str(cfg), out)) in (0, 1)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdicts"] and all(
            type(v) is bool for v in summary["verdicts"].values()
        )
        assert type(summary["passed"]) is bool
        n0 = 13  # ceil(0.05 / 0.004)
        assert summary["step_counts"] == [n0, 2 * n0]
        assert summary["dt_levels"] == [0.05 / n0, 0.05 / (2 * n0)]
        assert len(summary["residuals"]) == 2


class TestCli:
    def test_main_smoke(self, tmp_path):
        code = main(["bubble-constants", "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_main_threads_flag(self, tmp_path):
        code = main(["bubble-constants", "--out", str(tmp_path / "out"), "--threads", "1"])
        assert code == 0

    def test_main_negative_threads_exits_2(self, tmp_path, capsys):
        code = main(["bubble-constants", "--out", str(tmp_path / "out"), "--threads", "-1"])
        assert code == 2
        assert "config error: threads must be >= 1" in capsys.readouterr().out

    def test_main_splitting_matches_nonlinear_decay_series(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("points_per_dim = 16\nt_end = 0.2\nsnapshot_count = 8\n")
        split, decay = tmp_path / "split", tmp_path / "decay"
        assert main(["splitting", "--config", str(cfg), "--out", str(split)]) == 0
        assert (split / "series.csv").is_file() and (split / "summary.json").is_file()
        main(["nonlinear-decay", "--config", str(cfg), "--out", str(decay)])
        assert (split / "series.csv").read_bytes() == (decay / "series.csv").read_bytes()

    def test_main_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["perpetual-motion"])
