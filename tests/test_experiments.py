"""Sweep specs, config grammar, CSV contract, and the CLI shell."""

import math

import pytest

from fsorf import experiments
from fsorf.composition import GainMode
from fsorf.experiments import (
    CSV_COLUMNS,
    ConfigError,
    Metric,
    csv_rows,
    preset_entries,
    read_csv,
    run_experiment,
    spec_from_sources,
)
from fsorf.metrics import BerResult
from fsorf import cli


# ------------------------------------------------------------- parsing

def test_empty_config_gives_full_default_spec():
    spec = spec_from_sources("")
    assert spec.preset == "custom"
    assert spec.metric is Metric.OUTAGE
    assert spec.modes == (GainMode.ADAPTIVE, GainMode.FIXED)
    assert spec.n_users == (2,)
    assert spec.m_relays == (2,)
    assert spec.lam == (1.0,)
    assert spec.xi == 1.45
    assert spec.gamma_th_db == 10.0
    assert spec.gamma_avg_db == tuple(float(g) for g in range(0, 45, 5))
    assert spec.methods == ("closed-form", "quadrature", "monte-carlo")
    assert spec.sim.trials_or_bits == 1000000
    assert spec.sim.seed == 42


def test_presets_expand_to_captioned_parameters():
    fig1 = spec_from_sources(overrides={"preset": "fig1"})
    assert fig1.metric is Metric.OUTAGE
    assert fig1.n_users == (1, 2, 4)
    assert fig1.m_relays == (2,)
    assert fig1.lam == (1.0,)
    assert fig1.xi == 1.45
    assert fig1.gamma_th_db == 10.0

    fig2 = spec_from_sources(overrides={"preset": "fig2"})
    assert fig2.n_users == (2,)
    # family sweeps turbulence variance 1/lambda^2 over {0.5, 1, 2}
    variances = tuple(1.0 / lam ** 2 for lam in fig2.lam)
    assert variances == pytest.approx((0.5, 1.0, 2.0))

    fig3 = spec_from_sources(overrides={"preset": "fig3"})
    assert fig3.metric is Metric.BER
    assert fig3.n_users == (2,)
    assert fig3.m_relays == (1, 2, 3)


def test_fig1_preset_matches_longhand_config():
    preset = spec_from_sources(overrides={"preset": "fig1"})
    text = "\n".join(f"{k} = {v}" for k, v in preset_entries("fig1").items()
                     if k != "preset")
    longhand = spec_from_sources(text)
    for field in ("metric", "modes", "n_users", "m_relays", "lam", "xi",
                  "gamma_th_db", "gamma_avg_db", "methods", "sim"):
        assert getattr(preset, field) == getattr(longhand, field)


def test_comments_and_blank_lines_ignored():
    spec = spec_from_sources("""
# full-line comment

users = 4   # trailing comment
""")
    assert spec.n_users == (4,)


def test_sweep_grammar():
    assert spec_from_sources("gamma_avg_db = 20").gamma_avg_db == (20.0,)
    assert spec_from_sources("gamma_avg_db = 20:5:20").gamma_avg_db == (20.0,)
    assert spec_from_sources(
        "gamma_avg_db = 0:2.5:10").gamma_avg_db == (0.0, 2.5, 5.0, 7.5, 10.0)


@pytest.mark.parametrize("text,fragment", [
    ("xi = 1.0", "xi^2"),
    ("bogus = 3", "unknown key"),
    ("users = 2\nusers = 3", "duplicate"),
    ("users = 0", ">= 1"),
    ("users =", "empty value"),
    ("just a line", "key = value"),
    ("gamma_avg_db = 10:0:20", "step"),
    ("gamma_avg_db = 20:5:10", "stop"),
    ("metric = latency", "metric"),
    ("mode = duplex", "mode"),
    ("methods = closed-form,sorcery", "unknown method"),
    ("trials = 10", "at least 1000"),
    ("users = 1,2\nrelays = 2,3", "at most one"),
    ("out = /nonexistent/dir/x.csv", "does not exist"),
    ("out = .", "is a directory"),
    ("gamma_avg_db = 4000", "out of range"),
    ("gamma_avg_db = nan", "must be finite"),
    ("gamma_avg_db = 0:inf:10", "must be finite"),
    ("gamma_avg_db = -inf:1:0", "must be finite"),
    ("gamma_th_db = 4000", "out of range"),
    ("gamma_avg_db = -1e308:1:1e308", "more than 10000 points"),
    ("gamma_avg_db = 0:1e-9:40", "more than 10000 points"),
    ("gamma_avg_db = 0:1e-300:1", "more than 10000 points"),
])
def test_config_rejections(text, fragment):
    with pytest.raises(ConfigError) as excinfo:
        spec_from_sources(text)
    assert fragment in str(excinfo.value)


def test_config_error_carries_line_number():
    with pytest.raises(ConfigError) as excinfo:
        spec_from_sources("users = 2\nrelays = 2\nxi = 1.0\n")
    assert excinfo.value.line == 3
    # the later of two sweeping keys carries the complaint
    with pytest.raises(ConfigError) as excinfo:
        spec_from_sources("users = 1,2\nrelays = 2,3")
    assert excinfo.value.line == 2
    with pytest.raises(ConfigError) as excinfo:
        spec_from_sources("users = 2\nout = /nonexistent/dir/x.csv")
    assert excinfo.value.line == 2
    # a SimConfig seed complaint sits at the seed line, not at trials
    with pytest.raises(ConfigError) as excinfo:
        spec_from_sources("trials = 2000\nseed = 18446744073709551616")
    assert excinfo.value.line == 2
    # a LinkParams xi complaint sits at the xi line, not at lambda
    with pytest.raises(ConfigError) as excinfo:
        spec_from_sources("lambda = 1\nxi = 1.0")
    assert excinfo.value.line == 2
    # a non-finite threshold is rejected at its own line
    with pytest.raises(ConfigError) as excinfo:
        spec_from_sources("lambda = 1\ngamma_th_db = nan")
    assert excinfo.value.line == 2


def test_overrides_win_over_config_text():
    spec = spec_from_sources("users = 4\nseed = 7\n",
                             overrides={"users": "2"})
    assert spec.n_users == (2,)
    assert spec.sim.seed == 7


# ------------------------------------------------------------ execution

def _tiny_overrides(**extra):
    base = {"preset": "custom", "users": "1", "relays": "1",
            "gamma_avg_db": "10:10:20", "methods": "closed-form",
            "trials": "2000"}
    base.update(extra)
    return base


def test_run_experiment_row_order_and_count():
    spec = spec_from_sources(overrides=_tiny_overrides())
    points = run_experiment(spec)
    assert len(points) == 4  # 2 modes x 2 sweep points
    assert [(p.mode, p.gamma_avg_db) for p in points] == [
        (GainMode.ADAPTIVE, 10.0), (GainMode.ADAPTIVE, 20.0),
        (GainMode.FIXED, 10.0), (GainMode.FIXED, 20.0)]
    for p in points:
        assert p.closed_form is not None
        assert p.quadrature is None
        assert p.mc is None
        assert p.error is None


def test_run_experiment_single_mode():
    spec = spec_from_sources(
        overrides=_tiny_overrides(mode="unknown-csi",
                                  gamma_avg_db="15"))
    points = run_experiment(spec)
    assert [p.mode for p in points] == [GainMode.FIXED]


def test_methods_fill_their_columns():
    spec = spec_from_sources(overrides=_tiny_overrides(
        methods="quadrature,monte-carlo", gamma_avg_db="15",
        mode="known-csi"))
    (point,) = run_experiment(spec)
    assert point.closed_form is None
    assert point.quadrature is not None
    assert point.mc is not None
    assert point.mc.n == 2000
    # the Monte-Carlo column samples what the analysis computes, so the
    # interval should bracket the quadrature value at 3 sigma width
    half = (point.mc.ci_high - point.mc.ci_low) / 2.0
    assert abs(point.mc.mean - point.quadrature) <= 3.0 * half / 1.96


def test_csv_round_trip_exact(tmp_path):
    out = tmp_path / "run.csv"
    spec = spec_from_sources(overrides=_tiny_overrides(
        methods="closed-form,quadrature,monte-carlo",
        out=str(out)))
    points = run_experiment(spec)
    assert read_csv(str(out)) == points


def test_csv_round_trip_exact_ber(tmp_path):
    out = tmp_path / "ber.csv"
    spec = spec_from_sources(overrides=_tiny_overrides(
        metric="ber", gamma_avg_db="10", mode="known-csi", out=str(out)))
    points = run_experiment(spec)
    assert read_csv(str(out)) == points
    assert points[0].metric is Metric.BER


def test_csv_byte_identical_across_runs_and_workers(tmp_path):
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    for path, workers in zip(paths, ("1", "1", "3")):
        spec = spec_from_sources(overrides=_tiny_overrides(
            methods="closed-form,monte-carlo", workers=workers,
            out=str(path)))
        run_experiment(spec)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_csv_header_schema():
    spec = spec_from_sources(overrides=_tiny_overrides(gamma_avg_db="15"))
    rows = csv_rows(run_experiment(spec))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows[0]) == 17


def test_point_failure_lands_in_error_column(tmp_path, monkeypatch):
    def boom(topology, params):
        raise ArithmeticError("synthetic blow-up")

    monkeypatch.setattr("fsorf.experiments.outage_closed_form", boom)
    out = tmp_path / "broken.csv"
    spec = spec_from_sources(overrides=_tiny_overrides(
        gamma_avg_db="15", mode="known-csi",
        methods="closed-form,quadrature", out=str(out)))
    (point,) = run_experiment(spec)
    assert point.closed_form is None
    assert point.quadrature is not None  # other methods still ran
    assert "closed-form: synthetic blow-up" in point.error
    assert read_csv(str(out)) == [point]


def test_unconverged_ber_series_lands_in_error_column(monkeypatch):
    def unconverged(topology, params):
        return BerResult(value=0.125, truncation=3.5e-4, n_terms=201,
                         converged=False)

    monkeypatch.setattr("fsorf.experiments.ber_closed_form", unconverged)
    spec = spec_from_sources(overrides=_tiny_overrides(
        gamma_avg_db="15", mode="unknown-csi", metric="ber"))
    (point,) = run_experiment(spec)
    assert point.closed_form is None
    assert point.error == ("closed-form: ConvergenceError: BER series "
                           "unconverged after 201 terms, truncation 0.00035")


# ------------------------------------------------------------------ CLI

def test_cli_writes_csv_and_exits_zero(tmp_path):
    out = tmp_path / "cli.csv"
    code = cli.main([
        "--preset", "custom", "--users", "1", "--relays", "1",
        "--metric", "outage", "--methods", "closed-form",
        "--gamma-avg-db", "10", "--mode", "known-csi",
        "--out", str(out)])
    assert code == 0
    points = read_csv(str(out))
    assert len(points) == 1
    assert points[0].n_users == 1


def test_cli_stdout_when_no_out(capsys):
    code = cli.main([
        "--users", "1", "--relays", "1", "--methods", "closed-form",
        "--gamma-avg-db", "10", "--mode", "known-csi"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(captured.out.splitlines()) == 2


def test_cli_flag_overrides_config(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("users = 4\nrelays = 1\nmethods = closed-form\n"
                      "gamma_avg_db = 10\nmode = known-csi\n")
    out = tmp_path / "o.csv"
    code = cli.main(["--config", str(config), "--users", "2",
                     "--out", str(out)])
    assert code == 0
    points = read_csv(str(out))
    assert {p.n_users for p in points} == {2}


def test_cli_bad_flag_value_is_config_error(capsys, monkeypatch):
    assert cli.main(["--metric", "latency"]) == 1
    err = capsys.readouterr().err
    # the config parser, not argparse, judges the value
    assert "config error" in err
    assert "metric must be outage or ber" in err

    def never(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("fsorf.cli.run_experiment", never)
    assert cli.main(["--methods", "closed-form",
                     "--gamma-avg-db", "0:inf:10"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_flags_are_the_config_keys():
    dests = {action.dest for action in cli.build_parser()._actions}
    assert dests - {"help", "config"} == set(experiments._CONFIG_KEYS)


def test_cli_missing_output_directory_computes_nothing(tmp_path, capsys,
                                                       monkeypatch):
    def never(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("fsorf.cli.run_experiment", never)
    # a missing parent directory, and an existing directory as the file
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        code = cli.main(["--users", "1", "--relays", "1",
                         "--methods", "closed-form", "--gamma-avg-db", "10",
                         "--mode", "known-csi", "--out", str(out)])
        assert code == 1
        assert "config error" in capsys.readouterr().err


def test_cli_bad_config_key_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("wavelength = 1550\n")
    assert cli.main(["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err


def test_cli_missing_config_file(capsys):
    assert cli.main(["--config", "/nonexistent/sweep.cfg"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_numeric_failure_exits_two(tmp_path, monkeypatch, capsys):
    def boom(topology, params):
        raise ArithmeticError("synthetic blow-up")

    monkeypatch.setattr("fsorf.experiments.outage_closed_form", boom)
    out = tmp_path / "fail.csv"
    code = cli.main([
        "--users", "1", "--relays", "1", "--methods", "closed-form",
        "--gamma-avg-db", "10", "--mode", "known-csi", "--out", str(out)])
    assert code == 2
    assert "failed" in capsys.readouterr().err
    assert read_csv(str(out))[0].error is not None


def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
