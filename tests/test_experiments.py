"""Sweep specs, config grammar, CSV contract, and the CLI shell."""

import collections
import csv
import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fsorf
from fsorf import channels, experiments, special
from fsorf.composition import GainMode
from fsorf.experiments import (
    CSV_COLUMNS,
    ConfigError,
    CurvePoint,
    Metric,
    csv_rows,
    preset_entries,
    read_csv,
    run_experiment,
    spec_from_sources,
    write_csv,
)
from fsorf.metrics import BerResult
from fsorf.montecarlo import MetricEstimate
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
    ("users = two", "integer(s)"),
    ("lambda = abc", "number(s)"),
    ("gamma_avg_db = a:b:c", "bad sweep"),
    ("gamma_avg_db = 0:5", "start:step:stop"),
    ("xi = 1.4,1.5", "single value"),
    ("preset = fig9", "unknown preset"),
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


def test_unknown_override_and_preset_names_are_rejected():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        spec_from_sources(overrides={"bogus": "1"})
    with pytest.raises(ConfigError, match="unknown preset 'fig9'"):
        preset_entries("fig9")


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


def test_csv_text_is_pinned(tmp_path):
    # hand-built points, so the text does not depend on the numerics
    points = [
        CurvePoint(
            preset="fig1", mode=GainMode.ADAPTIVE, metric=Metric.OUTAGE,
            n_users=2, m_relays=3, xi=1.45, lam=1.0, gamma_th_db=10.0,
            gamma_avg_db=20.0, closed_form=0.1,
            quadrature=0.30000000000000004,
            mc=MetricEstimate(mean=0.25, ci_low=0.125, ci_high=0.375,
                              n=2000),
            seed=42, error=None),
        CurvePoint(
            preset="custom", mode=GainMode.FIXED, metric=Metric.BER,
            n_users=1, m_relays=1, xi=2.5, lam=0.7071067811865476,
            gamma_th_db=-3.5, gamma_avg_db=-10.0, closed_form=None,
            quadrature=None, mc=None, seed=0,
            error='closed-form: bad, worse; "quoted"'),
        CurvePoint(
            preset="fig3", mode=GainMode.FIXED, metric=Metric.BER,
            n_users=4, m_relays=2, xi=1.45, lam=1.0, gamma_th_db=10.0,
            gamma_avg_db=40.0, closed_form=1.5e-300, quadrature=None,
            mc=MetricEstimate(mean=0.0, ci_low=0.0, ci_high=3e-06, n=10),
            seed=7, error="quadrature: overflow encountered in power"),
    ]
    out = tmp_path / "pinned.csv"
    write_csv(points, str(out))
    with open(out, newline="") as handle:
        text = handle.read()
    assert text == (
        ",".join(CSV_COLUMNS) + "\n"
        "fig1,known-csi,outage,2,3,1.45,1.0,10.0,20.0,0.1,"
        "0.30000000000000004,0.25,0.125,0.375,2000,42,\n"
        "custom,unknown-csi,ber,1,1,2.5,0.7071067811865476,-3.5,-10.0,"
        ',,,,,,0,"closed-form: bad, worse; ""quoted"""\n'
        "fig3,unknown-csi,ber,4,2,1.45,1.0,10.0,40.0,1.5e-300,,0.0,0.0,"
        "3e-06,10,7,quadrature: overflow encountered in power\n")
    assert read_csv(str(out)) == points


def test_read_csv_rejects_rows_of_the_wrong_width(tmp_path):
    # neither a bare KeyError for a short row nor a silently dropped
    # cell for a long one: both are refused, naming their line, and a
    # header without the error column is no curve-point CSV
    header = ",".join(CSV_COLUMNS) + "\n"
    row = ("fig1,known-csi,outage,2,3,1.45,1.0,10.0,20.0,0.1,0.3,0.25,"
           "0.125,0.375,2000,42,\n")
    cases = [(header + row + "fig1,known-csi,outage,2\n", "line 3: 4 cells"),
             (header + row[:-1] + ",extra\n", "line 2: 18 cells"),
             (",".join(CSV_COLUMNS[:-1]) + "\n" + row[:-2] + "\n",
              r"not a curve-point CSV \(header mismatch\)")]
    for text, message in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_csv(str(path))
    path.write_text(header + row)
    assert len(read_csv(str(path))) == 1


def test_read_csv_rejects_empty_cells_where_a_value_is_needed(tmp_path):
    # only the estimate cells and the error cell may be empty, and the
    # four mc_* cells only together
    header = ",".join(CSV_COLUMNS) + "\n"
    row = ("fig1,known-csi,outage,2,3,1.45,1.0,10.0,20.0,0.1,0.3,0.25,"
           "0.125,0.375,2000,42,x").split(",")
    path = tmp_path / "empty.csv"
    for i, column in enumerate(CSV_COLUMNS):
        path.write_text(header + ",".join(row[:i] + [""] + row[i + 1:])
                        + "\n")
        if column in ("closed_form", "quadrature", "error"):
            (point,) = read_csv(str(path))
            assert getattr(point, column) is None, column
        elif column.startswith("mc_"):
            with pytest.raises(ValueError,
                               match="line 2: mc_\\* cells are partly empty"):
                read_csv(str(path))
        else:
            with pytest.raises(ValueError,
                               match=f"line 2: empty {column} cell"):
                read_csv(str(path))
    path.write_text(header + ",".join(row[:11] + [""] * 4 + row[15:]) + "\n")
    assert read_csv(str(path))[0].mc is None


def test_write_csv_leaves_the_mode_open_would(tmp_path):
    old = os.umask(0o022)
    try:
        new = tmp_path / "new.csv"
        write_csv([], str(new))
        assert stat.S_IMODE(new.stat().st_mode) == 0o644
        # an overwritten file keeps its own mode
        kept = tmp_path / "kept.csv"
        kept.write_text("old\n")
        kept.chmod(0o640)
        write_csv([], str(kept))
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert read_csv(str(kept)) == []
    finally:
        os.umask(old)


def test_write_csv_failing_midway_keeps_the_target(tmp_path, monkeypatch):
    # the rows fail after the header is written: the .csv.part goes, and
    # the file already at the path keeps its bytes
    def failing_rows(points):
        yield list(CSV_COLUMNS)
        raise OSError("synthetic write failure")

    monkeypatch.setattr("fsorf.experiments.csv_rows", failing_rows)
    target = tmp_path / "kept.csv"
    target.write_bytes(b"old,bytes\n")
    with pytest.raises(OSError, match="synthetic write failure"):
        write_csv([], str(target))
    assert target.read_bytes() == b"old,bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]


def test_point_failure_lands_in_error_column(tmp_path, monkeypatch):
    def boom(topology, params, *, memo=None):
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


def test_failed_monte_carlo_curve_lands_in_each_of_its_points(monkeypatch):
    def boom(chains, levels, cfg):
        raise ArithmeticError("synthetic curve failure")

    monkeypatch.setattr("fsorf.experiments.simulate_outage_curves", boom)
    spec = spec_from_sources(overrides=_tiny_overrides(
        mode="known-csi", methods="closed-form,monte-carlo"))
    points = run_experiment(spec)
    assert [p.gamma_avg_db for p in points] == [10.0, 20.0]
    for point in points:
        assert point.mc is None
        assert point.error == "monte-carlo: synthetic curve failure"
        assert 0.0 < point.closed_form < 1.0   # the other cells are kept


def test_monte_carlo_runs_once_per_users_lambda_group(monkeypatch):
    # one call per (users, lambda) group covers both gain modes and every
    # relay count; a group whose call raises puts the message in every
    # point of its curves, and the other group keeps its cells
    real = experiments.simulate_outage_curves
    calls = []

    def spy(chains, levels, cfg):
        calls.append([(t.n_users, t.m_relays, t.first_segment_mode)
                      for t in chains])
        if chains[0].n_users == 1:
            raise ArithmeticError("synthetic group failure")
        return real(chains, levels, cfg)

    overrides = _tiny_overrides(users="1,2", relays="1", methods="monte-carlo")
    want = run_experiment(spec_from_sources(overrides=overrides))
    monkeypatch.setattr("fsorf.experiments.simulate_outage_curves", spy)
    points = run_experiment(spec_from_sources(overrides=overrides))
    assert calls == [[(n, 1, GainMode.ADAPTIVE), (n, 1, GainMode.FIXED)]
                     for n in (1, 2)]
    assert len(points) == 8
    for point, before in zip(points, want):
        if point.n_users == 1:
            assert point.mc is None
            assert point.error == "monte-carlo: synthetic group failure"
        else:
            assert point == before
            assert point.mc is not None and point.error is None


def test_repeated_sweep_values_repeat_their_rows(tmp_path):
    # --users 2,2 writes each curve twice, with equal cells, and each copy
    # is the curve a --users 2 sweep writes
    def rows(users):
        out = tmp_path / f"users{users}.csv"
        run_experiment(spec_from_sources(overrides=_tiny_overrides(
            users=users, methods="closed-form,monte-carlo", out=str(out))))
        with open(out) as handle:
            return handle.read().splitlines()[1:]

    single, repeated = rows("2"), rows("2,2")
    # sweep order is mode, then users: a two-row curve per mode
    known, unknown = single[:2], single[2:]
    assert repeated == known + known + unknown + unknown


def _route_outcome(route, *args):
    # a route's value bits, or its exception's class and message
    try:
        return float(route(*args)).hex()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _check_cells_equal_fresh_calls(monkeypatch, spec, n_points, memos):
    # every closed-form and quadrature cell of a run of spec, failing
    # cells included, is what a one-point call without a memo gives,
    # though the points of each (lambda, gamma_avg) level share a memo;
    # returns the number of failing cells
    calls = []

    def recorded(route):
        def call(spec, topology, params, memo):
            try:
                value = route(spec, topology, params, memo)
            except Exception as exc:
                calls.append((route, topology, params, memo,
                              (type(exc).__name__, str(exc))))
                raise
            calls.append((route, topology, params, memo, float(value).hex()))
            return value
        return call

    for method in ("closed-form", "quadrature"):
        monkeypatch.setitem(experiments._ROUTES, method,
                            recorded(experiments._ROUTES[method]))
    points = run_experiment(spec)
    # two routes per point, one memo per level
    assert len(calls) == 2 * len(points) == 2 * n_points
    assert len({id(memo) for *_, memo, _ in calls}) == memos
    failed = 0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for route, topology, params, memo, got in calls:
            assert memo, (topology, params)
            fresh = _route_outcome(route, spec, topology, params, None)
            assert got == fresh, (route.__name__, topology, params)
            failed += isinstance(got, tuple)
    return failed


@pytest.mark.parametrize("metric", ["outage", "ber"])
def test_group_memo_cells_equal_fresh_one_point_calls(monkeypatch, metric):
    # the six points of each level share its memo
    spec = spec_from_sources(overrides={
        "relays": "1,2,3", "gamma_avg_db": "-30:15:120", "metric": metric,
        "methods": "closed-form,quadrature"})
    failed = _check_cells_equal_fresh_calls(monkeypatch, spec, 66, 11)
    if metric == "ber":
        assert failed


@pytest.mark.parametrize("metric", ["outage", "ber"])
def test_level_memo_cells_equal_fresh_calls_across_user_counts(monkeypatch,
                                                               metric):
    # the twelve points of each level, three user counts among them,
    # share its memo.  The config grammar lets one key sweep, so the
    # relay list is set on the resolved spec: run_experiment takes any
    # spec
    spec = dataclasses.replace(spec_from_sources(overrides={
        "users": "1,2,4", "gamma_avg_db": "-30:15:120", "metric": metric,
        "methods": "closed-form,quadrature"}), m_relays=(1, 3))
    failed = _check_cells_equal_fresh_calls(monkeypatch, spec, 132, 11)
    if metric == "ber":
        assert failed


def test_runs_share_no_cached_value(monkeypatch):
    # two runs of one spec in one process make the same special-function
    # and FSO CDF calls: the group memos die with their run
    counts = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    for target in ("fsorf.metrics.meijer_g", "fsorf.composition.meijer_g",
                   "fsorf.composition.ne_pe_snr_cdf"):
        module, name = target.rsplit(".", 1)
        monkeypatch.setattr(target, counted(
            name, getattr(sys.modules[module], name)))
    spec = spec_from_sources(overrides={
        "preset": "fig3", "methods": "closed-form,quadrature",
        "gamma_avg_db": "0:20:40"})
    seen = []
    for _ in range(2):
        counts.clear()
        run_experiment(spec)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["meijer_g"] > 0 and seen[0]["ne_pe_snr_cdf"] > 0


def test_fig1_analytic_sweep_shares_user_independent_parts(monkeypatch):
    # at each of fig1's nine levels the three user counts and both routes
    # share the scalar FSO CDF at gamma_th; the user counts share the
    # four fixed-segment kernels (k = 0..3), the only Meijer-G calls, and
    # the FSO CDF on the fixed-gain oracle's t grid
    counts = collections.Counter()

    def meijer(row, z):
        counts["meijer_g"] += 1
        return special.meijer_g(row, z)

    def cdf(gamma, params):
        counts[f"ne_pe_snr_cdf ndim {np.ndim(gamma)}"] += 1
        return channels.ne_pe_snr_cdf(gamma, params)

    for target in ("fsorf.metrics.meijer_g", "fsorf.composition.meijer_g"):
        monkeypatch.setattr(target, meijer)
    for target in ("fsorf.metrics.ne_pe_snr_cdf",
                   "fsorf.composition.ne_pe_snr_cdf"):
        monkeypatch.setattr(target, cdf)
    run_experiment(spec_from_sources(overrides={
        "preset": "fig1", "methods": "closed-form,quadrature"}))
    assert counts == {"meijer_g": 36, "ne_pe_snr_cdf ndim 0": 9,
                      "ne_pe_snr_cdf ndim 1": 9}


def test_unconverged_ber_series_lands_in_error_column(monkeypatch):
    def unconverged(topology, params, *, memo=None):
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


def test_cli_integer_zeta_is_config_error(capsys, monkeypatch):
    # at xi = 2 (zeta = 4) the closed form came out 0.15% off with no
    # error, and the quadrature hit a pole of the gamma recurrence
    def never(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("fsorf.cli.run_experiment", never)
    assert cli.main(["--users", "1", "--relays", "2", "--xi", "2",
                     "--gamma-avg-db", "20",
                     "--methods", "closed-form,quadrature"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "xi^2 = 4.0 is within 1e-06 of 4.0" in err


def test_cli_missing_config_file(capsys):
    assert cli.main(["--config", "/nonexistent/sweep.cfg"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_config_file_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bin.cfg"
    cfg.write_bytes(b"users = 1\n\xd0\xcf\x11\xe0 = 2\n")
    assert cli.main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: 'utf-8' codec can't decode"), err
    assert "Traceback" not in err


def test_cli_numeric_failure_exits_two(tmp_path, monkeypatch, capsys):
    def boom(topology, params, *, memo=None):
        raise ArithmeticError("synthetic blow-up")

    monkeypatch.setattr("fsorf.experiments.outage_closed_form", boom)
    out = tmp_path / "fail.csv"
    code = cli.main([
        "--users", "1", "--relays", "1", "--methods", "closed-form",
        "--gamma-avg-db", "10", "--mode", "known-csi", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "failed" in err
    assert "mode=known-csi" in err
    assert read_csv(str(out))[0].error is not None


@pytest.mark.parametrize("args,rows", [
    # X = c sqrt(gamma_th) = 33, where the FSO CDF is 1 to double
    # precision and a Slater sum for it had cancelled to 0.737
    (["--lambda", "10", "--users", "2", "--relays", "2", "--mode",
      "known-csi", "--gamma-avg-db=-6"], 1),
    # X = 316, where that Slater sum did not converge in either mode
    (["--users", "1", "--relays", "1", "--gamma-avg-db=-40"], 2),
], ids=["lambda-10-at-minus-6-db", "minus-40-db"])
def test_cli_outage_is_one_in_both_routes_where_the_fso_cdf_is(
        tmp_path, args, rows):
    out = tmp_path / "one.csv"
    assert cli.main(args + ["--methods", "closed-form,quadrature",
                            "--out", str(out)]) == 0
    points = read_csv(str(out))
    assert len(points) == rows
    for point in points:
        assert point.error is None, point
        assert point.closed_form == point.quadrature == 1.0, point


def test_cli_extreme_db_warns_nothing_and_records_error(tmp_path):
    # numpy floating-point trouble at extreme SNR raises inside each
    # route, also in the Monte-Carlo pool threads, and lands in the
    # error column; nothing is printed as a RuntimeWarning.  Run in a
    # subprocess so no pytest warning filter hides a printed warning.
    src = os.path.dirname(os.path.dirname(fsorf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    for db in ("-3080", "3000", "3080"):
        out = tmp_path / f"extreme{db}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fsorf.cli", "--users", "1",
             "--relays", "1", f"--gamma-avg-db={db}", "--trials", "140000",
             "--workers", "2", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        with open(out, newline="") as handle:
            errors = [row["error"] for row in csv.DictReader(handle)]
        assert any("encountered in" in e for e in errors), errors


def test_monte_carlo_curve_point_fails_alone(tmp_path):
    # one set of draws serves the whole curve; at 3080 dB the mean SNR
    # times a unit draw overflows in both Monte-Carlo cells, and only
    # their rows say so
    def run(db):
        out = tmp_path / f"run{db}.csv"
        cli.main(["--users", "1", "--relays", "1", f"--gamma-avg-db={db}",
                  "--trials", "140000", "--workers", "2", "--out", str(out)])
        return str(out)

    def rows(path):
        with open(path) as handle:
            return handle.read().splitlines()[1:]

    levels = ("-3080", "0", "3080")
    curve = run("-3080:3080:3080")
    single = {db: rows(run(db)) for db in levels}
    # each single-point run has a known-csi and an unknown-csi row
    assert rows(curve) == [single[db][k] for k in (0, 1) for db in levels]

    points = read_csv(curve)
    failed = [(p.mode, p.gamma_avg_db) for p in points
              if "monte-carlo:" in (p.error or "")]
    assert failed == [(GainMode.ADAPTIVE, 3080.0), (GainMode.FIXED, 3080.0)]
    for p in points:
        if p.gamma_avg_db == 3080.0:
            assert "monte-carlo: overflow encountered in multiply" in p.error
            assert p.mc is None
        else:
            assert p.mc is not None


def test_extreme_db_ber_failures_name_their_operation(tmp_path):
    # Python float ** raises a bare OverflowError at -3000 dB, and at
    # 3000 dB the oracle's left cut lies where the FSO CDF overflows; each
    # has to land in the error column as the floating-point trouble it is
    errors = {}
    for db in ("-3000", "3000"):
        out = tmp_path / f"ber{db}.csv"
        assert cli.main([
            "--users", "1", "--relays", "1", f"--gamma-avg-db={db}",
            "--metric", "ber", "--methods", "closed-form,quadrature",
            "--out", str(out)]) == 2
        for point in read_csv(str(out)):
            errors[db, point.mode] = point.error or ""
    for (db, mode), error in errors.items():
        assert "out of range" not in error, (db, mode, error)
        assert "domain error" not in error, (db, mode, error)
    assert "closed-form: overflow encountered in c ** zeta (c=1e+150)" \
        in errors["-3000", GainMode.FIXED]
    assert "quadrature: overflow encountered in exp" \
        in errors["3000", GainMode.FIXED]


@pytest.mark.parametrize("metric", ["outage", "ber"])
def test_fixed_gain_closed_form_reads_its_limit_at_3000_db(tmp_path, metric):
    # outage: the known-csi cells read the anchor zeta / (zeta - 1)
    # (lambda / a0) sqrt(gamma_th / gamma_bar).  The unknown-csi cells
    # match the quadrature up to 1200 dB; from about 1470 dB the
    # fixed-gain kernel's prefactor, and from about 1540 dB its Meijer-G
    # argument, fall below the least normal double, and the cells fail
    # naming the underflow.  Error rate: the closed-form sum 1/2 + sum of
    # terms cancels to 8.3e-16 or 0.0 from 300 dB, below a millionfold its
    # rounding floor, although the true error rate is not 0; every cell
    # fails naming the floor
    outage = metric == "outage"
    zeta = 1.45 ** 2
    for users, relays, db in (("1", "1", "3000"), ("4", "3", "300:300:3000")):
        out = tmp_path / f"{metric}-{users}.csv"
        assert cli.main([
            "--users", users, "--relays", relays, f"--gamma-avg-db={db}",
            "--metric", metric, "--methods",
            "closed-form,quadrature" if outage else "closed-form",
            "--out", str(out)]) == 2
        points = read_csv(str(out))
        assert {p.mode for p in points} == set(GainMode)
        for point in points:
            if not outage:
                assert point.closed_form is None, point
                assert "closed-form: closed-form error rate" \
                    in point.error, point
                assert "times its rounding floor" in point.error, point
            elif point.mode is GainMode.ADAPTIVE:
                assert point.error is None, point
                anchor = zeta / (zeta - 1.0) * math.sqrt(
                    10.0 / 10.0 ** (point.gamma_avg_db / 10.0))
                assert point.closed_form == pytest.approx(
                    anchor, rel=1e-9, abs=0.0), point
            elif point.gamma_avg_db <= 1200.0:
                assert point.error is None, point
                assert point.closed_form == pytest.approx(
                    point.quadrature, rel=1e-8, abs=0.0), point
            else:
                assert point.closed_form is None, point
                assert "closed-form: fixed-gain outage kernel underflows" \
                    in point.error, point


def test_cli_quadrature_reads_its_limits_at_minus_3000_db(tmp_path):
    # both gain modes are always in outage, and the error rate is 1/2
    # to rounding; the fixed-gain oracle's cuts cross there, and its rule
    # forms no product that overflows
    for metric, want in (("outage", 1.0), ("ber", 0.49999999999999994)):
        out = tmp_path / f"{metric}.csv"
        assert cli.main([
            "--users", "1", "--relays", "1", "--gamma-avg-db=-3000",
            "--metric", metric, "--methods", "quadrature",
            "--out", str(out)]) == 0
        points = read_csv(str(out))
        assert {p.mode for p in points} == set(GainMode)
        for point in points:
            assert point.error is None, point
            assert point.quadrature == want, point


@pytest.mark.parametrize("db,code", [("10", 0), ("-3000", 2)])
def test_cli_closed_stdout_keeps_the_sweep_status(db, code):
    # the reader of stdout is gone before the CSV is written: no
    # traceback, the failure lines still on stderr, the sweep's own code.
    # At -3000 dB the closed-form error rate overflows in c ** zeta.
    src = os.path.dirname(os.path.dirname(fsorf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "fsorf.cli", "--users", "1",
             "--relays", "1", "--methods", "closed-form", "--mode",
             "known-csi", "--metric", "ber", f"--gamma-avg-db={db}"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == code, err
    assert "Traceback" not in err, err
    assert ("mode=known-csi" in err) == (code == 2), err


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency: fsorf evaluates its special
    # functions and integrals itself, and importing scipy.special alone
    # would double the start-up time of every sweep
    src = os.path.dirname(os.path.dirname(fsorf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fsorf.cli; print(sorted(m for m "
         "in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout


def test_traced_sweep_sees_every_route_call():
    # the tracer rebinds module attributes; a sweep that called a route
    # through a stored function object would bypass it and count less
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "outage-analytic",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    # one closed-form call per point, one oracle call per fixed-gain point
    assert metrics["metrics.outage_closed_form.calls"]["value"] == 54
    assert metrics[
        "composition.second_relay_cdf_fixed_numeric.calls"]["value"] == 27


def test_traced_closed_form_sees_every_special_call():
    # the reflection's meijer_g calls go through the module name, so the
    # tracer counts every call; meijer_g sums its series from its row
    # plans without the public hyp_pfq, which the sweep never calls
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ber-analytic",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["special.meijer_g.calls"]["value"] == 1407
    assert metrics["special.hyp_pfq.calls"]["value"] == 0


def test_ber_quadrature_column_needs_no_meijer_g(monkeypatch):
    # the BER quadrature route integrates the incomplete-gamma
    # composition, so it checks the Meijer-G closed form from outside
    def boom(*args, **kwargs):
        raise AssertionError("meijer_g reached")

    monkeypatch.setattr("fsorf.metrics.meijer_g", boom)
    monkeypatch.setattr("fsorf.composition.meijer_g", boom)
    spec = spec_from_sources(overrides=_tiny_overrides(
        metric="ber", users="2", relays="2", gamma_avg_db="0:20:40",
        methods="quadrature"))
    points = run_experiment(spec)
    assert len(points) == 6
    for p in points:
        assert p.error is None, p.error
        assert 0.0 < p.quadrature < 0.5


def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
