"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import routecheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _span(name, sid, parent, t0, t1, cpu, thread, tag=None):
    return (name, sid, parent, t0, t1, 0.0, cpu, tag, thread)


# ----------------------------------------------------------- self time

def test_self_time_with_nested_and_cross_thread_spans():
    # A on thread 1 runs B itself, and C and D on two pool threads that
    # overlap each other and B; E nests inside C on C's thread
    records = [
        _span("montecarlo.a", 1, 0, 0.0, 10.0, 5.0, 1),
        _span("channels.b", 2, 1, 1.0, 3.0, 1.5, 1),
        _span("montecarlo.c", 3, 1, 2.0, 6.0, 3.0, 2),
        _span("channels.d", 4, 1, 4.0, 8.0, 2.0, 3),
        _span("channels.e", 5, 3, 3.0, 4.0, 0.5, 2),
    ]
    times = spans.span_times(records)
    wall = {sid: t[0] for sid, t in times.items()}
    cpu = {sid: t[1] for sid, t in times.items()}
    wait = {sid: t[2] for sid, t in times.items()}
    # children cover [1, 8] of A's [0, 10]
    assert wall == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0})
    # only same-thread children take CPU away from their parent
    assert cpu == pytest.approx({1: 3.5, 2: 1.5, 3: 2.5, 4: 2.0, 5: 0.5})
    # A's own thread is covered by C and D on [2, 8]: 4 s left, 5 s CPU
    assert wait[1] == 0.0
    assert wait[3] == pytest.approx(1.0)
    assert wait[4] == pytest.approx(2.0)

    roots = spans.outermost_in_thread(records, "montecarlo.")
    assert sorted(s[1] for s in roots) == [1, 3]


def test_layer_metrics_count_montecarlo_threads_once():
    records = [
        _span("experiments.run_experiment", 1, 0, 0.0, 10.0, 0.5, 1),
        _span("montecarlo.simulate_outage", 2, 1, 0.0, 10.0, 0.5, 1, 1000),
        _span("montecarlo.sample_chain_min_snr", 3, 2, 0.0, 8.0, 4.0, 2),
        _span("channels.sample_rf_snr", 4, 3, 0.0, 5.0, 3.0, 2, 600),
        _span("montecarlo.sample_chain_min_snr", 5, 2, 1.0, 9.0, 4.0, 3),
    ]
    m, _ = spans.layer_metrics(records, sweep_wall=10.0, peak_threads=3)
    # outermost MC spans per thread: 0.5 + 4 + 4 CPU; the waits are
    # thread 1's 1 s not covered by pool work less its 0.5 s CPU, and
    # 4 s on each pool thread
    assert m["montecarlo.cpu_s"] == pytest.approx(8.5)
    assert m["montecarlo.wait_s"] == pytest.approx(0.5 + 4.0 + 4.0)
    assert m["montecarlo.concurrency"] == pytest.approx(0.85)
    assert m["montecarlo.trials_per_s"] == pytest.approx(100.0)
    assert m["channels.draws"] == 600
    assert m["channels.draws_per_s"] == pytest.approx(200.0)
    assert m["experiments.peak_threads"] == 3


def test_pool_spans_belong_to_the_submitting_point():
    tracer = spans.Tracer()
    executor = tracer.executor_class()
    leaf = tracer.wrap("channels.sample_rf_snr", lambda i: i)

    def evaluate(spec, mode, n, m, lam, gamma_avg_db):
        with executor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    point = tracer.wrap(spans.POINT, evaluate, tag=spans._point_label)
    point(None, "fixed-gain", 2, 3, 1.0, 20.0)
    records = tracer.spans()
    top = [s for s in records if s[0] == spans.POINT][0]
    leaves = [s for s in records if s[0] == "channels.sample_rf_snr"]
    assert len(leaves) == 4
    assert all(s[2] == top[1] for s in leaves)
    assert all(s[8] != top[8] for s in leaves)
    costs = spans.point_costs(records, spans.span_times(records))
    assert [c[0] for c in costs] == ["fixed-gain N=2 M=3 lambda=1 20dB"]


def test_install_rebinds_every_namespace_and_recursion():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    special = pytest.importorskip("fsorf.special")
    import fsorf.cli
    import fsorf.metrics

    tracer = spans.Tracer()
    sites = tracer.install()
    try:
        assert fsorf.metrics.meijer_g is special.meijer_g
        assert fsorf.cli.run_experiment is fsorf.experiments.run_experiment
        assert fsorf.cli.run_experiment.__wrapped__ is not None
        # p > q goes through the z -> 1/z reflection, a second call
        params = special.MeijerParams(m=1, n=2, a=(0.0, -1.1, 1.0),
                                      b=(0.0, -2.1))
        special.meijer_g(params, 3.0)
    finally:
        for module, attr, original in sites:
            setattr(module, attr, original)
    calls = [s for s in tracer.spans() if s[0] == "special.meijer_g"]
    assert [s[7] for s in calls] == [(2, 1, 2, 3), (1, 2, 3, 2)]
    assert calls[0][2] == calls[1][1]
    assert not hasattr(fsorf.metrics.meijer_g, "__wrapped__")


# ----------------------------------------------------------- route check

def _row(**cells):
    row = {"mode": "known-csi", "n_users": "2", "m_relays": "2",
           "lambda": "1.0", "gamma_avg_db": "20.0", "closed_form": "",
           "quadrature": "", "mc_mean": "", "mc_ci_low": "",
           "mc_ci_high": "", "error": ""}
    row.update(cells)
    return row


def test_failed_share_on_planted_rows():
    good = _row(closed_form="0.25", quadrature="0.2500000000001")
    errored = _row(gamma_avg_db="25.0", closed_form="0.1",
                   error="quadrature: ConvergenceError")
    disagreeing = _row(gamma_avg_db="30.0", closed_form="0.05",
                       quadrature="0.0500001")
    empty = _row(gamma_avg_db="35.0", closed_form="0.01")
    methods = ("closed-form", "quadrature")
    out = routecheck.check_sweep([good, errored, disagreeing, empty], 5,
                                 "outage", methods, {})
    assert out["attempted"] == 5
    assert out["failed"] == 4          # three bad rows and one missing
    assert out["failed"] / out["attempted"] == pytest.approx(0.8)
    reasons = dict(out["failures"])
    assert "error column" in reasons["known-csi N=2 M=2 lambda=1 25dB"]
    assert "relative gap" in reasons["known-csi N=2 M=2 lambda=1 30dB"]
    assert "empty quadrature" in reasons["known-csi N=2 M=2 lambda=1 35dB"]


def test_ber_pair_tolerance_widens_to_truncation():
    row = _row(closed_form="0.01", quadrature="0.010005")
    methods = ("closed-form", "quadrature")
    assert routecheck.check_row(row, "ber", methods)[0]
    assert routecheck.check_row(row, "ber", methods,
                                truncation=1e-5)[0] is None


def test_monte_carlo_cell_against_reference():
    # 95% half-width 1.96e-3 is sigma 1e-3
    row = _row(mc_mean="0.5", mc_ci_low=repr(0.5 - 1.959963984540054e-3),
               mc_ci_high=repr(0.5 + 1.959963984540054e-3))
    methods = ("monte-carlo",)
    reason, z = routecheck.check_row(row, "outage", methods, reference=0.497)
    assert reason is None and z == pytest.approx(3.0)
    reason, z = routecheck.check_row(row, "outage", methods, reference=0.49)
    assert "sigma" in reason and z == pytest.approx(10.0)
    assert routecheck.check_row(row, "outage", methods)[0]


# ----------------------------------------------------------- percentiles

def test_rule_of_ten_percentile_on_small_samples():
    assert spans.rule_of_ten([1.0] * 10) is None
    eleven = [float(v) for v in range(11, 0, -1)]
    assert spans.rule_of_ten(eleven) == (9, 1.0)
    twenty = [float(v) for v in range(20)]
    assert spans.rule_of_ten(twenty) == (50, 9.0)
    hundred = [float(v) for v in range(100)]
    assert spans.rule_of_ten(hundred) == (90, 89.0)
    # exactly ten samples lie beyond the reported value
    assert sum(v > 89.0 for v in hundred) == 10


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert spans.percentile(values, 50) == 3.0
    assert spans.percentile(values, 80) == 4.0
    assert spans.percentile(values, 100) == 5.0
    assert spans.percentile([], 50) == 0.0
    assert math.isclose(spans.percentile([0.1], 1), 0.1)


def test_rescaled_times_follow_the_reference():
    # a sweep that ran twice as long while the reference kernel also ran
    # twice as long reads the same after rescaling
    slow_host = run.rescaled([2.0, 4.0], [run.REF_S, 2 * run.REF_S])
    assert slow_host == pytest.approx([2.0, 2.0])
