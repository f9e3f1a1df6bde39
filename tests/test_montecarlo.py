"""Simulation estimators: reproducibility, calibration, cross-checks.

Every stochastic assertion runs under a fixed seed, so outcomes are
deterministic; 3-sigma gates were chosen against values measured at
much higher trial counts.
"""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.stats as st

try:
    import resource
except ImportError:         # not on every platform
    resource = None

from fsorf import montecarlo
from fsorf.channels import LinkParams, db_to_linear, sample_rf_snr
from fsorf.composition import (
    GainMode,
    Topology,
    end_to_end_outage_semianalytic,
)
from fsorf.metrics import ber_closed_form, outage_closed_form
from fsorf.montecarlo import (
    _BATCH,
    MetricEstimate,
    SimConfig,
    _batches,
    _curve,
    _dbpsk_error,
    _normal_estimate,
    _stream,
    _sums,
    _wilson_estimate,
    sample_chain_min_snr,
    simulate_ber_snr_level,
    simulate_ber_snr_level_curves,
    simulate_outage,
    simulate_outage_curves,
    wilson_interval,
)

from reference_models import (
    differential_detect,
    differential_encode,
    sample_chain_stage_snrs,
    simulate_ber_cascade_xor,
    simulate_ber_signal_level,
)

XI = 1.45


def make_params(gamma_db, gamma_th=10.0):
    g = db_to_linear(gamma_db)
    return LinkParams(gamma_bar_rf=g, gamma_bar_fso=g, lam=1.0, a0=1.0,
                      xi=XI, gamma_th=gamma_th)


def topo(n, m, mode):
    return Topology(n_users=n, m_relays=m, first_segment_mode=mode)


def sigma_of(estimate):
    return (estimate.ci_high - estimate.ci_low) / (2.0 * 1.959963984540054)


# ------------------------------------------------------- reproducibility

def test_outage_identical_across_worker_counts():
    t = topo(2, 2, GainMode.ADAPTIVE)
    p = make_params(20.0)
    runs = [simulate_outage(t, p, SimConfig(trials_or_bits=300000, seed=42,
                                            workers=w))
            for w in (1, 2, 5)]
    assert runs[0] == runs[1] == runs[2]


def test_ber_identical_across_worker_counts():
    t = topo(2, 2, GainMode.FIXED)
    p = make_params(15.0)
    snr = [simulate_ber_snr_level(t, p, SimConfig(trials_or_bits=200000,
                                                  seed=9, workers=w))
           for w in (1, 3)]
    assert snr[0] == snr[1]
    xor = [simulate_ber_cascade_xor(t, p, SimConfig(trials_or_bits=200000,
                                                    seed=9, workers=w))
           for w in (1, 3)]
    assert xor[0] == xor[1]
    sig = [simulate_ber_signal_level(
        t, p, SimConfig(trials_or_bits=100000, seed=9, workers=w))
        for w in (1, 3)]
    assert sig[0] == sig[1]


def test_estimates_pinned_to_random_stream():
    # the estimates of every estimator, recorded at random stream v2 (unit
    # draws by standard_exponential, one gamma-bar-free chain minimum per
    # batch); trial counts leave a partial last batch.
    # A change here is a change of the random stream or of the reduction,
    # and has to be a recorded decision.  Event and bit-error counts are
    # exact; the snr-level mean and the interval bounds go through
    # exp/log/sqrt, whose last bit may differ between CPUs and numpy
    # builds, so they match to a relative 1e-12.
    adaptive = topo(2, 2, GainMode.ADAPTIVE)
    fixed = topo(2, 3, GainMode.FIXED)
    counts = {"outage-min": 47606, "outage-exact": 33092,
              "cascade-xor": 14586, "signal-level": 7627}
    pinned = {
        "outage-min": (0.6800857142857143, 0.6766205176562167,
                       0.6835311465182529, 70000),
        "outage-exact": (0.47274285714285713, 0.46904597813915677,
                         0.4764427276164445, 70000),
        "snr-level": (0.11316380636268093, 0.11203139843035385,
                      0.11429621429500801, 70000),
        "cascade-xor": (0.20837142857142857, 0.2053787716742602,
                        0.21139609168781962, 70000),
        "signal-level": (0.12711666666666666, 0.1072645841628713,
                         0.14696874917046202, 60000),
    }
    runs = []
    for w in (1, 2):
        cfg = SimConfig(trials_or_bits=70000, seed=5, workers=w)
        got = {
            "outage-min": simulate_outage(adaptive, make_params(15.0), cfg,
                                          first_segment="min"),
            "outage-exact": simulate_outage(fixed, make_params(15.0), cfg,
                                            first_segment="exact"),
            "snr-level": simulate_ber_snr_level(fixed, make_params(10.0),
                                                cfg),
            "cascade-xor": simulate_ber_cascade_xor(
                adaptive, make_params(10.0), cfg),
            "signal-level": simulate_ber_signal_level(
                fixed, make_params(10.0),
                SimConfig(trials_or_bits=60000, seed=5, workers=w)),
        }
        for name, est in got.items():
            mean, low, high, n = pinned[name]
            assert est.n == n, (name, w)
            if name in counts:
                assert est.mean == counts[name] / n, (name, w)
            assert (est.mean, est.ci_low, est.ci_high) \
                == pytest.approx((mean, low, high), rel=1e-12), (name, w)
        runs.append(got)
    assert runs[0] == runs[1]


def _level(rf_db, fso_db, th_db, c_gain):
    return LinkParams(gamma_bar_rf=db_to_linear(rf_db),
                      gamma_bar_fso=db_to_linear(fso_db), lam=1.0, a0=1.0,
                      xi=XI, gamma_th=db_to_linear(th_db), c_gain=c_gain)


# levels of one curve: unequal RF and FSO means, own threshold and gain
CURVE_LEVELS = (_level(5.0, 12.0, 8.0, 1.0), _level(15.0, 9.0, 10.0, 3.7),
                _level(25.0, 30.0, 20.0, 0.5))
# name -> group estimator, point estimator, chain, first segment, and the
# point estimates at CURVE_LEVELS recorded at random stream v2: outage
# counts, and (mean, ci_low, ci_high) of the BER, at 70,000 trials and
# seed 5
CURVE_CASES = {
    "outage-min": (
        simulate_outage_curves, simulate_outage,
        topo(2, 3, GainMode.ADAPTIVE), "min", (68596, 62419, 39562)),
    "outage-exact-adaptive": (
        simulate_outage_curves, simulate_outage,
        topo(2, 3, GainMode.ADAPTIVE), "exact", (69458, 64550, 42963)),
    "outage-exact-fixed": (
        simulate_outage_curves, simulate_outage,
        topo(3, 2, GainMode.FIXED), "exact", (64475, 40765, 10424)),
    "snr-level": (
        simulate_ber_snr_level_curves, simulate_ber_snr_level,
        topo(2, 3, GainMode.FIXED), "exact", (
            (0.18692866510258413, 0.18575610814035, 0.18810122206481825),
            (0.09899438227615395, 0.09782173484797131, 0.1001670297043366),
            (0.0013676496442052905, 0.0012097228083271677,
             0.0015255764800834134))),
}


def _reference_estimate(name, t, p, cfg, first):
    # the point estimate rebuilt from the reference per-stage sampler,
    # with the DBPSK kernel written out
    def low(rng, size):
        return sample_chain_stage_snrs(t, p, rng, size, first).min(axis=0)

    n = cfg.trials_or_bits
    if name.startswith("outage"):
        ((hits, _),) = _batches(cfg, n, _BATCH, lambda rng, size: [
            _sums(low(rng, size) < p.gamma_th, None)])
        return _wilson_estimate(hits, n)
    ((s1, s2),) = _batches(cfg, n, _BATCH, lambda rng, size: [
        _sums(0.5 * np.exp(-low(rng, size)), None)])
    return _normal_estimate(s1, s2, n)


@pytest.mark.parametrize("name", sorted(CURVE_CASES))
def test_curve_scores_each_level_as_its_own_point(name):
    # 70,000 trials leave a partial second batch
    group_fn, point_fn, t, first, recorded = CURVE_CASES[name]
    for w in (1, 2):
        cfg = SimConfig(trials_or_bits=70000, seed=5, workers=w)
        (curve,) = group_fn([(t, first)], CURVE_LEVELS, cfg)
        assert curve == [point_fn(t, p, cfg, first_segment=first)
                         for p in CURVE_LEVELS], (name, w)
        assert curve == [_reference_estimate(name, t, p, cfg, first)
                         for p in CURVE_LEVELS], (name, w)
        for est, want in zip(curve, recorded):
            assert est.n == 70000
            if name.startswith("outage"):
                assert est.mean == want / est.n, (name, w)
            else:
                assert (est.mean, est.ci_low, est.ci_high) \
                    == pytest.approx(want, rel=1e-12), (name, w)


@pytest.mark.parametrize("first", ["exact", "min"])
@pytest.mark.parametrize("mode", list(GainMode))
def test_curve_minimum_is_the_sampled_chain_minimum(mode, first):
    # the chain minimum a curve scores at each level, built from the
    # gamma-bar-free minimum of its RF/FSO ratio, is bit for bit the
    # column minimum of the stage SNRs drawn at that level alone.  The
    # levels hold three ratios, and the last level shares the first's
    # (doubling both means keeps their ratio exact).
    t = topo(2, 3, mode)
    twin = dataclasses.replace(
        CURVE_LEVELS[0], gamma_bar_rf=2.0 * CURVE_LEVELS[0].gamma_bar_rf,
        gamma_bar_fso=2.0 * CURVE_LEVELS[0].gamma_bar_fso)
    levels = CURVE_LEVELS + (twin,)
    seen = []

    def score(low, p, out, scratch):
        seen.append((p, low.copy()))
        return low

    _curve([(t, first)], levels, SimConfig(trials_or_bits=70000, seed=5),
           score, lambda s1, s2: None)
    sizes = (_BATCH, 70000 - _BATCH)
    assert len(seen) == len(sizes) * len(levels)
    for k, (p, low) in enumerate(seen):
        batch, level = divmod(k, len(levels))
        assert p is levels[level]
        size = sizes[batch]
        stages = sample_chain_stage_snrs(t, p, _stream(5, batch), size, first)
        assert np.array_equal(low, stages.min(axis=0)), (batch, level)
        assert np.array_equal(low, sample_chain_min_snr(
            t, p, _stream(5, batch), size, first)), (batch, level)


@pytest.mark.parametrize("first", ["exact", "min"])
@pytest.mark.parametrize("mode", list(GainMode))
def test_chain_min_snr_is_the_reference_column_minimum(mode, first):
    # one batch of the curve's body on a workspace of the caller's size,
    # bit for bit the reference sampler's column minimum from the same
    # stream; at an RF/FSO ratio other than 1 and a fixed gain other than 1
    t = topo(2, 3, mode)
    p = CURVE_LEVELS[1]
    for size in (1, 1000, _BATCH + 3):
        low = sample_chain_min_snr(t, p, _stream(7, size), size, first)
        stages = sample_chain_stage_snrs(t, p, _stream(7, size), size, first)
        assert low.shape == (size,)
        assert np.array_equal(low, stages.min(axis=0)), size


def test_dbpsk_kernel_is_half_exp_bit_for_bit():
    # the kernel skips exp where it underflows; around both bounds and
    # across the SNR decades of a sweep it returns 0.5 * exp(-g) exactly,
    # also run in place on its input with its flags in a float row
    rng = _stream(11, 0)
    edges = np.array([0.0, 699.9, 700.0, np.nextafter(700.0, 800.0), 708.4,
                      745.13, 745.14, 746.0, 1e308])
    for scale in (1e-3, 1.0, 1e2, 1e3, 1e4, 1e300):
        g = np.concatenate([edges, scale * rng.standard_exponential(5000)])
        assert np.array_equal(_dbpsk_error(g), 0.5 * np.exp(-g)), scale
        row = g.copy()
        assert _dbpsk_error(row, row, np.empty_like(row)) is row
        assert np.array_equal(row, 0.5 * np.exp(-g)), scale


def test_curve_levels_must_share_the_fso_law():
    cfg = SimConfig(trials_or_bits=10000, seed=5)
    t = topo(2, 2, GainMode.ADAPTIVE)
    for field, value in (("lam", 1.2), ("a0", 0.8), ("xi", 1.3)):
        levels = [CURVE_LEVELS[0],
                  dataclasses.replace(CURVE_LEVELS[1], **{field: value})]
        for group_fn in (simulate_outage_curves,
                         simulate_ber_snr_level_curves):
            with pytest.raises(ValueError, match="lam, a0 and xi"):
                group_fn([(t, "exact")], levels, cfg)


def test_failed_shared_draws_fail_every_level():
    # lam = 1e-308 overflows the turbulence draw E / lam, which
    # all levels share; every level gets the first batch's exception,
    # and a one-level estimator raises its level's
    levels = [dataclasses.replace(p, lam=1e-308) for p in CURVE_LEVELS]
    t = topo(1, 1, GainMode.ADAPTIVE)
    for w in (1, 2):
        cfg = SimConfig(trials_or_bits=70000, seed=5, workers=w)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            (curve,) = simulate_outage_curves([(t, "exact")], levels, cfg)
        assert isinstance(curve[0], FloatingPointError), curve
        assert "overflow encountered in divide" in str(curve[0])
        assert all(level is curve[0] for level in curve)
        for point_fn in (simulate_outage, simulate_ber_snr_level,
                         lambda t, p, cfg: sample_chain_min_snr(
                             t, p, _stream(cfg.seed, 0), 1000)):
            with np.errstate(over="raise"), pytest.raises(
                    FloatingPointError, match="overflow encountered in divide"):
                point_fn(t, levels[0], cfg)


def test_failed_fold_fails_its_ratio_alone():
    # at rho = 1e308, rho R_j overflows on the first hop of every batch;
    # the levels of the other ratios keep the estimates of their own runs
    huge = dataclasses.replace(CURVE_LEVELS[1], gamma_bar_rf=1e300,
                               gamma_bar_fso=1e-8)
    levels = (CURVE_LEVELS[0], huge, CURVE_LEVELS[2])
    t = topo(2, 3, GainMode.ADAPTIVE)
    for first in ("exact", "min"):
        for w in (1, 2):
            cfg = SimConfig(trials_or_bits=140000, seed=5, workers=w)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                (curve,) = simulate_outage_curves([(t, first)], levels, cfg)
                alone = [simulate_outage_curves([(t, first)], [p], cfg)[0][0]
                         for p in levels]
            assert isinstance(curve[1], FloatingPointError), curve
            assert str(curve[1]) == str(alone[1]) \
                == "overflow encountered in multiply"
            assert (curve[0], curve[2]) == (alone[0], alone[2]), (first, w)
        for point_fn in (simulate_outage, simulate_ber_snr_level,
                         lambda t, p, cfg, first: sample_chain_min_snr(
                             t, p, _stream(cfg.seed, 0), 1000, first)):
            with np.errstate(over="raise"), pytest.raises(
                    FloatingPointError,
                    match="overflow encountered in multiply"):
                point_fn(t, huge, cfg, first)


# the chains of one group: both gain modes and first segments at M = 1..3,
# deepest first; and levels of two RF/FSO ratios, the third level doubling
# both means of the first
GROUP_CHAINS = [(topo(2, m, mode), first) for m in (3, 1, 2)
                for mode in GainMode for first in ("exact", "min")]
TWO_RATIO_LEVELS = CURVE_LEVELS[:2] + (dataclasses.replace(
    CURVE_LEVELS[0], gamma_bar_rf=2.0 * CURVE_LEVELS[0].gamma_bar_rf,
    gamma_bar_fso=2.0 * CURVE_LEVELS[0].gamma_bar_fso),)


@pytest.mark.parametrize("group_fn, point_fn", [
    (simulate_outage_curves, simulate_outage),
    (simulate_ber_snr_level_curves, simulate_ber_snr_level)])
def test_group_scores_each_chain_as_its_own_curve(group_fn, point_fn):
    # each chain's curve is its one-chain curve, and each cell of it the
    # point estimate at that level alone
    for w in (1, 2):
        cfg = SimConfig(trials_or_bits=70000, seed=5, workers=w)
        group = group_fn(GROUP_CHAINS, TWO_RATIO_LEVELS, cfg)
        assert len(group) == len(GROUP_CHAINS)
        for (t, first), curve in zip(GROUP_CHAINS, group):
            assert all(isinstance(est, MetricEstimate) for est in curve)
            assert [curve] == group_fn([(t, first)], TWO_RATIO_LEVELS,
                                       cfg), (t, first, w)
            assert curve == [point_fn(t, p, cfg, first)
                             for p in TWO_RATIO_LEVELS], (t, first, w)


def test_group_draws_its_deepest_chain_once(monkeypatch):
    # a batch draws U (N arrays), F (2) and 3 arrays per hop of the
    # deepest chain: N + 2 + 3 (M_max - 1) unit arrays, not one set per
    # chain, and the estimates do not depend on who counts them
    cfg = SimConfig(trials_or_bits=70000, seed=5, workers=2)
    want = simulate_outage_curves(GROUP_CHAINS, TWO_RATIO_LEVELS, cfg)
    drawn = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def standard_exponential(self, size=None, out=None):
            drawn.append(np.size(out) if size is None else np.prod(size))
            return self.rng.standard_exponential(size=size, out=out)

    monkeypatch.setattr(montecarlo, "_stream",
                        lambda seed, index: Counting(_stream(seed, index)))
    assert simulate_outage_curves(GROUP_CHAINS, TWO_RATIO_LEVELS, cfg) \
        == want
    # two batches of one users' call, two F calls and 3 calls per hop
    assert len(drawn) == 2 * (1 + 2 + 3 * 2)
    assert sum(drawn) == 70000 * (2 + 2 + 3 * 2)


def test_group_shares_cascades_and_unit_minima(monkeypatch):
    # a fig3-shaped group at levels of one ratio: each batch forms the
    # fixed-gain cascade once per level, not once per (relay count,
    # level), and the unit minimum min(rho U, F) of the "min" chains
    # once per depth; the estimates do not depend on who counts
    chains = [(topo(2, m, mode),
               "min" if mode is GainMode.ADAPTIVE else "exact")
              for mode in GainMode for m in (1, 2, 3)]
    levels = [make_params(db) for db in range(0, 41, 5)]
    cfg = SimConfig(trials_or_bits=70000, seed=5, workers=2)
    want = simulate_ber_snr_level_curves(chains, levels, cfg)
    calls = []

    def counting(name, real):
        def spy(*args, **kwargs):
            calls.append(name)      # list.append is atomic
            return real(*args, **kwargs)
        return spy

    for name in ("af_fixed_snr", "af_adaptive_snr", "_unit_min"):
        monkeypatch.setattr(montecarlo, name,
                            counting(name, getattr(montecarlo, name)))
    assert simulate_ber_snr_level_curves(chains, levels, cfg) == want
    # two batches: 9 levels of cascades, and depths 0, 1 and 2
    assert calls.count("af_fixed_snr") == 2 * len(levels)
    assert calls.count("_unit_min") == 2 * 3
    assert "af_adaptive_snr" not in calls


def test_group_failures_stay_with_the_chains_that_reach_them(monkeypatch):
    # the RF draw of the last hop raises in every batch: every level of the
    # M = 3 chains gets its exception, and the shallower chains keep their
    # own curves; the middle level's scaling overflows, and it fails alone
    # in every chain that scores it
    huge = dataclasses.replace(CURVE_LEVELS[1], gamma_bar_rf=1e308,
                               gamma_bar_fso=1e308)
    levels = (CURVE_LEVELS[0], huge, CURVE_LEVELS[2])
    real = montecarlo.sample_rf_snr
    local = threading.local()

    def spy(gamma_bar, rng, size=None, *, out=None):
        if isinstance(size, tuple):     # the users' draw opens each batch
            local.hops = 0
        else:
            local.hops += 1
            if local.hops == 2:
                raise ArithmeticError("synthetic last-hop draw failure")
        return real(gamma_bar, rng, size, out=out)

    for w in (1, 2):
        cfg = SimConfig(trials_or_bits=70000, seed=5, workers=w)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            alone = [simulate_outage_curves([chain], levels, cfg)[0]
                     for chain in GROUP_CHAINS]
            with monkeypatch.context() as patch:
                patch.setattr(montecarlo, "sample_rf_snr", spy)
                group = simulate_outage_curves(GROUP_CHAINS, levels, cfg)
        for (t, first), curve, own in zip(GROUP_CHAINS, group, alone):
            tag = (t.m_relays, t.first_segment_mode, first, w)
            if t.m_relays == 3:
                assert all(isinstance(cell, ArithmeticError) and str(cell)
                           == "synthetic last-hop draw failure"
                           for cell in curve), tag
                continue
            assert (curve[0], curve[2]) == (own[0], own[2]), tag
            assert all(isinstance(est, MetricEstimate)
                       for est in (curve[0], curve[2])), tag
            assert isinstance(curve[1], FloatingPointError), tag
            assert str(curve[1]) == str(own[1]) \
                == "overflow encountered in multiply", tag


def test_group_chains_must_share_the_user_count():
    cfg = SimConfig(trials_or_bits=10000, seed=5)
    for chains in ([], [(topo(2, 1, GainMode.FIXED), "exact"),
                        (topo(3, 1, GainMode.FIXED), "exact")]):
        with pytest.raises(ValueError, match="equal n_users"):
            simulate_outage_curves(chains, CURVE_LEVELS, cfg)


def test_curve_workspace_keeps_nothing_between_curves():
    # a curve's estimates are the same alone, after a curve of another
    # chain shape on a pool of the same size, and after a curve whose
    # batches raised mid-draw
    t = topo(2, 3, GainMode.FIXED)
    cfg = SimConfig(trials_or_bits=140000, seed=5, workers=2)
    chains = [(t, "exact")]
    alone = simulate_ber_snr_level_curves(chains, CURVE_LEVELS, cfg)
    assert all(isinstance(est, MetricEstimate) for est in alone[0])
    simulate_outage_curves([(topo(4, 1, GainMode.ADAPTIVE), "min")],
                           CURVE_LEVELS, cfg)
    assert simulate_ber_snr_level_curves(chains, CURVE_LEVELS, cfg) == alone
    failing = [dataclasses.replace(p, lam=1e-308) for p in CURVE_LEVELS]
    with np.errstate(over="raise"):
        (broken,) = simulate_ber_snr_level_curves(chains, failing, cfg)
    assert all("overflow encountered in divide" in str(exc)
               for exc in broken), broken
    assert simulate_ber_snr_level_curves(chains, CURVE_LEVELS, cfg) == alone


def test_curve_workspace_dies_with_its_pool(monkeypatch):
    # every chain minimum a curve scores is a row of its thread's
    # workspace: one per pool thread, and none left once the curve returns
    kernel = montecarlo._dbpsk_error
    refs = {}

    def spy(snr, out=None, scratch=None):
        refs[id(snr.base)] = weakref.ref(snr.base)
        return kernel(snr, out, scratch)

    monkeypatch.setattr(montecarlo, "_dbpsk_error", spy)
    simulate_ber_snr_level_curves(
        [(topo(2, 2, GainMode.FIXED), "exact")], CURVE_LEVELS,
        SimConfig(trials_or_bits=4 * _BATCH, seed=5, workers=2))
    assert 1 <= len(refs) <= 2
    assert all(ref() is None for ref in refs.values())


def test_workspaces_stay_per_thread_under_thread_switching():
    # eight threads on fewer cores, switched every microsecond, score
    # each batch in its own thread's workspace
    t = topo(3, 3, GainMode.ADAPTIVE)
    n = 8 * _BATCH
    (want,) = simulate_ber_snr_level_curves(
        [(t, "exact")], CURVE_LEVELS,
        SimConfig(trials_or_bits=n, seed=5, workers=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (got,) = simulate_ber_snr_level_curves(
            [(t, "exact")], CURVE_LEVELS,
            SimConfig(trials_or_bits=n, seed=5, workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_pool_starts_no_more_threads_than_batches(monkeypatch):
    # a curve makes its workspaces up front, one per thread it expects
    threads = set()

    def spy(seed, index):
        threads.add(threading.get_ident())
        return _stream(seed, index)

    monkeypatch.setattr(montecarlo, "_stream", spy)
    # 70,000 trials are two batches
    simulate_outage(topo(2, 2, GainMode.ADAPTIVE), make_params(15.0),
                    SimConfig(trials_or_bits=70000, seed=5, workers=64))
    assert 1 <= len(threads) <= 2


def test_curve_survives_more_threads_than_workspaces(monkeypatch):
    # a pool wider than the curve expects: both batches of a workers=1
    # curve run at once on two threads, and the second makes its own
    # workspace
    wide = montecarlo.ThreadPoolExecutor
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor",
                        lambda max_workers: wide(max_workers=2))
    both = threading.Barrier(2, timeout=30)

    def spy(seed, index):
        both.wait()
        return _stream(seed, index)

    t = topo(2, 3, GainMode.FIXED)
    cfg = SimConfig(trials_or_bits=70000, seed=5, workers=1)
    want = simulate_ber_snr_level_curves([(t, "exact")], CURVE_LEVELS, cfg)
    monkeypatch.setattr(montecarlo, "_stream", spy)
    assert simulate_ber_snr_level_curves([(t, "exact")], CURVE_LEVELS,
                                         cfg) == want


# one 32-batch BER curve at 9 levels and workers=1, after a warm-up run;
# prints the minor page faults of the curve
_FAULT_PROBE = """
import resource
from fsorf.channels import LinkParams
from fsorf.composition import GainMode, Topology
from fsorf.montecarlo import _BATCH, SimConfig, simulate_ber_snr_level_curves

chains = [(Topology(n_users=2, m_relays=2, first_segment_mode=GainMode.FIXED),
           "exact")]
levels = [LinkParams(gamma_bar_rf=10.0 ** (db / 10), gamma_bar_fso=10.0 ** (
    db / 10), lam=1.0, a0=1.0, xi=1.45, gamma_th=10.0)
    for db in range(0, 41, 5)]
simulate_ber_snr_level_curves(chains, levels, SimConfig(trials_or_bits=1000))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
simulate_ber_snr_level_curves(
    chains, levels, SimConfig(trials_or_bits=32 * _BATCH, seed=3, workers=1))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(resource is None,
                    reason="resource.getrusage, which counts page faults, "
                           "is Unix only")
def test_curve_batches_fault_in_only_their_workspace():
    # batch arrays allocated and freed batch by batch are faulted in again
    # every batch: some 30,000 faults over this curve.  The one workspace
    # is faulted in once; it has 6 rows here: U, F, H_1 at the one ratio,
    # and the rows A, B and C.  A fresh interpreter, as the allocator's
    # state after other tests may hide the refaults
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    bound = 6 * _BATCH * 8 // resource.getpagesize() + 256
    assert faults <= bound, (faults, bound)


def test_seed_changes_estimate():
    t = topo(2, 2, GainMode.ADAPTIVE)
    p = make_params(20.0)
    a = simulate_outage(t, p, SimConfig(trials_or_bits=100000, seed=1))
    b = simulate_outage(t, p, SimConfig(trials_or_bits=100000, seed=2))
    c = simulate_outage(t, p, SimConfig(trials_or_bits=100000, seed=1))
    assert a == c
    assert a != b


def test_trial_count_not_multiple_of_batch():
    t = topo(1, 1, GainMode.ADAPTIVE)
    p = make_params(10.0)
    est = simulate_outage(t, p, SimConfig(trials_or_bits=100000, seed=3))
    assert est.n == 100000
    assert 0.0 <= est.mean <= 1.0


def test_moments_reduce_every_draw_one_way():
    # batches of 1000 over 2500 units: two full batches and a partial one
    draws = {
        "bool": lambda rng, size: rng.random(size) < 0.3,
        "int64": lambda rng, size: rng.integers(0, 250, size),
        "float": lambda rng, size: 0.5 * np.exp(-rng.exponential(size=size)),
    }
    for name, draw in draws.items():
        batches = [draw(_stream(7, i), size)
                   for i, size in enumerate((1000, 1000, 500))]
        want1 = want2 = 0
        for vals in batches:
            want1 += vals.sum().item()
            want2 += (vals * vals).sum().item()
        got = []
        for w in (1, 3):
            cfg = SimConfig(trials_or_bits=2500, seed=7, workers=w)
            (total,) = _batches(cfg, 2500, 1000, lambda rng, size: [
                _sums(draw(rng, size), None)])
            got.append(total)
        assert got[0] == got[1] == (want1, want2), name
        if name != "float":
            # exact integer sums, equal to the unbatched ones
            assert all(type(x) is int for x in got[0]), name
            whole = np.concatenate(batches).astype(object)
            assert got[0] == (sum(whole), sum(whole * whole)), name


# ------------------------------------------------------------ validation

def test_sim_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        SimConfig(trials_or_bits=999)
    with pytest.raises(ValueError):
        SimConfig(seed=-1)
    with pytest.raises(ValueError):
        SimConfig(seed=2 ** 64)
    with pytest.raises(ValueError):
        SimConfig(workers=0)


def test_metric_estimate_invariants():
    with pytest.raises(ValueError):
        MetricEstimate(mean=0.5, ci_low=0.6, ci_high=0.7, n=10)


def test_first_segment_knob_validated():
    t = topo(1, 1, GainMode.ADAPTIVE)
    p = make_params(10.0)
    with pytest.raises(ValueError):
        simulate_outage(t, p, SimConfig(trials_or_bits=10000),
                        first_segment="approximate")


# --------------------------------------------------------- Wilson / CI

def test_wilson_interval_edges():
    low, high = wilson_interval(0, 1000)
    assert low == 0.0
    assert 0.0 < high < 0.01
    low, high = wilson_interval(1000, 1000)
    assert 0.99 < low < 1.0
    assert high == 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_wilson_interval_shrinks_with_n():
    widths = [wilson_interval(n // 4, n)[1] - wilson_interval(n // 4, n)[0]
              for n in (100, 10000, 1000000)]
    assert widths[0] > widths[1] > widths[2]
    # O(1/sqrt(n)) scaling between the two largest sizes
    assert widths[1] / widths[2] == pytest.approx(10.0, rel=0.05)


def test_ci_calibration_on_known_truth():
    # single Rayleigh branch outage, exact truth 1 - exp(-gth/gbar);
    # 95% coverage over 100 deterministic replicates
    gbar, gth, n = 10.0, 5.0, 4000
    truth = -math.expm1(-gth / gbar)
    covered = 0
    for s in range(100):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([s, 0], dtype=np.uint64)))
        draws = sample_rf_snr(gbar, rng, size=n)
        low, high = wilson_interval(int(np.count_nonzero(draws < gth)), n)
        covered += low <= truth <= high
    assert 93 <= covered <= 97


# ------------------------------------------------------- outage checks

def test_outage_mc_min_matches_closed_adaptive():
    t = topo(2, 2, GainMode.ADAPTIVE)
    p = make_params(20.0)
    est = simulate_outage(t, p, SimConfig(trials_or_bits=10 ** 6, seed=7),
                          first_segment="min")
    closed = outage_closed_form(t, p)
    assert abs(est.mean - closed) <= 3.0 * sigma_of(est)


def test_outage_mc_exact_matches_closed_fixed():
    t = topo(2, 2, GainMode.FIXED)
    p = make_params(20.0)
    est = simulate_outage(t, p, SimConfig(trials_or_bits=10 ** 6, seed=7))
    closed = outage_closed_form(t, p)
    assert abs(est.mean - closed) <= 3.0 * sigma_of(est)


def test_exact_first_segment_bias_is_positive():
    # the exact relay cascade SNR sits below min(g1, g2), so exact
    # combining sees strictly more outages
    t = topo(2, 2, GainMode.ADAPTIVE)
    p = make_params(20.0)
    cfg = SimConfig(trials_or_bits=10 ** 6, seed=7)
    exact = simulate_outage(t, p, cfg, first_segment="exact")
    approx = simulate_outage(t, p, cfg, first_segment="min")
    assert exact.mean - approx.mean > 5.0 * sigma_of(exact)


def test_outage_limits():
    # the FSO CDF decays like sqrt(gamma_th / gamma_bar), so pushing
    # outage below 1% takes a very strong average SNR
    t = topo(2, 2, GainMode.ADAPTIVE)
    tiny = simulate_outage(t, make_params(10.0, gamma_th=1e-4),
                           SimConfig(trials_or_bits=100000, seed=5))
    assert tiny.mean < 0.02
    strong = simulate_outage(t, make_params(60.0),
                             SimConfig(trials_or_bits=100000, seed=5))
    assert strong.mean < 0.01


def test_chain_min_snr_distribution_ks():
    # empirical chain-minimum law against the semianalytic outage curve
    t = topo(2, 2, GainMode.ADAPTIVE)
    p = make_params(15.0)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([2026, 0], dtype=np.uint64)))
    samples = sample_chain_min_snr(t, p, rng, 8000, first_segment="min")

    result = st.kstest(
        samples, lambda values: end_to_end_outage_semianalytic(t, p, values))
    assert result.pvalue > 0.01


# ---------------------------------------------------------- BER checks

def test_ber_minsnr_matches_closed_adaptive():
    t = topo(2, 2, GainMode.ADAPTIVE)
    p = make_params(10.0)
    est = simulate_ber_snr_level(t, p, SimConfig(trials_or_bits=10 ** 6,
                                                 seed=11),
                                 first_segment="min")
    closed = ber_closed_form(t, p)
    assert abs(est.mean - closed.value) <= 3.0 * sigma_of(est)


def test_ber_minsnr_matches_closed_fixed():
    t = topo(2, 2, GainMode.FIXED)
    p = make_params(10.0)
    est = simulate_ber_snr_level(t, p, SimConfig(trials_or_bits=10 ** 6,
                                                 seed=11))
    closed = ber_closed_form(t, p)
    assert abs(est.mean - closed.value) <= 3.0 * sigma_of(est)


def test_cascade_xor_dominates_min_snr():
    # XOR-cascaded stage errors can only add probability over the
    # single worst stage
    t = topo(2, 3, GainMode.ADAPTIVE)
    p = make_params(10.0)
    cfg = SimConfig(trials_or_bits=400000, seed=21)
    low = simulate_ber_snr_level(t, p, cfg)
    high = simulate_ber_cascade_xor(t, p, cfg)
    assert high.mean > low.mean


def test_signal_level_matches_cascade_xor():
    t = topo(2, 2, GainMode.ADAPTIVE)
    p = make_params(10.0)
    signal = simulate_ber_signal_level(
        t, p, SimConfig(trials_or_bits=400000, seed=13))
    cascade = simulate_ber_cascade_xor(
        t, p, SimConfig(trials_or_bits=400000, seed=14))
    combined = math.hypot(sigma_of(signal), sigma_of(cascade))
    assert abs(signal.mean - cascade.mean) <= 3.0 * combined


def test_signal_level_rounds_bits_up_to_frames():
    t = topo(1, 1, GainMode.ADAPTIVE)
    p = make_params(25.0)
    est = simulate_ber_signal_level(
        t, p, SimConfig(trials_or_bits=1100, seed=3))
    assert est.n == 1250
    assert est.ci_low <= est.mean <= est.ci_high


def test_signal_level_fixed_gain_runs():
    t = topo(2, 2, GainMode.FIXED)
    p = make_params(12.0)
    est = simulate_ber_signal_level(
        t, p, SimConfig(trials_or_bits=50000, seed=4))
    assert 0.0 < est.mean < 0.5


# --------------------------------------------------- DBPSK primitives

def test_differential_roundtrip_noiseless():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(8, 100)).astype(bool)
    symbols = differential_encode(bits)
    assert symbols.shape == (8, 101)
    assert np.all(symbols[:, 0] == 1.0)
    gain = 0.3 + 0.4j
    recovered = differential_detect(gain * symbols)
    assert np.array_equal(recovered, bits)


def test_differential_detection_awgn_anchor():
    # DBPSK over a steady gain with unit-variance complex noise has
    # error probability exp(-gamma)/2 exactly
    gamma = 8.0
    rng = np.random.Generator(
        np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    bits = rng.integers(0, 2, size=(1000, 10000)).astype(bool)
    symbols = math.sqrt(gamma) * differential_encode(bits)
    noise = rng.normal(scale=math.sqrt(0.5), size=(2,) + symbols.shape)
    received = symbols + noise[0] + 1j * noise[1]
    errors = (differential_detect(received) != bits).mean()
    exact = 0.5 * math.exp(-gamma)
    n = bits.size
    assert abs(errors - exact) <= 3.0 * math.sqrt(exact * (1 - exact) / n)
