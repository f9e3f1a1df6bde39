"""Composition-layer tests: selection, AF algebra, first-segment CDFs,
and the outage composition rule.  Frozen oracles are 30-digit mpmath
quadratures of the defining integrals."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.integrate as si
import scipy.stats as st

from fsorf.channels import (
    LinkParams,
    db_to_linear,
    ne_pe_snr_cdf,
    sample_fso_snr,
    sample_rf_snr,
)
from fsorf.composition import (
    GainMode,
    Topology,
    af_fixed_snr,
    end_to_end_outage_semianalytic,
    fixed_segment_kernel,
    multiuser_select_cdf,
    second_relay_cdf_fixed_numeric,
)
from fsorf.metrics import outage_closed_form
from fsorf.montecarlo import SimConfig
from fsorf.special import _CLAMP_ULPS, ConvergenceError

from reference_models import (
    af_adaptive_snr,
    exact_adaptive_segment_cdf,
    hybrid_hop_cdf,
    multiuser_select_pdf,
    simulate_outage_per_stage,
)


def params(gamma_db=20.0, **kw):
    g = db_to_linear(gamma_db)
    base = dict(gamma_bar_rf=g, gamma_bar_fso=g, lam=1.0, a0=1.0,
                xi=1.45, gamma_th=10.0)
    base.update(kw)
    return LinkParams(**base)


# ---------------------------------------------------------------- topology

def test_topology_validation():
    Topology(n_users=1, m_relays=1)
    with pytest.raises(ValueError):
        Topology(n_users=0, m_relays=2)
    with pytest.raises(ValueError):
        Topology(n_users=2, m_relays=0)
    with pytest.raises(ValueError):
        Topology(n_users=1.5, m_relays=2)
    with pytest.raises(ValueError):
        Topology(n_users=2, m_relays=2, first_segment_mode="adaptive")


# --------------------------------------------------------------- selection

def test_select_cdf_reduces_to_single_user():
    g = np.linspace(0.0, 50.0, 7)
    assert np.allclose(multiuser_select_cdf(g, 1, 10.0),
                       1.0 - np.exp(-g / 10.0), rtol=1e-14)


def test_select_cdf_two_users_point():
    v = multiuser_select_cdf(10.0, 2, 10.0)
    assert v == pytest.approx((1.0 - math.exp(-1.0)) ** 2, rel=1e-13)
    assert multiuser_select_cdf(0.0, 3, 10.0) == 0.0


def test_select_cdf_matches_sampled_max():
    rng = np.random.default_rng(2024)
    n, trials = 2, 10_000_00
    draws = sample_rf_snr(10.0, rng, size=(trials, n)).max(axis=1)
    p_hat = np.mean(draws <= 10.0)
    p = multiuser_select_cdf(10.0, 2, 10.0)
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(p_hat - p) < 3 * se


def test_select_pdf_normalizes():
    for n in [1, 2, 4, 8]:
        val, _ = si.quad(lambda g: multiuser_select_pdf(g, n, 15.0),
                         0.0, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_select_pdf_is_cdf_derivative():
    h = 1e-5
    for g in [2.0, 15.0, 60.0]:
        num = (multiuser_select_cdf(g + h, 3, 15.0)
               - multiuser_select_cdf(g - h, 3, 15.0)) / (2 * h)
        assert num == pytest.approx(multiuser_select_pdf(g, 3, 15.0), rel=1e-6)


def test_select_rejects_bad_n():
    with pytest.raises(ValueError):
        multiuser_select_cdf(1.0, 0, 10.0)
    with pytest.raises(ValueError):
        multiuser_select_pdf(1.0, -1, 10.0)


# ------------------------------------------------------------- hybrid hop

def test_hybrid_hop_product_form():
    p = params()
    g = np.geomspace(0.1, 1e4, 50)
    from fsorf.channels import ne_pe_snr_cdf, rayleigh_snr_cdf
    ff = ne_pe_snr_cdf(g, p)
    fr = rayleigh_snr_cdf(g, p.gamma_bar_rf)
    got = hybrid_hop_cdf(g, p)
    assert np.allclose(got, ff * fr, rtol=1e-14)
    assert np.all(got <= np.minimum(ff, fr) + 1e-15)
    assert hybrid_hop_cdf(0.0, p) == 0.0


def test_hybrid_hop_matches_sampled_max():
    p = params(gamma_db=10.0)
    rng = np.random.default_rng(77)
    trials = 1_000_000
    g = np.maximum(sample_fso_snr(p, rng, size=trials),
                   sample_rf_snr(p.gamma_bar_rf, rng, size=trials))
    res = st.kstest(g, lambda x: hybrid_hop_cdf(x, p))
    assert res.pvalue > 0.01


# -------------------------------------------------------------- AF algebra

def test_af_adaptive_values():
    assert af_adaptive_snr(1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert af_adaptive_snr(7.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        af_adaptive_snr(-1.0, 2.0)


def test_af_adaptive_below_min():
    rng = np.random.default_rng(3)
    g1 = rng.exponential(10.0, size=1_000_000)
    g2 = rng.exponential(10.0, size=1_000_000)
    eq = af_adaptive_snr(g1, g2)
    assert np.all(eq <= np.minimum(g1, g2))


def test_af_fixed_values():
    assert af_fixed_snr(2.0, 2.0, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert af_fixed_snr(9.0, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        af_fixed_snr(1.0, 1.0, 0.0)


def test_af_snrs_do_not_overflow_past_the_product():
    # g1 * g2 overflows past about 1e154; both relays form the ratio
    # first, so they stay finite wherever their inputs are
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert af_fixed_snr(1e200, 1e200, 1.0) == pytest.approx(1e200)
        assert af_fixed_snr(3e300, 1e-300, 1.0) == pytest.approx(3.0)
        assert af_adaptive_snr(1e200, 1e200) == pytest.approx(5e199)
        assert af_adaptive_snr(1e300, 2.0) == pytest.approx(2.0)


def test_af_snrs_into_out():
    # out receives the same floats as a new array; an out that overlaps
    # an input would be overwritten before it is read, so it is refused
    # and the inputs are left as they were
    rng = np.random.default_rng(5)
    g1, g2 = rng.exponential(10.0, size=(2, 1000))
    kept = g1.copy()
    for relay in (af_adaptive_snr, lambda a, b, **kw: af_fixed_snr(
            a, b, 2.5, **kw)):
        out = np.empty(1000)
        assert relay(g1, g2, out=out) is out
        assert np.array_equal(out, relay(g1, g2))
        for alias in (g1, g2, g1[500:]):
            with pytest.raises(ValueError, match="overlap"):
                relay(g1, g2, out=alias)
        assert np.array_equal(g1, kept)


def test_af_fixed_monotone():
    base = af_fixed_snr(2.0, 3.0, 1.0)
    assert af_fixed_snr(2.5, 3.0, 1.0) > base
    assert af_fixed_snr(2.0, 3.5, 1.0) > base


# ------------------------------------------- first segment, adaptive mode

def adaptive_segment(gamma, n, p):
    # with one relay the chain's outage is the first segment
    return end_to_end_outage_semianalytic(
        Topology(n_users=n, m_relays=1, first_segment_mode=GainMode.ADAPTIVE),
        p, gamma)


def test_adaptive_segment_cdf_product_identity():
    p = params(gamma_db=15.0)
    from fsorf.channels import ne_pe_snr_cdf
    for g in [0.5, 10.0, 200.0]:
        f1 = multiuser_select_cdf(g, 3, p.gamma_bar_rf)
        f2 = ne_pe_snr_cdf(g, p)
        assert adaptive_segment(g, 3, p) == pytest.approx(
            1.0 - (1.0 - f1) * (1.0 - f2), rel=1e-14)
    assert adaptive_segment(0.0, 2, p) == 0.0


def test_adaptive_segment_binomial_expansion_identity():
    # the expanded alternating-sum form must equal the product form
    p = params(gamma_db=15.0)
    from fsorf.channels import ne_pe_snr_cdf
    n = 4
    for g in [1.0, 30.0]:
        ff = ne_pe_snr_cdf(g, p)
        total = 1.0
        for k in range(1, n + 1):
            total += (math.comb(n, k) * (-1.0) ** k
                      * math.exp(-k * g / p.gamma_bar_rf) * (1.0 - ff))
        assert adaptive_segment(g, n, p) == pytest.approx(
            total, rel=1e-12)


def test_adaptive_segment_vs_sampled_min():
    p = params(gamma_db=20.0)
    rng = np.random.default_rng(11)
    trials = 1_000_000
    g1 = sample_rf_snr(p.gamma_bar_rf, rng, size=(trials, 2)).max(axis=1)
    g2 = sample_fso_snr(p, rng, size=trials)
    p_hat = np.mean(np.minimum(g1, g2) <= 10.0)
    pv = adaptive_segment(10.0, 2, p)
    se = math.sqrt(pv * (1 - pv) / trials)
    assert abs(p_hat - pv) < 3 * se


def test_adaptive_exact_cdf_dominates_min_model():
    # min(g1,g2) >= g1 g2/(g1+g2+1) pointwise, so the exact law piles
    # more mass below any threshold
    p = params(gamma_db=20.0)
    p_exact = exact_adaptive_segment_cdf(10.0, 2, p)
    p_min = adaptive_segment(10.0, 2, p)
    assert p_exact > p_min
    assert p_exact - p_min > 0.01     # the gap is real at this SNR (0.0234)


@pytest.mark.parametrize("gamma_db, n", [(10.0, 2), (20.0, 4), (40.0, 1)])
def test_exact_adaptive_rule_matches_reference_sampler(gamma_db, n):
    # the 1-D rule against the reference sampler's exact law on a
    # one-relay chain, which is the first segment alone
    p = params(gamma_db=gamma_db)
    est = simulate_outage_per_stage(
        Topology(n_users=n, m_relays=1, first_segment_mode=GainMode.ADAPTIVE),
        p, SimConfig(trials_or_bits=400_000, seed=42), "exact")
    rule = exact_adaptive_segment_cdf(p.gamma_th, n, p)
    sigma = math.sqrt(rule * (1.0 - rule) / est.n)
    assert abs(est.mean - rule) <= 3.0 * sigma, (est, rule)


# ---------------------------------------------- first segment, fixed mode

def fixed_closed(n, p):
    # with one relay the chain's closed-form outage is the first segment
    return outage_closed_form(
        Topology(n_users=n, m_relays=1, first_segment_mode=GainMode.FIXED), p)


def test_fixed_segment_closed_vs_numeric():
    cases = [(2, 10.0, 10.0), (4, 25.0, 10.0), (1, 0.0, 2.0)]
    refs = [0.685998008427558, 0.014869734212895, 0.985149748145108]
    for (n, gdb, gth), ref in zip(cases, refs):
        p = params(gamma_db=gdb, gamma_th=gth)
        closed = fixed_closed(n, p)
        numeric = second_relay_cdf_fixed_numeric(gth, n, p)
        assert closed == pytest.approx(ref, rel=1e-8)
        assert numeric == pytest.approx(ref, rel=1e-10)
    # above ~50 dB the FSO feature sits near x = gamma c_gain / gamma_bar,
    # far left of x = 1 / s, where cuts at multiples of 1 / s miss it
    for n, gdb in [(2, 50.0), (4, 50.0), (1, 60.0), (2, 60.0), (4, 60.0)]:
        p = params(gamma_db=gdb)
        assert second_relay_cdf_fixed_numeric(10.0, n, p) == pytest.approx(
            fixed_closed(n, p), rel=1e-8), (n, gdb)
    # at low SNR the segment is in outage; at -30 dB the RF and FSO cuts
    # of the rule cross
    for gdb in [-30.0, -10.0]:
        assert second_relay_cdf_fixed_numeric(
            10.0, 2, params(gamma_db=gdb)) == 1.0
    assert second_relay_cdf_fixed_numeric(0.0, 2, params()) == 0.0


def test_fixed_segment_numeric_raises_on_missed_error_estimate(monkeypatch):
    # a stepped FSO CDF breaks the rule's smoothness: the step-h and
    # step-2h sums then differ by O(h), far past the tolerance
    def stepped_cdf(gamma, params):
        return np.where(np.asarray(gamma) > 7.3, 1.0, 0.0)

    monkeypatch.setattr("fsorf.composition.ne_pe_snr_cdf", stepped_cdf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="step-halving"):
            second_relay_cdf_fixed_numeric(10.0, 2, params())


@pytest.mark.parametrize("moved,want", [
    (lambda: 1.0 + 4.0 * _CLAMP_ULPS, None),    # twice the floor: raises
    (lambda: -5e-324, None),    # nonnegative terms never round below 0
    (lambda: math.nan, None),
    (lambda: np.nextafter(1.0, 2.0), 1.0),      # one ulp above 1: clamped
    (lambda: 0.0, 0.0)])        # 0 itself is inside
def test_fixed_segment_numeric_clamps_only_within_its_floor(monkeypatch,
                                                            moved, want):
    # the rule's value is moved to the edges of [0, 1] or past them.  Both
    # sums add nonnegative terms, so the floor is relative: n = 2 times
    # _CLAMP_ULPS of the value
    monkeypatch.setattr("fsorf.composition.trapezoid",
                        lambda *args: np.array([moved()]))
    if want is None:
        with pytest.raises(ConvergenceError, match=(
                r"fixed-gain oracle .* lies outside \[0, 1\] by more than "
                r"its rounding floor")):
            second_relay_cdf_fixed_numeric(10.0, 2, params())
    else:
        value = second_relay_cdf_fixed_numeric(10.0, 2, params())
        assert type(value) is float and value == want


@pytest.mark.parametrize("n", [2, 4])
def test_fixed_segment_numeric_step_halving_allows_both_sums_rounding(n):
    # at 3000 dB the segment is almost never in outage, and the step-h and
    # step-2h sums, both of nonnegative terms, differ by their rounding
    # alone: far below the relative tolerance
    value = second_relay_cdf_fixed_numeric(10.0, n, params(3000.0, xi=0.8))
    assert 0.0 < value <= 1e-12


@pytest.mark.parametrize("n,gdb", [(1, 0.0), (2, 20.0), (4, 40.0),
                                   (8, -20.0), (8, 60.0)])
def test_fixed_segment_numeric_array_is_scalar_nodewise(n, gdb):
    # an ln-spaced array runs one convolution per user term; each node
    # must equal the one-node call, whose rule starts at its own left
    # cut.  Every term is nonnegative, so the two agree to a few ulps
    # relative, however small the value.
    p = params(gamma_db=gdb)
    gammas = np.exp(-6.0 + np.arange(0, 161) / 16.0)
    values = second_relay_cdf_fixed_numeric(gammas, n, p)
    assert values.shape == gammas.shape
    for g, value in zip(gammas, values):
        assert value == pytest.approx(
            second_relay_cdf_fixed_numeric(float(g), n, p), rel=1e-14,
            abs=0.0), g
    for bad in (np.array([1.0, 2.0, 3.0]), gammas[::-1],
                np.array([0.0, math.exp(1.0 / 16.0)]), gammas[None, :]):
        with pytest.raises(ValueError, match="evenly spaced"):
            second_relay_cdf_fixed_numeric(bad, n, p)


def test_fixed_segment_kernel_is_laplace_weighted_tail():
    # s * int e^{-sx} F_FSO(gamma c / x) dx, directly
    p = params(gamma_db=10.0)
    from fsorf.channels import ne_pe_snr_cdf
    s = 0.2
    val, _ = si.quad(
        lambda x: s * math.exp(-s * x)
        * ne_pe_snr_cdf(10.0 * p.c_gain / x, p) if x > 0 else 0.0,
        0.0, np.inf, limit=400)
    assert fixed_segment_kernel(10.0, s, p) == pytest.approx(val, rel=1e-8)


def test_fixed_segment_vs_sampled_af_chain():
    p = params(gamma_db=13.0)
    rng = np.random.default_rng(8)
    trials = 1_000_000
    g1 = sample_rf_snr(p.gamma_bar_rf, rng, size=(trials, 2)).max(axis=1)
    g2 = sample_fso_snr(p, rng, size=trials)
    eq = af_fixed_snr(g1, g2, p.c_gain)
    p_hat = np.mean(eq <= 10.0)
    pv = fixed_closed(2, p)
    se = math.sqrt(pv * (1 - pv) / trials)
    assert abs(p_hat - pv) < 3 * se


# ------------------------------------------------------------- end to end

def test_e2e_frozen_points():
    p = params(gamma_db=20.0)
    t_a = Topology(n_users=2, m_relays=2, first_segment_mode=GainMode.ADAPTIVE)
    t_f = Topology(n_users=2, m_relays=2, first_segment_mode=GainMode.FIXED)
    assert end_to_end_outage_semianalytic(t_a, p) == pytest.approx(
        0.435646624962466, rel=1e-10)
    assert end_to_end_outage_semianalytic(t_f, p) == pytest.approx(
        0.107942142967643, rel=1e-8)
    assert outage_closed_form(t_f, p) == pytest.approx(
        0.107942142967643, rel=1e-8)


def test_e2e_zero_threshold():
    p = params(gamma_th=1e-300)
    t = Topology(n_users=2, m_relays=3)
    assert end_to_end_outage_semianalytic(t, p) < 1e-100


def test_e2e_single_relay_is_first_segment():
    p = params(gamma_db=18.0)
    t = Topology(n_users=3, m_relays=1)
    f1 = multiuser_select_cdf(p.gamma_th, 3, p.gamma_bar_rf)
    assert end_to_end_outage_semianalytic(t, p) == pytest.approx(
        f1 + (1.0 - f1) * ne_pe_snr_cdf(p.gamma_th, p), rel=1e-14)


def test_e2e_composition_keeps_relative_precision_of_a_small_outage():
    # at 120 dB the outage is below 1e-5 (fixed gain: near 1e-11), and
    # 1 - (1 - p)(1 - q) formed as written would lose that share of its
    # digits.  The reference composes the same double parts in 40 digits
    import mpmath

    p = params(gamma_db=120.0)
    g = 10.0
    hop = hybrid_hop_cdf(g, p)
    sel = mpmath.mpf(multiuser_select_cdf(g, 2, p.gamma_bar_rf))
    with mpmath.workdps(40):
        adaptive = 1 - (1 - sel) * (1 - mpmath.mpf(ne_pe_snr_cdf(g, p)))
        firsts = {GainMode.ADAPTIVE: adaptive, GainMode.FIXED: mpmath.mpf(
            second_relay_cdf_fixed_numeric(g, 2, p))}
        for mode, m in itertools.product(GainMode, (1, 2, 3)):
            want = 1 - (1 - firsts[mode]) * (1 - mpmath.mpf(hop)) ** (m - 1)
            got = end_to_end_outage_semianalytic(
                Topology(n_users=2, m_relays=m, first_segment_mode=mode), p)
            assert 0.0 < got < 1e-5
            assert got == pytest.approx(float(want), rel=1e-15,
                                        abs=0.0), (mode, m)


def test_e2e_monotonicity():
    gammas = [5.0, 10.0, 20.0, 30.0]
    for mode in GainMode:
        t = Topology(n_users=2, m_relays=2, first_segment_mode=mode)
        vals = [end_to_end_outage_semianalytic(t, params(gamma_db=g))
                for g in gammas]
        assert all(a > b for a, b in zip(vals, vals[1:])), mode

    p0 = params(gamma_db=15.0)
    t = Topology(n_users=2, m_relays=2)
    by_th = [end_to_end_outage_semianalytic(
        t, params(gamma_db=15.0, gamma_th=th)) for th in [1.0, 5.0, 20.0]]
    assert by_th[0] < by_th[1] < by_th[2]

    by_m = [end_to_end_outage_semianalytic(
        Topology(n_users=2, m_relays=m), p0) for m in [1, 2, 3]]
    assert by_m[0] < by_m[1] < by_m[2]

    for mode in GainMode:
        by_n = [end_to_end_outage_semianalytic(
            Topology(n_users=n, m_relays=2, first_segment_mode=mode), p0)
            for n in [1, 2, 4]]
        assert by_n[0] >= by_n[1] >= by_n[2], mode
