"""Closed-form outage and error-rate metrics against independent paths.

Frozen reference values come from a 40-digit multiprecision
reimplementation of the same multi-sums, cross-checked there against
direct quadrature of the outage integral to ~1e-30.  The double
precision package must land on them within the tolerance of its own
Meijer-G evaluation (the fixed-gain rows go through perturbed-parameter
evaluation, which costs a few digits).  Cross-checks here pit the
closed forms against the semianalytic composition layer and against the
ln-grid trapezoid rule over that layer's outage curve; those routes
share no Meijer-G code, only the incomplete-gamma FSO CDF.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from fsorf.channels import LinkParams, db_to_linear, ne_pe_snr_cdf
from fsorf.composition import (
    LOG_STEP,
    GainMode,
    Topology,
    end_to_end_outage_semianalytic,
    fixed_segment_kernel,
    second_relay_cdf_fixed_numeric,
)
from fsorf.metrics import (
    BerResult,
    _chain_terms,
    ber_closed_form,
    ber_quadrature,
    outage_closed_form,
)
from fsorf.series import series_coeffs, series_power_coeffs
from fsorf.special import ConvergenceError, gamma_fn

XI = 1.45


def make_params(gamma_db, gamma_th=10.0):
    g = db_to_linear(gamma_db)
    return LinkParams(gamma_bar_rf=g, gamma_bar_fso=g, lam=1.0, a0=1.0,
                      xi=XI, gamma_th=gamma_th)


def topo(n, m, mode):
    return Topology(n_users=n, m_relays=m, first_segment_mode=mode)


# 40-digit multiprecision values of the closed multi-sums, gamma_th = 10
OUTAGE_ADAPTIVE_REF = {
    (2, 2, 10.0): 0.93131330815290646,
    (4, 3, 25.0): 0.27568241246858695,
    (1, 1, 0.0): 0.99999930830292846,
    (3, 2, 15.0): 0.66093031490442503,
}
OUTAGE_FIXED_REF = {
    (2, 2, 10.0): 0.83994027329773375,
    (2, 3, 25.0): 0.036912303122005847,
    (1, 1, 0.0): 0.9999991357600537,
    (4, 2, 20.0): 0.083849491497326779,
}
# 40-digit values of the fixed-gain first-segment CDF F_seg at gamma, by
# mpmath quadrature in t = ln h over breakpoints np.linspace(-80, 5, 341);
# keyed (N, gamma_avg dB, gamma), M = 1, c_gain = 1
SEGMENT_FIXED_REF = {
    (2, 40.0, 10.0): 0.00062719453694456780094,
    (8, 50.0, 10.0): 0.000039390904314038433824,
    (8, 80.0, 10.0): 3.9393105735284776876e-8,
    (1, 120.0, 0.01): 3.4801217428397e-13,
    (1, 120.0, 1.0): 4.38012174248853e-12,
    (1, 120.0, 5.0): 1.25581819873851e-11,
}
# 40-digit fixed-gain error rates at N = M = 1, keyed gamma_avg dB: the
# same quadrature over the gain I, of (1/2) E[(a I^2 + b) / ((1 + a) I^2
# + b)] with a = 1 / gamma_bar_rf and b = c_gain / (gamma_bar_rf
# gamma_bar_fso)
BER_FIXED_HIGH_SNR_REF = {
    100.0: 1.9977774346865671952e-10,
    120.0: 1.9977774497295898913e-12,
}
# 40-digit known-csi error rates at N = M = 2 near an integer zeta, keyed
# (xi, gamma_avg dB): (1/2) int e^{-gamma} F_out dgamma with
# F_FSO = X^zeta Gamma(1 - zeta, X) - expm1(-X), to the digits given
BER_ADAPTIVE_NEAR_INTEGER_ZETA_REF = {
    (2.0000005, 0.0): 0.37468837088,
    (1.7320512, 0.0): 0.382023395732,
    (1.0000005, 40.0): 0.0222265142782,
}
BER_ADAPTIVE_REF = {
    (2, 1, 10.0): 0.18070202383734112,
    (2, 2, 10.0): 0.19102073629362341,
    (1, 1, 5.0): 0.29942308750004074,
    (4, 3, 20.0): 0.072794155519328931,
}
BER_FIXED_REF = {
    (2, 1, 10.0): 0.082946628957919787,
    (2, 2, 15.0): 0.031909250893889017,
    (1, 1, 5.0): 0.27350950154870841,
    (3, 3, 20.0): 0.0091781519241616853,
}


# ------------------------------------------------------------ outage

@pytest.mark.parametrize("point,ref", sorted(OUTAGE_ADAPTIVE_REF.items()))
def test_outage_adaptive_frozen(point, ref):
    n, m, gdb = point
    value = outage_closed_form(topo(n, m, GainMode.ADAPTIVE),
                               make_params(gdb))
    assert value == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("point,ref", sorted(OUTAGE_FIXED_REF.items()))
def test_outage_fixed_frozen(point, ref):
    # perturbed Meijer-G evaluation bounds the achievable agreement
    n, m, gdb = point
    value = outage_closed_form(topo(n, m, GainMode.FIXED), make_params(gdb))
    assert value == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("point,ref", list(SEGMENT_FIXED_REF.items()))
def test_fixed_segment_cdf_matches_40_digit_reference(point, ref):
    # the quadrature oracle and the Meijer-G closed form, each without
    # and with a memo.  Errors today: the oracle's within 3.8e-15 at every
    # point; the closed form's within 8.2e-11, the Meijer-G log-case floor
    n, gdb, gamma = point
    p = make_params(gdb, gamma_th=gamma)
    memo = {}
    for kwargs in ({}, {"memo": memo}, {"memo": memo}):
        oracle = second_relay_cdf_fixed_numeric(gamma, n, p, **kwargs)
        assert oracle == pytest.approx(ref, rel=1e-13, abs=0.0)
        closed = outage_closed_form(topo(n, 1, GainMode.FIXED), p, **kwargs)
        assert closed == pytest.approx(ref, rel=1e-10, abs=0.0)
    assert memo


@pytest.mark.parametrize("gdb,ref", sorted(BER_FIXED_HIGH_SNR_REF.items()))
def test_fixed_ber_quadrature_matches_40_digit_reference(gdb, ref):
    # the oracle and the composition add nonnegative terms, so the error
    # rate keeps its relative precision as it falls like 1 / gamma_bar
    curve = functools.partial(end_to_end_outage_semianalytic,
                              topo(1, 1, GainMode.FIXED), make_params(gdb))
    assert ber_quadrature(curve) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (4, 3)])
def test_known_csi_ber_reaches_its_high_snr_anchor(n, m):
    # BER sqrt(gamma_bar) -> (1/2) Gamma(3/2) f_I(0) with f_I(0) = zeta /
    # (zeta - 1) lam / a0, whatever N and M: the FSO CDF's sqrt(gamma)
    # term governs every stage.  The ratio reads 1 - 4.1e-6 at N = M = 1
    # and 1 - 4.7e-6 at the other two, at 120 dB
    p = make_params(120.0)
    anchor = 0.5 * math.gamma(1.5) * p.zeta / (p.zeta - 1.0) * p.lam / p.a0
    ber = ber_quadrature(_outage_curve(topo(n, m, GainMode.ADAPTIVE), p))
    assert ber * math.sqrt(p.gamma_bar_fso) == pytest.approx(anchor,
                                                            rel=1e-5)


def test_unknown_csi_ber_reaches_its_high_snr_anchor():
    # at N = M = 1 and gamma_bar_rf = gamma_bar_fso the fixed gain's BER
    # gamma_bar -> (1/2) [1 + (pi/2) f_I(0) sqrt(c_gain)]: the RF leg
    # and the FSO leg scaled by the relay each fail like 1 / gamma_bar.
    # The ratio reads 1 - 9.8e-11 at 120 dB
    p = make_params(120.0)
    anchor = 0.5 * (1.0 + 0.5 * math.pi * p.zeta / (p.zeta - 1.0)
                    * p.lam / p.a0 * math.sqrt(p.c_gain))
    ber = ber_quadrature(_outage_curve(topo(1, 1, GainMode.FIXED), p))
    assert ber * p.gamma_bar_rf == pytest.approx(anchor, rel=1e-9)


@pytest.mark.parametrize("n,m,gdb", [(2, 2, 10.0), (4, 3, 25.0), (1, 1, 0.0)])
def test_outage_adaptive_matches_composition(n, m, gdb):
    # both routes compose the min model's product form the same way
    t = topo(n, m, GainMode.ADAPTIVE)
    p = make_params(gdb)
    closed = outage_closed_form(t, p)
    semi = end_to_end_outage_semianalytic(t, p)
    assert closed == semi


@pytest.mark.parametrize("n,m,gdb", [(2, 2, 10.0), (2, 3, 25.0), (4, 2, 20.0)])
def test_outage_fixed_matches_composition(n, m, gdb):
    t = topo(n, m, GainMode.FIXED)
    p = make_params(gdb)
    closed = outage_closed_form(t, p)
    semi = end_to_end_outage_semianalytic(t, p)
    assert closed == pytest.approx(semi, rel=1e-8)


def test_outage_vanishes_for_tiny_threshold():
    # the leading CDF term scales like sqrt(gamma_th), so the decay to
    # zero is slow but strictly monotone
    for mode in (GainMode.ADAPTIVE, GainMode.FIXED):
        t = topo(2, 2, mode)
        values = [outage_closed_form(t, make_params(10.0, gamma_th=g))
                  for g in (1e-4, 1e-6, 1e-8)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3


def test_outage_decreases_with_average_snr():
    for mode in (GainMode.ADAPTIVE, GainMode.FIXED):
        t = topo(2, 2, mode)
        values = [outage_closed_form(t, make_params(g))
                  for g in (5.0, 10.0, 15.0, 20.0, 25.0)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def test_single_hop_outage_is_second_relay_cdf():
    # m_relays = 1 leaves no decode-and-forward hops after the relay
    p = make_params(12.0)
    adaptive = outage_closed_form(topo(3, 1, GainMode.ADAPTIVE), p)
    assert adaptive == end_to_end_outage_semianalytic(
        topo(3, 1, GainMode.ADAPTIVE), p, p.gamma_th)
    fixed = outage_closed_form(topo(3, 1, GainMode.FIXED), p)
    assert fixed == pytest.approx(
        second_relay_cdf_fixed_numeric(p.gamma_th, 3, p), rel=1e-9)


def _expanded_outage(t, p):
    # the chain's alternating binomial sum that ber_closed_form integrates
    # term by term, at gamma_th: 1 + sum w e^{-shift a} F^t (1 - K_k),
    # with K_k = F in adaptive gain, summed in the terms' order; and its
    # rounding floor 4 eps (1 + sum |term|)
    gth, gr = p.gamma_th, p.gamma_bar_rf
    f = ne_pe_snr_cdf(gth, p)
    terms = [w * math.exp(-shift * gth / gr) * f ** power * (1.0 - (
        f if t.first_segment_mode is GainMode.ADAPTIVE
        else fixed_segment_kernel(gth, (k + 1.0) / gr, p)))
        for k, power, w, shift in _chain_terms(t)]
    return (sum(terms, 1.0),
            4.0 * np.finfo(float).eps * (1.0 + sum(map(abs, terms))))


@pytest.mark.parametrize("mode", list(GainMode))
@pytest.mark.parametrize("gdb", [0.0, 10.0, 20.0, 30.0, 40.0])
def test_outage_matches_the_expansion_ber_integrates(mode, gdb):
    # the outage composes hop by hop; the error rate expands the same
    # chain into _chain_terms' sum.  The two agree within the sum's floor
    p = make_params(gdb)
    for n, m in itertools.product((1, 2, 4, 8), (1, 2, 3)):
        t = topo(n, m, mode)
        want, floor = _expanded_outage(t, p)
        assert abs(outage_closed_form(t, p) - want) <= floor, (n, m)


@pytest.mark.parametrize("xi", [0.8, 1.45, 2.5])
@pytest.mark.parametrize("n,m", [(6, 1), (6, 2), (8, 1), (8, 2)])
def test_fixed_outage_at_low_snr_is_one(n, m, xi):
    # every user term's weight e^{-(k+1) gamma_th / gamma_bar} underflows
    # to 0 at -30 dB, where the Meijer-G kernel does not converge
    g = db_to_linear(-30.0)
    p = LinkParams(gamma_bar_rf=g, gamma_bar_fso=g, lam=1.0, a0=1.0,
                   xi=xi, gamma_th=10.0)
    t = topo(n, m, GainMode.FIXED)
    assert outage_closed_form(t, p) == 1.0
    assert end_to_end_outage_semianalytic(t, p) == 1.0


@pytest.mark.parametrize("lam,gamma_db,n,m,kernels,match", [
    # K_0 = 1.2e13 in place of a value in [0, 1], as a cancelling Slater
    # sum once left it here: its weight e^(-gamma_th / gamma_bar) = 4e-28
    # puts the outage 4.8e-15 above 1, under the kernel gate and over the
    # sum's rounding floor 8.9e-16
    (10.0, -8.0, 1, 1, (1.2e13,),
     r"closed-form outage 1 lies outside \[0, 1\]"),
    # K_0 = -6.9e4 and K_1 = -7.9e9: far outside [0, 1] at weights 6.8e-6
    # and 1.2e-11, so the kernels' range check raises before the sum
    (30.0, -1.0, 2, 2, (-6.9e4, -7.9e9),
     r"fixed-gain outage kernels lie .* outside \[0, 1\]"),
], ids=["sum", "kernels"])
def test_outage_outside_unit_interval_raises(monkeypatch, lam, gamma_db, n,
                                             m, kernels, match):
    g = db_to_linear(gamma_db)
    p = LinkParams(gamma_bar_rf=g, gamma_bar_fso=g, lam=lam, a0=1.0,
                   xi=XI, gamma_th=10.0)
    # the kernel of user term k is called with s = (k + 1) / gamma_bar
    monkeypatch.setattr("fsorf.metrics.fixed_segment_kernel",
                        lambda gamma, s, params: kernels[round(s * g) - 1])
    with pytest.raises(ConvergenceError, match=match):
        outage_closed_form(topo(n, m, GainMode.FIXED), p)


def _fixed_point(lam, gamma_db, n, m):
    g = db_to_linear(gamma_db)
    return topo(n, m, GainMode.FIXED), LinkParams(
        gamma_bar_rf=g, gamma_bar_fso=g, lam=lam, a0=1.0, xi=XI,
        gamma_th=10.0)


# points where the fixed-gain Slater sums cancel to noise.  Which check
# sees the noise moves with its last bits, so the tests above pin each
# check's message on set kernels, and these pin what holds of the
# closed form at each point: it raises, or it is within the route's
# tolerance of the quadrature (rel 1e-8 for the outage)
@pytest.mark.parametrize("lam,gamma_db,n,m,agrees", [
    (10.0, -8.0, 1, 1, True),           # reads 1 - 6.9e-15
    (30.0, -1.0, 2, 2, False),          # kernels outside [0, 1]
], ids=["10-at-minus-8-db", "30-at-minus-1-db"])
def test_outage_slater_noise_points_raise_or_agree(lam, gamma_db, n, m,
                                                    agrees):
    t, p = _fixed_point(lam, gamma_db, n, m)
    quad = end_to_end_outage_semianalytic(t, p)
    assert quad == 1.0
    if agrees:
        assert outage_closed_form(t, p) == pytest.approx(quad, rel=1e-8)
    else:
        with pytest.raises(ConvergenceError):
            outage_closed_form(t, p)


def test_ber_slater_noise_point_raises():
    # lambda = 1/sqrt(2), -30 dB: the error rate is 1.0e-6 below 1/2,
    # and the closed form's kernels land about 2e-6 outside their range
    t, p = _fixed_point(2 ** -0.5, -30.0, 1, 2)
    quad = ber_quadrature(functools.partial(
        end_to_end_outage_semianalytic, t, p))
    assert quad == pytest.approx(0.4999989943531331, rel=1e-10)
    with pytest.raises(ConvergenceError):
        ber_closed_form(t, p)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fixed_outage_floor_goes_through_the_hops(monkeypatch, m):
    # the first segment's rounding floor reaches the outage scaled by
    # (1 - hop)^(M-1), as the segment's error does, so whether a segment
    # sum above 1 clamps or raises does not depend on the relay count.
    # K_0 is set so that F_seg = A + e^{-a} K_0 lies d eps above 1
    # (N = 1, a = 1); the floor is 4 eps times about 1
    t = topo(1, m, GainMode.FIXED)
    p = make_params(10.0)
    for d, raises in ((2.0, False), (8.0, True)):
        monkeypatch.setattr(
            "fsorf.metrics.fixed_segment_kernel",
            lambda gamma, s, params: 1.0 + d * np.finfo(float).eps * math.e)
        if raises:
            with pytest.raises(ConvergenceError,
                               match=r"closed-form outage .* outside"):
                outage_closed_form(t, p)
        else:
            assert outage_closed_form(t, p) == 1.0


# -------------------------------------------------------- quadrature

def test_ber_quadrature_constant_curve():
    assert ber_quadrature(lambda g: 1.0) == pytest.approx(0.5, abs=1e-10)


def test_ber_quadrature_rayleigh_anchor():
    # single Rayleigh branch: (1/2) / (1 + gbar) exactly
    gbar = 10.0
    value = ber_quadrature(lambda g: -np.expm1(-g / gbar))
    assert value == pytest.approx(1.0 / 22.0, rel=1e-9)


def test_ber_quadrature_best_of_two_anchor():
    gbar = 10.0
    value = ber_quadrature(lambda g: (-np.expm1(-g / gbar)) ** 2)
    exact = 0.5 * (1.0 - 2.0 * gbar / (gbar + 1.0) + gbar / (gbar + 2.0))
    assert value == pytest.approx(exact, rel=1e-9)


def test_ber_quadrature_calls_curve_once_and_returns_float():
    calls = []

    def curve(g):
        calls.append(g)
        return -np.expm1(-g)

    value = ber_quadrature(curve)
    assert len(calls) == 1 and calls[0].ndim == 1
    assert type(value) is float       # the CSV writes repr(value)


def test_ber_quadrature_raises_on_missed_error_estimate():
    # a stepped curve breaks the rule's smoothness: the step-h and
    # step-2h sums then differ by O(h), far past the tolerance
    with pytest.raises(ConvergenceError, match="step-halving"):
        ber_quadrature(lambda g: np.where(g > 0.73, 1.0, 0.0))


def _outage_curve(t, p):
    return functools.partial(end_to_end_outage_semianalytic, t, p)


@pytest.mark.parametrize("point,ref", sorted(BER_ADAPTIVE_REF.items()))
def test_ber_quadrature_adaptive_frozen(point, ref):
    n, m, gdb = point
    t = topo(n, m, GainMode.ADAPTIVE)
    p = make_params(gdb)
    assert ber_quadrature(_outage_curve(t, p)) == pytest.approx(
        ref, rel=1e-13)


@pytest.mark.parametrize(
    "point,ref", sorted(BER_ADAPTIVE_NEAR_INTEGER_ZETA_REF.items()))
def test_ber_quadrature_near_integer_zeta_matches_40_digit_reference(point,
                                                                     ref):
    # the quadrature evaluates no Meijer-G, so the clustered poles near
    # an integer zeta do not reach it.  Errors today: -2.4e-12, -7.4e-12
    # and -2.9e-11
    xi, gdb = point
    p = dataclasses.replace(make_params(gdb), xi=xi)
    curve = _outage_curve(topo(2, 2, GainMode.ADAPTIVE), p)
    assert ber_quadrature(curve) == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("point,ref", sorted(BER_FIXED_REF.items()))
def test_ber_quadrature_fixed_frozen(point, ref):
    n, m, gdb = point
    t = topo(n, m, GainMode.FIXED)
    p = make_params(gdb)
    assert ber_quadrature(_outage_curve(t, p)) == pytest.approx(
        ref, rel=1e-13)


def test_ber_quadrature_domain():
    # -30..120 dB, both modes, N <= 8, M <= 5: finite, a valid error
    # rate, non-increasing in the average SNR, and no floating-point
    # overflow, invalid operation or division by zero on the way.  No
    # accuracy bound is set: above 40 dB in fixed gain this route and the
    # closed form drift apart (6.6e-6 relative at 120 dB for N = M = 1),
    # and which one is right is not settled.
    gdbs = np.arange(-30.0, 121.0, 10.0)
    cases = itertools.product((0.8, 1.45, 2.5), GainMode, (1, 2, 4, 8),
                              (1, 3, 5))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for xi, mode, n, m in cases:
            curve = []
            for g in db_to_linear(gdbs):
                p = LinkParams(gamma_bar_rf=float(g), gamma_bar_fso=float(g),
                               lam=1.0, a0=1.0, xi=xi, gamma_th=10.0)
                curve.append(ber_quadrature(_outage_curve(topo(n, m, mode),
                                                          p)))
            tag = (xi, mode, n, m)
            assert all(0.0 < v <= 0.5 for v in curve), tag
            assert all(a >= b for a, b in zip(curve, curve[1:])), tag


@pytest.mark.parametrize("n,m,gdb", [(1, 1, 10.0), (2, 2, 10.0),
                                     (4, 3, 20.0)])
def test_ber_adaptive_closed_matches_quadrature(n, m, gdb):
    t = topo(n, m, GainMode.ADAPTIVE)
    p = make_params(gdb)
    result = ber_closed_form(t, p)
    quad = ber_quadrature(_outage_curve(t, p))
    tol = max(1e-6, 10.0 * result.truncation)
    assert abs(result.value - quad) <= tol
    assert result.converged


@pytest.mark.parametrize("n,m,gdb", [(1, 1, 10.0), (2, 2, 15.0),
                                     (3, 3, 20.0)])
def test_ber_fixed_closed_matches_quadrature(n, m, gdb):
    t = topo(n, m, GainMode.FIXED)
    p = make_params(gdb)
    result = ber_closed_form(t, p)
    quad = ber_quadrature(_outage_curve(t, p))
    tol = max(1e-6, 10.0 * result.truncation)
    assert abs(result.value - quad) <= tol
    assert result.converged


# ------------------------------------------------------- closed forms

@pytest.mark.parametrize("point,ref", sorted(BER_ADAPTIVE_REF.items()))
def test_ber_adaptive_frozen(point, ref):
    n, m, gdb = point
    result = ber_closed_form(topo(n, m, GainMode.ADAPTIVE),
                             make_params(gdb))
    assert result.value == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("point,ref", sorted(BER_FIXED_REF.items()))
def test_ber_fixed_frozen(point, ref):
    n, m, gdb = point
    result = ber_closed_form(topo(n, m, GainMode.FIXED), make_params(gdb))
    assert result.value == pytest.approx(ref, rel=1e-9)


def test_ber_result_fields():
    result = ber_closed_form(topo(2, 2, GainMode.ADAPTIVE),
                             make_params(10.0))
    assert isinstance(result, BerResult)
    assert 0.0 <= result.value <= 0.5
    assert result.truncation >= 0.0
    assert result.n_terms >= 1
    assert result.converged


def test_ber_decreases_with_average_snr():
    for mode in (GainMode.ADAPTIVE, GainMode.FIXED):
        t = topo(2, 2, mode)
        values = [ber_closed_form(t, make_params(g)).value
                  for g in (5.0, 10.0, 15.0, 20.0)]
        assert all(0.0 < v < 0.5 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def test_ber_raises_where_kernels_leave_their_range():
    # at -30 dB the fixed-gain kernels fall outside [0, Gamma(1+H)
    # sigma^{-1-H}] and the sum lands far from the true value of ~0.5
    t = topo(6, 2, GainMode.FIXED)
    with pytest.raises(ConvergenceError, match="Laplace kernels lie"):
        ber_closed_form(t, make_params(-30.0))
    assert ber_closed_form(t, make_params(-20.0)).value == pytest.approx(
        0.49988, abs=1e-5)


def _ber_with_fixed_kernels(monkeypatch, factor):
    # every fixed-gain Laplace kernel set to (1 - factor) times its bound
    # Gamma(1+H) sigma^(-1-H): at factor 1 each is 0 and the error rate
    # is exactly 1/2, and past 1 each lies below its range by
    # (factor - 1) times its bound
    monkeypatch.setattr(
        "fsorf.metrics._ber_kernel_fixed",
        lambda h_exp, sigma, s, params, g_values:
            factor * gamma_fn(1.0 + h_exp) * sigma ** (-1.0 - h_exp))
    return ber_closed_form(topo(1, 2, GainMode.FIXED), make_params(0.0))


def test_ber_above_one_half_raises(monkeypatch):
    # kernels 1e-8 of their bounds below 0 pass the 1e-6 kernel gate;
    # their sum lands 1.9e-9 above 1/2, past its rounding floor, and raises
    # where clamping would have given 0.5
    assert _ber_with_fixed_kernels(monkeypatch, 1.0).value == 0.5
    with pytest.raises(ConvergenceError,
                       match=r"closed-form error rate .* outside \[0, 0.5\]"):
        _ber_with_fixed_kernels(monkeypatch, 1.0 + 1e-8)


def test_ber_kernels_outside_their_range_raise(monkeypatch):
    # 1e-4 of their bounds below 0: the kernel gate sees 4.3e-4 of
    # weighted distance and raises before the sum is checked
    with pytest.raises(ConvergenceError,
                       match=r"BER Laplace kernels lie .* outside \[0, "
                             r"Gamma\(1\+H\) sigma\^\(-1-H\)\]"):
        _ber_with_fixed_kernels(monkeypatch, 1.0 + 1e-4)


def test_ber_non_finite_kernel_raises_naming_it():
    # xi = 0.8, lambda = 10, N = M = 2 at -30 dB: the fixed-gain kernel's
    # Meijer-G overflows at H = 80, and the sum met inf - inf, which the
    # sweep's error state reported only as numpy's "invalid value
    # encountered in scalar add"
    p = dataclasses.replace(make_params(-30.0), xi=0.8, lam=10.0)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(ConvergenceError,
                           match=r"BER Laplace kernel is -inf at H=80, k=0, "
                                 r"shift=1 \(gamma_bar=0.001\)"):
            ber_closed_form(topo(2, 2, GainMode.FIXED), p)


def test_ber_within_a_millionfold_of_its_rounding_floor_raises():
    # N=8, M=3 in fixed gain: at 60 dB the sum passes, 1.5e-8 from the
    # quadrature; at 70 dB it reads 5.53e-8, less than 1e6 times its
    # rounding floor 1.14e-13; at 300 dB both modes cancel to 1e-15 or 0
    t = topo(8, 3, GainMode.FIXED)
    ber_closed_form(t, make_params(60.0))
    for t, db in ((t, 70.0), (topo(1, 1, GainMode.ADAPTIVE), 300.0),
                  (topo(1, 1, GainMode.FIXED), 300.0)):
        with pytest.raises(ConvergenceError,
                           match=r"closed-form error rate .* is less than "
                                 r"1e\+06 times its rounding floor"):
            ber_closed_form(t, make_params(db))


# -------------------------------------------------------- expansions

@pytest.mark.parametrize("t_power", [0, 1, 2, 3])
@pytest.mark.parametrize("gamma", [0.25, 1.0, 4.0])
def test_power_terms_reconstruct_cdf_power(t_power, gamma):
    # the (k1, n) terms ber_closed_form sums for F^t:
    # C(t,k1) F0^{t-k1} E_n^{(k1)} g^H, H = (n + k1 + zeta (t - k1)) / 2
    p = make_params(20.0)
    coeffs = series_coeffs(p, 40)
    total = 0.0
    for k1 in range(t_power + 1):
        for n, e_n in enumerate(series_power_coeffs(coeffs.e, k1)):
            h = (n + k1 + coeffs.xi_sq * (t_power - k1)) / 2.0
            total += (math.comb(t_power, k1) * coeffs.f0 ** (t_power - k1)
                      * e_n * gamma ** h)
    direct = ne_pe_snr_cdf(gamma, p) ** t_power
    assert total == pytest.approx(direct, rel=1e-10)


def test_expansion_term_exponents_and_signs():
    # (k, t, weight, shift) for N=2, M=2, in (k, t, u) order; both modes
    # fold the outer sign into the leading weight
    adaptive = list(_chain_terms(topo(2, 2, GainMode.ADAPTIVE)))
    assert adaptive == [(1, 0, -2.0, 1), (1, 1, 2.0, 1), (1, 1, -2.0, 2),
                        (2, 0, 1.0, 2), (2, 1, -1.0, 2), (2, 1, 1.0, 3)]
    fixed = list(_chain_terms(topo(2, 2, GainMode.FIXED)))
    assert fixed == [(0, 0, -2.0, 1), (0, 1, 2.0, 1), (0, 1, -2.0, 2),
                     (1, 0, 1.0, 2), (1, 1, -1.0, 2), (1, 1, 1.0, 3)]
    # outage vanishes as gamma_th -> 0, where F = 0 and T_k = 1: the
    # t = 0 weights sum to -1
    for n in (1, 3, 8):
        for mode in GainMode:
            weights = [w for _, t, w, _ in _chain_terms(topo(n, 3, mode))
                       if t == 0]
            assert math.fsum(weights) == pytest.approx(-1.0, abs=1e-12)


def _ber_bits(result):
    return (float(result.value).hex(), float(result.truncation).hex(),
            result.n_terms, result.converged)


def test_memo_shared_across_link_params_gives_fresh_values():
    # one memo through calls at different LinkParams: every call returns
    # the bits of a call without memo, and the parameters do change them
    base = make_params(20.0)
    variants = [base, dataclasses.replace(base, lam=2.0),
                dataclasses.replace(base, c_gain=2.0), base]
    # node arrays of one shape, each evenly spaced in ln gamma; the
    # oracle's t grids at the first and last have one node count too,
    # and differ in their left cut alone
    nodes = [np.exp(np.log(g0) + LOG_STEP * np.arange(4.0))
             for g0 in (5.0, 7.0, 5.0 + 2.0 ** -20)]
    memo = {}
    got = []
    for params in variants:
        for mode, n, m in itertools.product(GainMode, (1, 2, 4), (1, 2, 3)):
            t = topo(n, m, mode)
            curve = functools.partial(end_to_end_outage_semianalytic, t,
                                      params)
            # the fixed-gain oracle on its own, in the fixed-gain rows
            oracle = functools.partial(second_relay_cdf_fixed_numeric,
                                       n=n, params=params)
            gammas = [params.gamma_th, *nodes] if mode is GainMode.FIXED \
                else []
            row = (_ber_bits(ber_closed_form(t, params, memo=memo)),
                   ber_quadrature(functools.partial(curve, memo=memo)).hex(),
                   curve(memo=memo).hex(),
                   *(curve(g, memo=memo).tobytes() for g in nodes),
                   float(outage_closed_form(t, params, memo=memo)).hex(),
                   *(np.asarray(oracle(g, memo=memo)).tobytes()
                     for g in gammas))
            assert row == (_ber_bits(ber_closed_form(t, params)),
                           ber_quadrature(curve).hex(), curve().hex(),
                           *(curve(g).tobytes() for g in nodes),
                           float(outage_closed_form(t, params)).hex(),
                           *(np.asarray(oracle(g)).tobytes() for g in gammas))
            got.append(row)
    rows = len(got) // len(variants)
    first, lam2, gain2, again = (got[i:i + rows]
                                 for i in range(0, len(got), rows))
    assert again == first
    assert all(x != y for a, b in zip(first, lam2) for x, y in zip(a, b))
    # the relay constant acts on the fixed gain only
    half = rows // 2
    assert first[:half] == gain2[:half]
    assert all(x != y for a, b in zip(first[half:], gain2[half:])
               for x, y in zip(a, b))


def _outcome(call, *args):
    # (None, the value's bits), or the exception's class name and message
    try:
        return None, call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("gamma_db,mode,route", [
    (-100.0, GainMode.ADAPTIVE, "closed-form"),
    (3000.0, GainMode.FIXED, "quadrature"),
    (3000.0, GainMode.FIXED, "oracle"),
    (20.0, GainMode.FIXED, "outage-closed-form")])
def test_memo_keeps_floating_point_error_states_apart(gamma_db, mode,
                                                      route):
    # a part computed where numpy ignores overflow is not reused where
    # overflow raises: with one memo shared by user counts 1, 2 and 4,
    # every call gives what a call without memo does, FloatingPointError
    # where the route overflows.  At 3000 dB the oracle, alone or in the
    # quadrature route, fails its step check where overflow is ignored,
    # after it has stored its FSO CDF.
    # outage_closed_form runs on Python floats, so its values do not
    # depend on the error state
    params = make_params(gamma_db)

    def call(n, memo):
        t = topo(n, 2, mode)
        if route == "closed-form":
            return _ber_bits(ber_closed_form(t, params, memo=memo))
        if route == "outage-closed-form":
            return float(outage_closed_form(t, params, memo=memo)).hex()
        if route == "oracle":
            return float(second_relay_cdf_fixed_numeric(
                params.gamma_th, n, params, memo=memo)).hex()
        return float(end_to_end_outage_semianalytic(t, params,
                                                    memo=memo)).hex()

    # the exception class a call gives where overflow is ignored, and
    # where it raises (None for a value)
    ignored, raised = {"outage-closed-form": (None, None),
                       "closed-form": (None, "FloatingPointError")}.get(
                           route, ("ConvergenceError", "FloatingPointError"))
    memo = {}
    for state, want in (({"all": "ignore"}, ignored),
                        ({"over": "raise"}, raised)):
        with np.errstate(**state):
            for n in (1, 2, 4):
                fresh = _outcome(call, n, None)
                assert _outcome(call, n, memo) == fresh
                assert fresh[0] == want
