"""Closed-form outage and error-rate metrics against independent paths.

Frozen reference values come from a 40-digit multiprecision
reimplementation of the same multi-sums, cross-checked there against
direct quadrature of the outage integral to ~1e-30.  The double
precision package must land on them within the tolerance of its own
Meijer-G evaluation (the fixed-gain rows go through perturbed-parameter
evaluation, which costs a few digits).  Cross-checks here pit the
closed forms against the semianalytic composition layer and against
adaptive quadrature of the outage curve; those paths share no code
beyond the special-function core.
"""

import dataclasses
import math

import pytest

from fsorf.channels import LinkParams, db_to_linear, ne_pe_snr_cdf
from fsorf.composition import (
    GainMode,
    Topology,
    end_to_end_outage_semianalytic,
    second_relay_cdf_adaptive,
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
from fsorf.special import ConvergenceError

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


@pytest.mark.parametrize("n,m,gdb", [(2, 2, 10.0), (4, 3, 25.0), (1, 1, 0.0)])
def test_outage_adaptive_matches_composition(n, m, gdb):
    t = topo(n, m, GainMode.ADAPTIVE)
    p = make_params(gdb)
    closed = outage_closed_form(t, p)
    semi = end_to_end_outage_semianalytic(t, p)
    assert closed == pytest.approx(semi, rel=1e-8)


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
    assert adaptive == pytest.approx(
        second_relay_cdf_adaptive(p.gamma_th, 3, p), rel=1e-12)
    fixed = outage_closed_form(topo(3, 1, GainMode.FIXED), p)
    assert fixed == pytest.approx(
        second_relay_cdf_fixed_numeric(p.gamma_th, 3, p), rel=1e-9)


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


# -------------------------------------------------------- quadrature

def test_ber_quadrature_constant_curve():
    assert ber_quadrature(lambda g: 1.0) == pytest.approx(0.5, abs=1e-10)


def test_ber_quadrature_rayleigh_anchor():
    # single Rayleigh branch: (1/2) / (1 + gbar) exactly
    gbar = 10.0
    value = ber_quadrature(lambda g: -math.expm1(-g / gbar))
    assert value == pytest.approx(1.0 / 22.0, rel=1e-9)


def test_ber_quadrature_best_of_two_anchor():
    gbar = 10.0
    value = ber_quadrature(lambda g: (-math.expm1(-g / gbar)) ** 2)
    exact = 0.5 * (1.0 - 2.0 * gbar / (gbar + 1.0) + gbar / (gbar + 2.0))
    assert value == pytest.approx(exact, rel=1e-9)


def _outage_curve(t, p):
    def curve(gamma):
        return outage_closed_form(
            t, dataclasses.replace(p, gamma_th=max(gamma, 1e-300)))
    return curve


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
        for n, e_n in enumerate(series_power_coeffs(coeffs, k1)):
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
