"""Channel-law tests: closed forms against defining-integral oracles,
samplers against their target CDFs."""

import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.stats as st

from fsorf.channels import (
    LinkParams,
    db_to_linear,
    ne_pe_snr_cdf,
    rayleigh_snr_cdf,
    sample_fso_gain,
    sample_fso_snr,
    sample_rf_snr,
)
from fsorf.special import ConvergenceError

from reference_models import (
    ne_pe_joint_pdf,
    ne_pe_snr_pdf,
    rayleigh_snr_pdf,
    sample_fso_snr_displacement,
    snr_pdf_w,
)


def default_params(**kw):
    base = dict(gamma_bar_rf=100.0, gamma_bar_fso=100.0,
                lam=1.0, a0=1.0, xi=1.45)
    base.update(kw)
    return LinkParams(**base)


# -------------------------------------------------------------- validation

def test_params_reject_nonpositive():
    for name in ["gamma_bar_rf", "gamma_bar_fso", "lam", "a0", "xi",
                 "c_gain", "gamma_th"]:
        with pytest.raises(ValueError):
            default_params(**{name: 0.0})
        with pytest.raises(ValueError):
            default_params(**{name: -1.0})


def test_params_reject_a0_above_one():
    with pytest.raises(ValueError):
        default_params(a0=1.2)


@pytest.mark.parametrize("xi", [1.0, math.sqrt(2.0), math.sqrt(3.0),
                                math.sqrt(2.0 + 5e-7), 2.0, math.sqrt(5.0),
                                3.0])
def test_params_reject_degenerate_xi(xi):
    with pytest.raises(ValueError):
        default_params(xi=xi)


def test_derived_constants():
    p = default_params()
    z2 = 1.45 ** 2
    assert p.zeta == pytest.approx(z2, rel=1e-15)
    assert snr_pdf_w(p) == pytest.approx(z2 / (2.0 * 100.0 ** (z2 / 2)),
                                         rel=1e-13)
    assert p.c == pytest.approx(0.1, rel=1e-15)


def test_db_helpers_roundtrip():
    assert db_to_linear(10.0) == pytest.approx(10.0)


# ----------------------------------------------------------------- RF side

def test_rayleigh_cdf_values():
    assert rayleigh_snr_cdf(0.0, 10.0) == 0.0
    assert rayleigh_snr_cdf(1e9, 10.0) == pytest.approx(1.0, abs=1e-12)
    assert rayleigh_snr_cdf(10.0, 10.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-13)


def test_rayleigh_pdf_is_cdf_derivative():
    g = np.linspace(0.5, 40.0, 9)
    h = 1e-5
    num = (rayleigh_snr_cdf(g + h, 12.0) - rayleigh_snr_cdf(g - h, 12.0)) / (2 * h)
    assert np.allclose(num, rayleigh_snr_pdf(g, 12.0), rtol=1e-8)


def test_rf_sampler_moments_and_ks():
    rng = np.random.default_rng(1234)
    s = sample_rf_snr(25.0, rng, size=1_000_000)
    # mean of Exp(25) has sigma = 25/sqrt(n)
    assert abs(s.mean() - 25.0) < 3 * 25.0 / 1000.0
    res = st.kstest(s, lambda g: rayleigh_snr_cdf(g, 25.0))
    assert res.pvalue > 0.01


# ---------------------------------------------------------------- FSO laws

def test_joint_pdf_point_value():
    # 2-D quadrature of the defining product-density integral at h = 0.5
    p = default_params()
    assert ne_pe_joint_pdf(0.5, p) == pytest.approx(
        0.65620675270554758, rel=1e-12)


def test_joint_pdf_origin_limit():
    # Gamma(1-zeta, x) ~ x^{1-zeta}/(zeta-1) as x -> 0 cancels the
    # h^{zeta-1} factor, leaving the constant zeta lam / ((zeta-1) a0)
    p = default_params()
    expect = p.zeta * p.lam / ((p.zeta - 1.0) * p.a0)
    assert ne_pe_joint_pdf(1e-12, p) == pytest.approx(expect, rel=1e-9)


def test_joint_pdf_normalizes():
    p = default_params()
    val, err = si.quad(lambda h: ne_pe_joint_pdf(h, p), 0.0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_joint_pdf_normalizes_off_default_lambda():
    # the lam^zeta prefactor is what keeps this 1 for lam != 1
    for lam in [0.5, math.sqrt(2.0)]:
        p = default_params(lam=lam)
        val, _ = si.quad(lambda h: ne_pe_joint_pdf(h, p), 0.0, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_snr_pdf_point_value():
    # transform-of-joint oracle at gamma = 10
    p = default_params()
    assert ne_pe_snr_pdf(10.0, p) == pytest.approx(
        0.014339677047848671, rel=1e-12)


def test_snr_pdf_is_transform_of_joint():
    p = default_params()
    gbar = p.gamma_bar_fso
    for g in [0.3, 2.0, 50.0, 900.0]:
        h = math.sqrt(g / gbar)
        expect = ne_pe_joint_pdf(h, p) / (2.0 * math.sqrt(g * gbar))
        assert ne_pe_snr_pdf(g, p) == pytest.approx(expect, rel=1e-12)


def test_snr_pdf_normalizes():
    p = default_params()
    val, _ = si.quad(lambda g: ne_pe_snr_pdf(g, p), 0.0, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_snr_cdf_point_value():
    # quadrature of the SNR density from 0 to 10
    p = default_params()
    assert ne_pe_snr_cdf(10.0, p) == pytest.approx(
        0.40751255067331591, rel=1e-12)


def test_snr_cdf_edges():
    p = default_params()
    assert ne_pe_snr_cdf(0.0, p) == 0.0
    assert ne_pe_snr_cdf(1e4 * p.gamma_bar_fso, p) == pytest.approx(
        1.0, abs=1e-6)


def test_snr_cdf_is_one_from_x_40_without_overflow():
    # X = c sqrt(gamma) is 1e150 here and X^zeta alone overflows; from
    # X = 40 on e^{-X} is below half an ulp of 1, so F is exactly 1
    p = default_params(gamma_bar_fso=1e-300)
    x = np.array([0.0, 0.5, 40.0, 41.0, 1e3, 1e150])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        f = ne_pe_snr_cdf((x / p.c) ** 2, p)
        assert ne_pe_snr_cdf(10.0, p) == 1.0
    assert list(f[[0, 2, 3, 4, 5]]) == [0.0, 1.0, 1.0, 1.0, 1.0]
    assert f[1] == ne_pe_snr_cdf(float((0.5 / p.c) ** 2), p) < 1.0


@pytest.mark.parametrize("head,want", [
    (1e-9, None), (2.0 ** -52, 1.0),                  # above 1
    (-1.0 - 1e-9, None), (-1.0 - 2.0 ** -52, 0.0)])   # below 0
def test_snr_cdf_outside_unit_interval_raises(monkeypatch, head, want):
    # at X = 39, expm1(-X) rounds to -1, so F = X^zeta Gamma(1-zeta, X) + 1
    # = head + 1 with the patched Gamma; past its rounding floor of
    # 4 eps (|head| + 1) it raises, within one ulp it is clamped
    p = default_params()
    monkeypatch.setattr("fsorf.channels.gamma_upper",
                        lambda a, x: head / x ** (1.0 - a))
    gamma = (39.0 / p.c) ** 2
    if want is None:
        with pytest.raises(ConvergenceError, match="outside \\[0, 1\\]"):
            ne_pe_snr_cdf(gamma, p)
    else:
        assert ne_pe_snr_cdf(gamma, p) == want
        assert list(ne_pe_snr_cdf(np.array([0.0, gamma]), p)) == [0.0, want]


def test_snr_cdf_monotone_bounded():
    p = default_params(gamma_bar_fso=db_to_linear(18.0), lam=0.9)
    g = np.geomspace(1e-6, 1e7, 1000)
    f = ne_pe_snr_cdf(g, p)
    assert np.all(np.diff(f) >= -1e-15)
    assert np.all((f >= 0.0) & (f <= 1.0))


def test_snr_cdf_matches_pdf_derivative():
    p = default_params()
    for g in [0.5, 5.0, 80.0]:
        h = 1e-4 * g
        num = (ne_pe_snr_cdf(g + h, p) - ne_pe_snr_cdf(g - h, p)) / (2 * h)
        assert num == pytest.approx(ne_pe_snr_pdf(g, p), rel=1e-4)


def test_fso_sampler_support_and_ks():
    p = default_params(a0=0.8)
    rng = np.random.default_rng(99)
    u = rng.random(size=100000)
    h_p = p.a0 * u ** (1.0 / p.zeta)
    assert np.all(h_p <= p.a0)

    s = sample_fso_snr(p, rng, size=200_000)
    res = st.kstest(s, lambda g: ne_pe_snr_cdf(g, p))
    assert res.pvalue > 0.01


class _Exponentials:
    """Stands in for a Generator whose standard exponentials are given."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_exponential(self, size=None, out=None):
        return self.draws.pop(0)


def _pointing_gains(p, e):
    # with lam = 1 and a turbulence draw of ones, h_a = 1 exactly and the
    # composite gain is the pointing gain drawn from e
    assert p.lam == 1.0
    return sample_fso_gain(p, _Exponentials(np.ones_like(e), e),
                           size=e.size)


def test_pointing_gain_is_the_power_of_a_uniform():
    # a0 exp(-E / zeta) is a0 U^(1 / zeta) with U = exp(-E), up to the
    # rounding of the two routes: a few ulps, plus the exponent's rounding
    # error, which grows with |E / zeta|
    p = default_params(a0=0.8)
    e = np.concatenate([[0.0, 1e-300, 5e-324, 40.0],
                        np.random.default_rng(7).standard_exponential(100_000)])
    got = _pointing_gains(p, e)
    want = p.a0 * np.exp(-e) ** (1.0 / p.zeta)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= (4.0 + e / p.zeta) * eps * want)


def test_pointing_gain_law_ks():
    # P(h_p <= h) = (h / a0)^zeta on (0, a0]
    p = default_params(a0=0.8)
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [2026, 1], dtype=np.uint64)))
    h_p = _pointing_gains(p, rng.standard_exponential(200_000))
    assert np.all((h_p > 0.0) & (h_p <= p.a0))
    res = st.kstest(h_p, lambda h: (h / p.a0) ** p.zeta)
    assert res.pvalue > 0.01


def test_unit_mean_draws_scale_exactly():
    # a draw at mean SNR g is bit for bit g times the draw at mean 1, the
    # property the Monte-Carlo core's gamma-bar-free chain minimum rests on
    p = default_params(gamma_bar_fso=37.5)
    unit = default_params(gamma_bar_fso=1.0)
    assert np.array_equal(sample_fso_snr(p, np.random.default_rng(3), 1000),
                          37.5 * sample_fso_snr(unit,
                                                np.random.default_rng(3),
                                                1000))
    assert np.array_equal(sample_rf_snr(12.5, np.random.default_rng(4), 1000),
                          12.5 * sample_rf_snr(1.0, np.random.default_rng(4),
                                               1000))


def test_samplers_draw_into_out():
    # out receives the draws a new array would, from the same stream
    # position; an out of another shape than size is refused
    p = default_params(gamma_bar_fso=37.5)
    fso = np.empty((2, 1000))
    got = sample_fso_snr(p, np.random.default_rng(3), 1000, out=fso)
    assert np.shares_memory(got, fso[0])
    assert np.array_equal(fso[0],
                          sample_fso_snr(p, np.random.default_rng(3), 1000))
    rf = np.empty((3, 1000))
    assert sample_rf_snr(12.5, np.random.default_rng(4), (3, 1000),
                         out=rf) is rf
    assert np.array_equal(rf, sample_rf_snr(12.5, np.random.default_rng(4),
                                            (3, 1000)))
    with pytest.raises(ValueError, match="size"):
        sample_rf_snr(1.0, np.random.default_rng(4), 999, out=rf[0])
    with pytest.raises(ValueError, match="size"):
        sample_fso_snr(p, np.random.default_rng(3), 999, out=fso)


def test_displacement_sampler_same_law():
    """The geometric construction must reproduce the sampler's law."""
    p = default_params(a0=0.9)
    rng = np.random.default_rng(31)
    s = sample_fso_snr_displacement(p, beam_width=2.0, rng=rng, size=200_000)
    res = st.kstest(s, lambda g: ne_pe_snr_cdf(g, p))
    assert res.pvalue > 0.01


def test_input_validation():
    p = default_params()
    with pytest.raises(ValueError):
        ne_pe_snr_cdf(-1.0, p)
    with pytest.raises(ValueError):
        ne_pe_snr_pdf(0.0, p)
    with pytest.raises(ValueError):
        ne_pe_joint_pdf(-0.5, p)
    with pytest.raises(ValueError):
        rayleigh_snr_cdf(1.0, 0.0)
