"""Series-form CDF tests.  Coefficient oracles are 40-digit mpmath
evaluations of the closed coefficient formulas and of the k-fold Cauchy
self-convolutions."""

import numpy as np
import pytest

from fsorf.channels import LinkParams, ne_pe_snr_cdf
from fsorf.series import ne_pe_snr_cdf_series, series_coeffs, series_power_coeffs

P = LinkParams(gamma_bar_rf=100.0, gamma_bar_fso=100.0, lam=1.0, a0=1.0, xi=1.45)


def test_leading_coefficient():
    sc = series_coeffs(P, 4)
    assert sc.f0 == pytest.approx(0.074824984487962466, rel=1e-13)
    assert sc.e.size == 5
    assert sc.xi_sq == pytest.approx(1.45 ** 2, rel=1e-15)


def test_prefix_stability():
    short = series_coeffs(P, 5)
    long = series_coeffs(P, 40)
    assert np.array_equal(short.e, long.e[:6])
    assert short.f0 == long.f0


def test_e_coefficients():
    e = series_coeffs(P, 6).e
    assert e[0] == pytest.approx(0.19070294784580499, rel=1e-13)
    assert e[1] == pytest.approx(-0.1025609756097561, rel=1e-13)
    assert e[2] == pytest.approx(-0.0003904363974001857, rel=1e-13)
    assert e[5] == pytest.approx(7.4923383935571235e-10, rel=1e-12)


def test_signs_alternate_from_n2():
    e = series_coeffs(P, 12).e
    assert e[0] > 0 and e[1] < 0
    for n in range(2, 12):
        assert np.sign(e[n]) == -np.sign(e[n + 1])


def test_power_coeffs_identity_and_squares():
    sc = series_coeffs(P, 5)
    e = sc.e
    p0 = series_power_coeffs(e, 0)
    assert p0.tolist() == [1.0]

    p1 = series_power_coeffs(e, 1)
    assert np.allclose(p1, e, rtol=1e-15)

    p2 = series_power_coeffs(e, 2)
    ref2 = [0.036367614317079818, -0.039117360765444389,
            0.010369838974163962, 8.1847958173243079e-5,
            -8.1763377878171375e-7, 9.0840899777728618e-9]
    assert np.allclose(p2, ref2, rtol=1e-10)

    p3 = series_power_coeffs(e, 3)
    ref3 = [0.0069354112563864233, -0.011189694014877119,
            0.005975274304126158, -0.0010324914110516001,
            -1.2781891118594795e-5, 1.0390157026011419e-7]
    assert np.allclose(p3, ref3, rtol=1e-10)


def test_power_coeffs_match_polynomial_squaring():
    # numerical cross-check: evaluate series and its square on a grid
    e = series_coeffs(P, 30).e
    p2 = series_power_coeffs(e, 2)
    for y in [0.2, 0.9]:
        s = np.sum(e * y ** (np.arange(e.size) + 1))
        s2 = np.sum(p2 * y ** (np.arange(p2.size) + 2))
        assert s2 == pytest.approx(s * s, rel=1e-9)


def test_series_zero():
    val, ok = ne_pe_snr_cdf_series(0.0, P)
    assert val == 0.0 and ok


def test_series_matches_cdf_where_converged():
    for g in [0.05, 0.5, 4.0, 25.0]:
        val, ok = ne_pe_snr_cdf_series(g, P)
        assert ok
        assert val == pytest.approx(ne_pe_snr_cdf(g, P), rel=1e-8)


def test_series_frozen_points():
    # 200-term extended-precision summation oracle
    val, ok = ne_pe_snr_cdf_series(0.5, P)
    assert ok and val == pytest.approx(0.11953675101528698, rel=1e-12)
    val, ok = ne_pe_snr_cdf_series(25.0, P)
    assert ok and val == pytest.approx(0.54952326483089751, rel=1e-12)


def test_series_flags_nonconvergence():
    # truncating hard at n_max = 3 leaves a visible tail
    val, ok = ne_pe_snr_cdf_series(25.0, P, n_max=3)
    assert not ok


def test_series_rejects_negative():
    with pytest.raises(ValueError):
        ne_pe_snr_cdf_series(-0.1, P)
    with pytest.raises(ValueError):
        series_coeffs(P, -1)
    with pytest.raises(ValueError):
        series_power_coeffs(np.array([1.0]), -2)
