"""Unit tests for the special-function layer.

Frozen reference values come from 40-digit mpmath evaluation, except where
a value has a closed elementary form or is pinned by the independent
contour-integration oracle of meijer_contour.py (noted inline).
"""

import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from fsorf import special
from fsorf.experiments import run_experiment, spec_from_sources
from fsorf.special import (
    ConvergenceError,
    MeijerParams,
    PoleCollisionError,
    _lgamma_sign,
    gamma_fn,
    gamma_upper,
    hyp_pfq,
    meijer_g,
)

from meijer_contour import meijer_g_contour
import reference_loops

XI = 1.45
Z2 = XI * XI


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- gamma_fn

def test_gamma_one():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-15)


def test_gamma_half_is_sqrt_pi():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_generic_point():
    # mpmath: gamma(2.1025)
    assert rel(gamma_fn(2.1025), 1.04775834654028) < 1e-13


def test_gamma_reflection_negative_argument():
    x = -0.45
    lhs = gamma_fn(x) * gamma_fn(1.0 - x)
    assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -7.0, 1e-320, -3.0 + 1e-11])
def test_gamma_pole_rejected(x):
    # the guard answers within 1e-9 of a pole, before math.gamma
    # overflows (1e-320) or returns a huge finite value (-3 + 1e-11)
    with pytest.raises(ValueError, match="pole"):
        gamma_fn(x)


def test_gamma_overflow_is_a_floating_point_error():
    # math.gamma raises OverflowError past x = 171.6; gamma_fn reports it
    # the way numpy reports an overflowing array operation
    assert gamma_fn(171.5) == pytest.approx(9.483367566824795e307, rel=1e-13)
    with pytest.raises(FloatingPointError, match="overflow encountered in gamma"):
        gamma_fn(172.5)


def test_lgamma_sign_matches_gamma():
    for x in np.linspace(-7.9, 5.0, 1000):
        if abs(x - round(x)) < 1e-6:
            continue
        log_abs, sign = _lgamma_sign(float(x))
        g = math.gamma(float(x))
        assert sign == math.copysign(1.0, g)
        assert math.exp(log_abs) == pytest.approx(abs(g), rel=1e-13)


# ------------------------------------------------------------- gamma_upper

def test_gamma_upper_a_one_is_exp():
    for x in [0.01, 0.3, 1.0, 4.0, 17.5]:
        assert gamma_upper(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)


def test_gamma_upper_half_one():
    # mpmath: gammainc(0.5, 1, inf)
    assert rel(gamma_upper(0.5, 1.0), 0.27880558528066198) < 1e-13


def test_gamma_upper_negative_a():
    # mpmath: gammainc(-0.1025, 1, inf) and gammainc(-2.7, 0.8, inf)
    assert rel(gamma_upper(-0.1025, 1.0), 0.20971746970175728) < 1e-12
    assert rel(gamma_upper(-2.7, 0.8), 0.21848203612201506) < 1e-12


def test_gamma_upper_recurrence_identity():
    # Gamma(a+1,x) = a Gamma(a,x) + x^a e^{-x}; the x grid straddles the
    # internal switch from downward recurrence to continued fraction at
    # x = 4, so the identity also ties the two branches together
    for a in [-2.3, -0.7, 0.6]:
        for x in [0.05, 1.0, 3.5, 3.99, 4.01, 12.0]:
            lhs = gamma_upper(a + 1.0, x)
            rhs = a * gamma_upper(a, x) + x**a * math.exp(-x)
            assert lhs == pytest.approx(rhs, rel=1e-11)


def test_gamma_upper_vectorized():
    xs = np.array([0.5, 3.0, 5.0, 19.5])
    out = gamma_upper(-2.7, xs)
    assert out.shape == xs.shape
    for x, v in zip(xs, out):
        assert v == pytest.approx(gamma_upper(-2.7, float(x)), rel=1e-13)


def test_gamma_upper_continued_fraction_converges_at_huge_x():
    # past x ~ 1e16 the Lentz ratio settles one ulp off 1.0 and never on
    # it, so the stop test has to accept that; the value underflows to 0
    xs = np.array([9005713731203060.0, 2.3797363016302988e16, 1e20])
    for a in (-1.1025, -5.25):
        assert np.all(gamma_upper(a, xs) == 0.0)


# every non-integer a on (-5, 6) in steps of 0.2, small |a| and the orders
# the presets reach; x across the series, recurrence and continued-fraction
# branches
_GRID_A = sorted({round(v, 10) for v in np.arange(-4.9, 6.0, 0.2)}
                 | {1e-3, -1e-3, 0.05, 0.19, -0.19, 0.36, -1.1025})
_GRID_X = np.geomspace(1e-6, 600.0, 80)


def test_gamma_upper_against_mpmath_grid():
    """Worst relative error against 40-digit mpmath, per band of a.

    For small a > 0 the series loses about 1/(a E1(x)) to its
    subtraction, and for a < 0 the last downward step divides by a (the
    worst point is a = -1e-3, at 1.0e-11).  A float gives the bits of
    an array (test_gamma_upper_one_value_takes_the_array_path), so the
    array call is the one checked.
    """
    worst = {}
    with mpmath.workdps(40):
        for a in _GRID_A:
            ref = np.array([float(mpmath.gammainc(a, float(x)))
                            for x in _GRID_X])
            worst[a] = np.max(np.abs(gamma_upper(a, _GRID_X) / ref - 1.0))
    for lo, hi, bound in [(0.05, math.inf, 1e-13), (0.0, 0.05, 1e-12),
                          (-math.inf, 0.0, 3e-11)]:
        band = {a: e for a, e in worst.items() if lo <= a < hi}
        a = max(band, key=band.get)
        assert band[a] <= bound, f"a in [{lo}, {hi}): {band[a]:.3g} at a={a}"


def test_gamma_upper_one_value_takes_the_array_path():
    # a one-element array gives the bits of the same x in a longer array,
    # whose series sums more terms, across the series, recurrence and
    # continued-fraction branches, with a <= 0 included.  A float and a
    # 0-d array, which become one-element arrays inside, give them too
    # as a float, checked at every fourth x
    xs = np.geomspace(1e-6, 600.0, 60)
    for a in np.linspace(-4.9, 5.9, 304):
        a = float(a)
        want = gamma_upper(a, xs)
        for i, x in enumerate(xs):
            one = gamma_upper(a, xs[i:i + 1])
            assert one.shape == (1,) and one[0] == want[i], (a, x)
            if i % 4 == 0:
                for arg in (float(x), np.array(x)):
                    got = gamma_upper(a, arg)
                    assert type(got) is float and got == want[i], (a, arg)


def test_gamma_upper_rejects_bad_input():
    with pytest.raises(ValueError):
        gamma_upper(-2.0, 1.0)        # non-positive integer a
    with pytest.raises(ValueError):
        gamma_upper(-0.5, 0.0)        # divergent at x = 0 for a <= 0
    with pytest.raises(ValueError):
        gamma_upper(0.5, -1.0)


# ----------------------------------------------------------------- hyp_pfq

def test_hyp_zero_upper_is_one():
    for z in [-50.0, 0.0, 0.3, 1e6]:
        val, ok = hyp_pfq([0.0, 2.5], [1.3], z)
        assert val == 1.0 and ok


def test_hyp_exponential_identity():
    val, ok = hyp_pfq([1.0], [1.0], 0.7)
    assert ok
    assert rel(val, 2.0137527074704765) < 1e-14


def test_hyp_2f2_point():
    # mpmath: hyper([2, -0.1025], [0.8975, 3], -1.5)
    val, ok = hyp_pfq([2.0, -0.1025], [0.8975, 3.0], -1.5)
    assert ok
    assert rel(val, 1.0902504651856249) < 1e-13


def test_hyp_divergent_series_flagged():
    # 2F0 has zero radius of convergence
    val, ok = hyp_pfq([1.0, 1.0], [], 1.0)
    assert not ok


def test_hyp_term_cap_flags_a_slow_series():
    # the geometric series 1F0(1;;z) converges at 0.999, but too slowly
    # for the term cap: 500 terms past the first, then converged=False
    val, ok = hyp_pfq([1.0], [], 0.999)
    assert not ok
    assert val == pytest.approx((1.0 - 0.999 ** 501) / 0.001, rel=1e-12)
    assert val == pytest.approx(394.2274340836764, rel=1e-12)


def test_hyp_terminating_before_lower_pole():
    # upper -2 terminates at n = 2, before b = -5 poles at n = 5;
    # terms: 1, (-2)(1)/(-5), (-2)(-1)(1)(2)/((-5)(-4) 2!)
    val, ok = hyp_pfq([-2.0, 1.0], [-5.0], 1.0)
    assert ok
    assert val == pytest.approx(1.0 + 2.0 / 5.0 + 1.0 / 10.0, rel=1e-14)


def test_hyp_lower_pole_rejected():
    with pytest.raises(ValueError):
        hyp_pfq([0.5], [-2.0], 0.3)


def _hyp_bits(f, a_params, b_params, z):
    try:
        val, ok = f(a_params, b_params, z)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    return val.hex(), ok


def test_hyp_replays_preset_traffic_bit_for_bit(monkeypatch):
    # every series that meijer_g sums in a closed-form fig3 BER sweep,
    # against the plain reference loop: the same value bits and the same
    # flag; the poles with a zero upper parameter sum no series
    calls = []
    hyp_sum = special._hyp_sum

    def recording(row, z):
        got = hyp_sum(row, z)
        calls.append(((row.a, row.b, z), (got[0].hex(), got[1])))
        return got

    monkeypatch.setattr(special, "_hyp_sum", recording)
    run_experiment(spec_from_sources(overrides={
        "preset": "fig3", "methods": "closed-form",
        "gamma_avg_db": "0:10:40"}))
    assert len(calls) == 6154
    for call, got in calls:
        assert got == _hyp_bits(reference_loops.hyp_pfq, *call), call


def test_hyp_seeded_rows_bit_for_bit():
    cases = [
        ([-2.0, 1.0], [-5.0], 1.0),         # terminating before a pole
        ([-6.0, 0.3], [1.7], -3.0),         # terminating, exact polynomial
        ([0.5], [-2.0], 0.3),               # lower pole: ValueError
        ([1.0, 1.0], [], 1e300),            # total overflows: inf, False
        ([1.0], [], 0.999),                 # 500-term cap: converged=False
        ([0.0, 2.5], [1.3], 4.0),           # zero upper parameter: 1.0
        ([1.0], [], 1e-320),                # subnormal terms
    ]
    rng = np.random.default_rng(1919)
    for _ in range(2000):
        a_params = list(rng.uniform(-6.0, 6.0, rng.integers(0, 7)))
        b_params = list(rng.uniform(-6.0, 6.0, rng.integers(0, 7)))
        if a_params and rng.random() < 0.15:
            a_params[0] = -float(rng.integers(0, 9))
        if b_params and rng.random() < 0.1:
            b_params[0] = -float(rng.integers(0, 9))
        cases.append((a_params, b_params, float(rng.uniform(-50.0, 50.0))))
    seen = set()
    for case in cases:
        got = _hyp_bits(hyp_pfq, *case)
        assert got == _hyp_bits(reference_loops.hyp_pfq, *case), case
        seen.add(got[1] if isinstance(got[1], bool) else got[0])
    assert {True, False, "ValueError"} <= seen
    assert _hyp_bits(hyp_pfq, [1.0, 1.0], [], 1e300) == \
        (float("inf").hex(), False)


def test_hyp_equal_nonpositive_integer_pair_matches_reference():
    # with a = b = -3 the series would stop at the lower pole's own
    # term, 0 / 0; the row is a pole like any the series reaches, so the
    # z-free set-up raises the documented ValueError before any term, and
    # the reference, which shares _hyp_row, does the same
    case = ([-3.0, 0.5], [-3.0], 0.5)
    want = ("ValueError",
            "hyp_pfq lower parameter -3.0 is a non-positive integer pole")
    assert _hyp_bits(hyp_pfq, *case) == want
    assert _hyp_bits(reference_loops.hyp_pfq, *case) == want


# ---------------------------------------------------------------- meijer_g

def test_meijer_exponential_identity():
    p = MeijerParams(m=1, n=0, a=(), b=(0.0,))
    assert rel(meijer_g(p, 2.0), 0.13533528323661269) < 1e-13


def test_meijer_incomplete_gamma_identity():
    # G^{2,0}_{1,2}(x | 1; a, 0) = Gamma(a, x)
    p = MeijerParams(m=2, n=0, a=(1.0,), b=(0.5, 0.0))
    for x in [0.2, 1.0, 5.0]:
        assert meijer_g(p, x) == pytest.approx(gamma_upper(0.5, x), rel=1e-12)


def test_meijer_mixed_row_instance():
    # value pinned by the contour path; mpmath's hypercomb fails on this
    # parameter row, the two in-house paths agree to 4e-15
    p = MeijerParams(m=2, n=1, a=(1 - Z2, 1.0), b=(0.0, 2 - Z2, -Z2))
    ref = 0.6703521035551713
    assert rel(meijer_g(p, 0.3), ref) < 1e-10
    assert rel(meijer_g_contour(p, 0.3), ref) < 1e-12


def test_meijer_snr_cdf_row_matches_direct_form():
    # zeta * G^{2,1}_{2,3}(X | 1, 1+zeta; 1, zeta, 0) equals
    # X^zeta Gamma(1-zeta, X) + 1 - e^{-X}
    p = MeijerParams(m=2, n=1, a=(1.0, 1.0 + Z2), b=(1.0, Z2, 0.0))
    for X in [0.05, 0.3, 1.2, 4.0]:
        direct = X**Z2 * gamma_upper(1 - Z2, X) + 1.0 - math.exp(-X)
        assert Z2 * meijer_g(p, X) == pytest.approx(direct, rel=1e-10)


def test_meijer_flip_class():
    # p > q triggers the z -> 1/z reflection internally
    p = MeijerParams(m=1, n=2, a=(0.0, 1 - Z2, 1.0), b=(0.0, -Z2))
    ref = 0.20108587954266767   # mpmath at z = 3
    assert rel(meijer_g(p, 3.0), ref) < 1e-10
    assert rel(meijer_g_contour(p, 3.0), ref) < 1e-10


def test_meijer_log_case_classes():
    """Doubled b-parameters take the perturb-and-extrapolate path."""
    phi1 = (1 - Z2 / 2, (1 - Z2) / 2, 0.5, 1.0)
    phi2 = ((1 - Z2) / 2, 1 - Z2 / 2, 1 - Z2 / 2, 0.0, 0.5,
            (1 - Z2) / 2, -Z2 / 2)
    p52 = MeijerParams(m=5, n=2, a=phi1, b=phi2)
    assert rel(meijer_g(p52, 0.05), 23.558164752956471) < 1e-8
    assert rel(meijer_g(p52, 0.8), 1.977670414675407) < 1e-8
    assert rel(meijer_g_contour(p52, 0.05), 23.558164752956471) < 1e-12

    p53 = MeijerParams(m=5, n=3, a=(-1.7 - Z2 / 2,) + phi1, b=phi2)
    assert rel(meijer_g(p53, 0.3), 8.3569711922489979) < 1e-8
    assert rel(meijer_g_contour(p53, 0.3), 8.3569711922489979) < 1e-12


def test_meijer_ber_kernel_class():
    # G^{4,3}_{5,6} instance from the error-rate kernel, H = 1.7
    H = 1.7
    a = (-H, 1.0, 0.5, (1 + Z2) / 2, 1 + Z2 / 2)
    b = (0.5, 1.0, Z2 / 2, (Z2 + 1) / 2, 0.5, 0.0)
    p = MeijerParams(m=4, n=3, a=a, b=b)
    ref = 1.2997616992601209
    assert rel(meijer_g(p, 0.02), ref) < 1e-8
    assert rel(meijer_g_contour(p, 0.02), ref) < 1e-10


def test_meijer_pole_collision_rejected():
    # a_1 - b_1 = 2, a positive integer: the defining contour is pinched
    with pytest.raises(PoleCollisionError):
        MeijerParams(m=1, n=1, a=(2.3,), b=(0.3,))


def test_meijer_zero_difference_allowed():
    # a_j - b_k = 0 is fine (needed by the SNR CDF row)
    MeijerParams(m=1, n=1, a=(0.3,), b=(0.3,))


def test_meijer_order_validation():
    with pytest.raises(ValueError):
        MeijerParams(m=3, n=0, a=(), b=(0.0, 0.5))    # m > q
    with pytest.raises(ValueError):
        MeijerParams(m=1, n=2, a=(0.5,), b=(0.0,))    # n > p
    with pytest.raises(ValueError):
        MeijerParams(m=1, n=0, a=(float("nan"),), b=(0.0,))


def test_meijer_argument_validation():
    p = MeijerParams(m=1, n=0, a=(), b=(0.0,))
    for z in [0.0, -1.0, float("inf"), float("nan")]:
        with pytest.raises(ValueError):
            meijer_g(p, z)


def test_contour_raises_when_poles_crowd_the_step():
    # the poles at s = 0 and s = -0.01 sit 0.005 off the contour, well
    # inside one step of the rule: the step-halving check must refuse
    p = MeijerParams(m=1, n=1, a=(0.99,), b=(0.0,))
    with pytest.raises(ConvergenceError, match="step-halving"):
        meijer_g_contour(p, 0.5)


def test_contour_matches_slater_simple_classes():
    p = MeijerParams(m=2, n=1, a=(1.0, 1.0 + Z2), b=(1.0, Z2, 0.0))
    for X in [0.1, 0.9, 2.5]:
        assert meijer_g_contour(p, X) == pytest.approx(
            meijer_g(p, X), rel=1e-9)


# ------------------------------------------------------------ plan caches

_PLAN_CACHES = (special._hyp_row, special._row_plan)


@pytest.fixture
def cold_plans():
    """Empty every plan cache before and after the test."""
    def clear():
        for cache in _PLAN_CACHES:
            cache.cache_clear()

    clear()
    yield clear
    clear()


def _gate1_rows():
    # the six row classes of gate 1, with arguments inside each grid
    phi1 = (1 - Z2 / 2, (1 - Z2) / 2, 0.5, 1.0)
    phi2 = ((1 - Z2) / 2, 1 - Z2 / 2, 1 - Z2 / 2, 0.0, 0.5,
            (1 - Z2) / 2, -Z2 / 2)
    return [
        (dict(m=2, n=0, a=(1.0,), b=(0.5, 0.0)), (0.01, 0.4, 8.0)),
        (dict(m=2, n=1, a=(1.0, 1.0 + Z2), b=(1.0, Z2, 0.0)),
         (1e-3, 0.3, 10.0)),
        (dict(m=1, n=2, a=(0.0, 1 - Z2, 1.0), b=(0.0, -Z2)),
         (1.5, 3.0, 60.0)),
        (dict(m=4, n=3, a=(-1.7, 1.0, 0.5, (1 + Z2) / 2, 1 + Z2 / 2),
              b=(0.5, 1.0, Z2 / 2, (Z2 + 1) / 2, 0.5, 0.0)),
         (1e-5, 0.02, 0.5)),
        (dict(m=5, n=2, a=phi1, b=phi2), (1e-3, 0.05, 1.0)),
        (dict(m=5, n=3, a=(-1.7 - Z2 / 2,) + phi1, b=phi2), (1e-4, 0.3, 1.0)),
    ]


def test_meijer_plans_change_no_bit(cold_plans):
    # a value from a fresh set-up, and again from the cached plan through
    # an equal row object, are the same float
    for fields, zs in _gate1_rows():
        for z in zs:
            cold_plans()
            fresh = meijer_g(MeijerParams(**fields), z)
            cached = meijer_g(MeijerParams(**fields), z)
            assert fresh.hex() == cached.hex(), (fields, z)
    assert special._row_plan.cache_info().hits > 0


def test_rows_one_ulp_apart_get_their_own_plans(cold_plans):
    row = dict(m=2, n=1, a=(1.0, 1.0 + Z2), b=(1.0, Z2, 0.0))
    near = dict(row, b=(1.0, math.nextafter(Z2, 2.0), 0.0))
    meijer_g(MeijerParams(**row), 0.3)
    plans = special._row_plan.cache_info().currsize
    scans = special._hyp_row.cache_info().currsize
    meijer_g(MeijerParams(**near), 0.3)
    assert special._row_plan.cache_info().currsize == plans + 1
    assert special._hyp_row.cache_info().currsize > scans
    (_, poles), = special._row_plan(MeijerParams(**near))
    assert [pole[1] for pole in poles] == [1.0, math.nextafter(Z2, 2.0)]
    # a zero parameter is stored as 0.0 whatever its sign, so rows that
    # compare equal hold the same floats
    assert MeijerParams(m=1, n=1, a=(-0.0,), b=(0.5,)).a[0].hex() == "0x0.0p+0"


def test_failed_set_up_raises_on_every_call(cold_plans):
    # Gamma(1e307) in the prefactor overflows; the plan keeps no exception
    row = MeijerParams(m=1, n=0, a=(), b=(0.0, -1e307))
    for _ in range(3):
        with pytest.raises(OverflowError):
            meijer_g(row, 0.5)
    for _ in range(3):
        with pytest.raises(ValueError, match="non-positive integer pole"):
            hyp_pfq([0.5], [-2.0], 0.3)


def test_failing_set_up_raises_before_any_series(cold_plans, monkeypatch):
    # G^{2,0}_{1,2}(z | 1; 1/2, 0): pole b[0] = 1/2 has denominator
    # Gamma(1/2), pole b[1] = 0 has Gamma(1); make the second one fail
    # and record the series sums, which go through the module name
    lgamma_sign = special._lgamma_sign

    def failing_at_one(x):
        if x == 1.0:
            raise ValueError("math domain error")
        return lgamma_sign(x)

    calls = []

    def recording(row, z):
        calls.append(row.b)
        return hyp_sum(row, z)

    hyp_sum = special._hyp_sum
    monkeypatch.setattr(special, "_lgamma_sign", failing_at_one)
    monkeypatch.setattr(special, "_hyp_sum", recording)
    row = MeijerParams(m=2, n=0, a=(1.0,), b=(0.5, 0.0))
    for _ in range(2):
        with pytest.raises(ValueError, match="math domain error"):
            meijer_g(row, 0.4)
        assert calls == []
    assert special._row_plan.cache_info().currsize == 0


def _table_traffic():
    # Meijer-G rows of gate 1 and series rows whose ratio tables grow
    # more than once, with arguments in rising order so that later
    # calls extend the tables earlier calls left
    calls = [(meijer_g, MeijerParams(**fields), z)
             for fields, zs in _gate1_rows() for z in zs]
    for z in (0.5, 0.9, 0.99, 0.999):
        calls.append((hyp_pfq, ([1.0], []), z))
    for z in (-3.0, -20.0, -45.0):
        calls.append((hyp_pfq, ([2.0, -0.1025], [0.8975, 3.0]), z))
        calls.append((hyp_pfq, ([0.5], [1.5, 2.5]), z))
    return calls


def _run_traffic(calls):
    out = []
    for f, args, z in calls:
        got = f(args, z) if f is meijer_g else f(*args, z)
        out.append(got.hex() if f is meijer_g else (got[0].hex(), got[1]))
    return out


def test_ratio_tables_grown_by_threads_keep_serial_bits(cold_plans):
    # four threads, more than the cores of a small machine, switching
    # often, run the same traffic from cold caches: they set up the
    # Meijer-G plans together, and grow the tables of the series rows,
    # whose plans are made first so that every thread grows the same
    # tables.  The traffic opens with 100 rows that each grow to the term
    # cap, while the threads still run abreast and their growths can
    # overlap.  Whether they do is up to the scheduler, so the end of the
    # test checks the rebinding that makes an overlap harmless
    calls = [(hyp_pfq, ([1.0 + 1e-3 * i, 0.5], [1.5]), 0.999)
             for i in range(100)] + _table_traffic()
    serial = _run_traffic(calls)
    cold_plans()
    for f, args, _ in calls:
        if f is hyp_pfq:
            special._hyp_row(*(tuple(map(float, row)) for row in args))
    start = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def worker(i):
        start.wait()
        results[i] = _run_traffic(calls)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4
    # the tables the threads grew hold the entries a fresh set-up forms;
    # a growth binds a new table and leaves the one a reader holds as it
    # was, so no reader sees a table half grown
    rows = [((1.0,), ()), ((2.0, -0.1025), (0.8975, 3.0)),
            ((0.5,), (1.5, 2.5))]
    grown = [special._hyp_row(*row).ratios for row in rows]
    cold_plans()
    for row, table in zip(rows, grown):
        plan = special._hyp_row(*row)
        held = plan.extend(0)
        fresh = plan.extend(len(table) - 1)
        assert fresh[:len(table)] == table
        assert len(held) == 16 and held == fresh[:16]


def test_warm_calls_equal_cold_calls_bit_for_bit(cold_plans):
    # a call on tables that other arguments grew, and the same call on a
    # fresh set-up, give the same float; the order of growth is no input
    calls = _table_traffic()
    warm = _run_traffic(calls)
    warm_again = _run_traffic(calls[::-1])[::-1]
    cold = []
    for call in calls:
        cold_plans()
        cold += _run_traffic([call])
    assert warm == cold
    assert warm_again == cold


def test_ratio_table_never_grows_past_the_term_cap(cold_plans):
    cap = special._HYP_MAX_TERMS
    val, ok = hyp_pfq([1.0], [], 0.999)     # geometric: the cap stops it
    assert not ok
    assert len(special._hyp_row((1.0,), ()).ratios) == cap
    # a polynomial longer than the cap is a series like any other: its
    # terms C(1000, n) grow past n = 500, so the cap flags it
    val, ok = hyp_pfq([-1000.0], [], -1.0)
    assert not ok
    assert len(special._hyp_row((-1000.0,), ()).ratios) == cap
    # a terminating row keeps no ratio past its stop, so its lower pole
    # at term 6 (b = -5) is never divided by
    val, ok = hyp_pfq([-2.0, 1.0], [-5.0], 1.0)
    assert ok
    assert len(special._hyp_row((-2.0, 1.0), (-5.0,)).ratios) == 3


def test_lower_pole_raises_from_set_up_on_every_call(cold_plans,
                                                     monkeypatch):
    sums = []
    hyp_sum = special._hyp_sum
    monkeypatch.setattr(special, "_hyp_sum",
                        lambda row, z: sums.append(row) or hyp_sum(row, z))
    for _ in range(3):
        with pytest.raises(ValueError) as excinfo:
            hyp_pfq([0.5], [-2.0], 0.3)
        assert str(excinfo.value) == (
            "hyp_pfq lower parameter -2.0 is a non-positive integer pole")
    assert sums == []
    assert special._hyp_row.cache_info().currsize == 0


def test_log_case_row_plans_its_two_perturbed_rows_once(cold_plans,
                                                        monkeypatch):
    # the fixed-gain kernel row repeats b = 1 - zeta/2 among its first m:
    # a logarithmic case, summed at the rows spread by eps and 2 eps
    fields, _ = _gate1_rows()[4]
    slater_plan = special._slater_plan
    built = []

    def recording(params):
        built.append(params.b)
        return slater_plan(params)

    monkeypatch.setattr(special, "_slater_plan", recording)
    first = meijer_g(MeijerParams(**fields), 0.05)
    assert [b[1:3] for b in built] == [
        (1 - Z2 / 2 - eps, 1 - Z2 / 2 + eps)
        for eps in (special._LOG_EPS, 2.0 * special._LOG_EPS)]
    sizes = [cache.cache_info().currsize for cache in _PLAN_CACHES]
    assert sizes[1] == 1
    assert meijer_g(MeijerParams(**fields), 0.05) == first
    meijer_g(MeijerParams(**fields), 0.2)
    assert len(built) == 2
    assert [cache.cache_info().currsize for cache in _PLAN_CACHES] == sizes


def test_preset_sweep_fits_the_plan_caches(cold_plans):
    # every Meijer-G row and hypergeometric row of a closed-form fig3
    # sweep stays cached: preset traffic evicts nothing
    run_experiment(spec_from_sources(overrides={
        "preset": "fig3", "methods": "closed-form"}))
    rows = special._row_plan.cache_info()
    scans = special._hyp_row.cache_info()
    assert (rows.currsize, scans.currsize) == (100, 550)
    assert rows.currsize < special._ROW_PLANS
    assert scans.currsize < special._HYP_PLANS


def test_hyp_accepts_any_sequence():
    ref = hyp_pfq((2.0, -0.1025), (0.8975, 3.0), -1.5)
    assert hyp_pfq([2.0, -0.1025], [0.8975, 3.0], -1.5) == ref
    assert hyp_pfq(np.array([2.0, -0.1025]), np.array([0.8975, 3.0]),
                   np.float64(-1.5)) == ref
    assert hyp_pfq([1, 2], [3], 0.5) == hyp_pfq([1.0, 2.0], [3.0], 0.5)
