"""Special functions for the relay-chain metric formulas.

The closed-form outage and BER expressions in this package reduce to a small
zoo of special functions: the gamma function, the upper incomplete gamma
function continued to negative first argument, generalized hypergeometric
series, and the Meijer G-function evaluated at positive real argument with
real parameter rows.

``meijer_g`` sums the Slater residue expansion (DLMF 16.17.2), a finite
sum of generalized hypergeometric series, one per pole ladder of the
integrand's numerator gammas.  When two ladder offsets differ by an
integer the expansion degenerates (a logarithmic case); the evaluator then
perturbs the coinciding parameters by +/- eps and Richardson extrapolates,
which keeps the public surface free of special casing.  It is the one
Meijer-G path in the package; the tests check it against an independent
Mellin-Barnes contour integral and against mpmath.

Everything about a parameter row that does not depend on the argument z
is prepared once per row and kept in one bounded ``functools.lru_cache``
of 512 row plans keyed on the row's floats: the log-case decision and
its perturbed rows, and per Slater pole the sign and log of the gamma
prefactor and the hypergeometric rows.  ``hyp_pfq`` keeps its
terminating-parameter and pole scan in a second cache of 2,048 rows.  A
call then sums only the series in z, with the same arithmetic as a fresh
set-up, so a cached value is bit-identical to an uncached one.  A set-up
that raises is not cached: it raises before any series, on every call.

The gamma function and its logarithm come from the ``math`` module and
the incomplete gamma function is evaluated here, so the module needs
numpy only.  Every integral in the package is one ``trapezoid`` rule of
fixed step with a step-halving error check.

Only positive real arguments and real parameters are supported; that is
all the metric formulas need.
"""

from dataclasses import dataclass, field
import functools
import math

import numpy as np


class PoleCollisionError(ValueError):
    """Upper and lower parameter rows collide: a_j - b_k is a positive integer.

    The Mellin-Barnes integrand then has no contour separating the two pole
    families and the G-function is not defined by the usual integral.
    """


class ConvergenceError(ArithmeticError):
    """A series or quadrature failed to reach its tolerance."""


_INT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
# rounding floor of a probability summed from terms, in units of the terms'
# total magnitude (the closed forms and the FSO SNR CDF; see _clamped)
_CLAMP_ULPS = 4.0 * _EPS
# continued-fraction iterations of the large-x incomplete gamma branch
_CF_MAX_ITER = 300
# hypergeometric series: relative term size that counts as negligible,
# and the hard cap on the number of terms
_HYP_TOL = 1e-14
_HYP_MAX_TERMS = 500
# spread of a logarithmic-case parameter cluster (see meijer_g)
_LOG_EPS = 1e-3
# bounds of the z-free plan caches: Meijer-G row plans and hypergeometric
# parameter rows.  A fig1-fig3 sweep of either metric uses at most a few
# hundred of each.
_ROW_PLANS = 512
_HYP_PLANS = 2048


def _is_nonpos_int(x):
    return x <= _INT_TOL and abs(x - round(x)) < _INT_TOL


def gamma_fn(x):
    """Gamma function with an explicit pole guard.

    Raises ValueError at non-positive integers instead of returning
    nan/inf so that callers building parameter-dependent prefactors fail
    loudly, and FloatingPointError where the value overflows (past
    x = 171.6), as numpy does for an overflowing array operation.
    """
    if _is_nonpos_int(x):
        raise ValueError(f"gamma_fn pole at non-positive integer argument: {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise FloatingPointError(
            f"overflow encountered in gamma (x={x:g})") from None


def _lgamma_sign(x):
    """ln|Gamma(x)| and the sign of Gamma(x), real x off the poles."""
    sign = -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0
    return math.lgamma(x), sign


def gamma_upper(a, x):
    """Upper incomplete gamma function Gamma(a, x), any non-integer real a.

    For a > 0 and x < a + 1/2 this is Gamma(a) less the lower function
    gamma(a, x), summed as a power series (``_gamma_upper_series``); from
    x = a + 1/2 on, the classical Legendre continued fraction (modified
    Lentz recursion).  For a <= 0 the series value at the first shift
    a + k in (1, 2] is continued downward with

        Gamma(a, x) = (Gamma(a+1, x) - x^a exp(-x)) / a,

    and the continued fraction takes over from x = 4.

    Parameters
    ----------
    a : float
        Order.  Non-positive integers are poles of the recurrence
        (division by zero on the last step) and raise ValueError.
    x : float or ndarray
        Lower limit, must be > 0 when a <= 0; x = 0 is allowed for a > 0
        where Gamma(a, 0) = Gamma(a).

    Notes
    -----
    The series branch loses a factor Gamma(a) / Gamma(a, x) to the
    subtraction, which grows like 1 / (a E1(x)) as a tends to 0; the
    switch at a + 1/2 bounds it.  Each downward step subtracts nearly
    equal quantities when x >> |a+j|, losing roughly a factor x/|a+j|,
    and the last step divides by a itself, so the error grows as a
    nears a non-positive integer.  Against 40-digit mpmath over
    a in (-5, 6), x in [1e-6, 600], the relative error is at most 6e-14
    for a >= 0.05, 4e-13 for 0 < a < 0.05 and 1.1e-11 for a < 0 (at
    a = -1e-3).  The series prefactor x^a overflows past a ~ 143.
    """
    a = float(a)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("gamma_upper requires x >= 0")
    if a <= 0:
        if abs(a - round(a)) < _INT_TOL:
            raise ValueError(
                f"gamma_upper recurrence undefined at non-positive integer a={a}")
        if np.any(x_arr == 0):
            raise ValueError("gamma_upper diverges at x = 0 for a <= 0")
    x_cf = a + 0.5 if a > 0 else 4.0
    x_1d = np.atleast_1d(x_arr)
    out = np.empty_like(x_1d)
    big = x_1d >= x_cf
    if np.any(big):
        out[big] = _gamma_upper_cf(a, x_1d[big])
    small = ~big
    if np.any(small):
        out[small] = _gamma_upper_left(a, x_1d[small])
    return float(out[0]) if x_arr.ndim == 0 else out


def _gamma_upper_left(a, x):
    """Gamma(a, x) left of the continued-fraction region, x > 0 if a <= 0."""
    if a > 0:
        return _gamma_upper_series(a, x)
    k = int(math.ceil(-a)) + 1          # shift with a + k in (1, 2]
    v = _gamma_upper_series(a + k, x)
    log_x = np.log(x)
    for j in range(k - 1, -1, -1):
        aj = a + j
        v = (v - np.exp(aj * log_x - x)) / aj
    return v


def _gamma_upper_series(a, x):
    """Gamma(a) - gamma(a, x) for a > 0, x a float or an array.

    gamma(a, x) = x^a e^-x / a * sum_n x^n / ((a+1) ... (a+n)), a series
    of positive terms summed by Horner's rule.  The term count is the one
    the largest x needs: past n = 2 max(x) - a every term at most halves
    the last, so the tail after a term below eps/8 is below eps/8 of the
    sum, which is at least 1.
    """
    x_max = float(np.max(x))
    coef = []                           # 1 / ((a+1) ... (a+n))
    c = term = 1.0
    while term > _EPS / 8.0 or a + len(coef) < 2.0 * x_max:
        n = len(coef) + 1.0
        c /= a + n
        term *= x_max / (a + n)
        coef.append(c)
    s = 0.0 * x                         # in place for an array
    for c in reversed(coef):
        s += c
        s *= x
    return gamma_fn(a) - np.power(x, a) * np.exp(-x) * (1.0 + s) / a


def _gamma_upper_cf(a, x):
    """Legendre continued fraction for Gamma(a, x), x not small.

    Gamma(a,x) = exp(-x + a ln x) / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(...)))
    evaluated by the modified Lentz algorithm, vectorized over x.  Valid
    for any real a once x is to the right of the turning region,
    including a < 0.
    """
    tiny = 1e-300
    x = np.asarray(x, dtype=float)
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / np.where(b != 0.0, b, tiny)
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for i in range(1, _CF_MAX_ITER + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) <= _EPS
        if done.all():
            return np.exp(-x + a * np.log(x)) * h
    raise ConvergenceError(f"incomplete gamma continued fraction stalled at a={a}")


def hyp_pfq(a_params, b_params, z):
    """Generalized hypergeometric series pFq(a; b; z) by direct summation.

    Returns ``(value, converged)``.  The sum stops once three consecutive
    terms fall below _HYP_TOL relative to the running partial sum, or
    hard stops at _HYP_MAX_TERMS with ``converged=False``.  A zero upper
    parameter short-circuits to exactly 1.0, and a negative-integer upper
    parameter makes the series a polynomial which is summed exactly.

    Lower parameters at non-positive integers are poles and raise
    ValueError unless a terminating upper parameter cuts the series off
    first.
    """
    a_params = tuple(map(float, a_params))
    b_params = tuple(map(float, b_params))
    z = float(z)
    stop = _hyp_stop(a_params, b_params)

    total = 1.0
    term = 1.0
    small_run = 0
    n = 0.0
    n_cap = stop if stop is not None else _HYP_MAX_TERMS
    while n < n_cap:
        ratio = z / (n + 1.0)
        for av in a_params:
            ratio *= av + n
        for bv in b_params:
            ratio /= bv + n
        term *= ratio
        total += term
        n += 1.0
        if total - total != 0.0:         # inf or nan
            return total, False
        size = total if total >= 0.0 else -total
        if size < 1e-300:
            size = 1e-300
        if (term if term >= 0.0 else -term) <= _HYP_TOL * size:
            small_run += 1
            if small_run >= 3:
                return total, True
        else:
            small_run = 0
    if stop is not None:
        return total, True               # exact polynomial (1.0 if stop is 0)
    return total, False


@functools.lru_cache(maxsize=_HYP_PLANS)
def _hyp_stop(a_params, b_params):
    """z-free scan of hyp_pfq's rows: the number of terms past the first.

    0 for a zero upper parameter, the index past the last nonzero term
    for a terminating series, and None for an infinite one.  A lower
    pole that the series reaches raises ValueError.
    """
    if 0.0 in a_params:
        return 0
    stop = None
    neg_a = [int(round(-av)) for av in a_params if _is_nonpos_int(av)]
    if neg_a:
        stop = min(neg_a) + 1
    for bv in b_params:
        if _is_nonpos_int(bv):
            # the series reaches term pole_at's 0 denominator unless it
            # stops before it; a stop there too (a = b = -m) is 0 / 0
            pole_at = int(round(-bv)) + 1
            if stop is None or stop >= pole_at:
                raise ValueError(
                    f"hyp_pfq lower parameter {bv} is a non-positive integer pole")
    return stop


@dataclass(frozen=True)
class MeijerParams:
    """Parameter block of a Meijer G-function G^{m,n}_{p,q}(z | a; b).

    ``a`` holds the p upper parameters (first n in the numerator group),
    ``b`` the q lower parameters (first m in the numerator group).
    Validation enforces the standard definability condition: no pair
    (a_j, b_k) with j <= n, k <= m may differ by a positive integer
    a_j - b_k, otherwise the two pole families of the Mellin-Barnes
    integrand interlock and no separating contour exists.
    """

    m: int
    n: int
    a: tuple = field(default=())
    b: tuple = field(default=())

    def __post_init__(self):
        # + 0.0 turns -0.0 into 0.0 and leaves every other float as it is,
        # so rows that compare equal hold the same floats and can share
        # one cached plan; no value depends on the sign of a zero parameter
        object.__setattr__(self, "a", tuple(float(v) + 0.0 for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) + 0.0 for v in self.b))
        if not (0 <= self.n <= self.p and 0 <= self.m <= self.q):
            raise ValueError(f"invalid order: m={self.m}, n={self.n}, p={self.p}, q={self.q}")
        if self.p > 8 or self.q > 8:
            raise ValueError("parameter rows longer than 8 are not supported")
        for v in self.a + self.b:
            if not math.isfinite(v):
                raise ValueError("non-finite Meijer parameter")
        for j in range(self.n):
            for k in range(self.m):
                d = self.a[j] - self.b[k]
                if d >= 1.0 - _INT_TOL and abs(d - round(d)) < _INT_TOL:
                    raise PoleCollisionError(
                        f"a[{j}]={self.a[j]} and b[{k}]={self.b[k]} differ by a "
                        f"positive integer; pole families collide")

    @property
    def p(self):
        return len(self.a)

    @property
    def q(self):
        return len(self.b)

    def flipped(self):
        """Parameters of the z -> 1/z reflection identity.

        G^{m,n}_{p,q}(1/z | a; b) = G^{n,m}_{q,p}(z | 1-b; 1-a).
        """
        return MeijerParams(
            m=self.n,
            n=self.m,
            a=tuple(1.0 - v for v in self.b),
            b=tuple(1.0 - v for v in self.a),
        )


def _slater_plan(params):
    """z-free part of a Slater sum: (series argument sign, poles).

    poles holds (k, b[k], sign, log prefactor, hyper_a, hyper_b) for each
    pole in order whose term does not vanish: its gamma prefactor
    prod Gamma(numer) / prod Gamma(denom) is sign * exp(log prefactor),
    and its series is hyp_pfq(hyper_a, hyper_b, +/-z).  A prefactor that
    math.lgamma cannot form (at a pole or out of range) raises.
    """
    m, n = params.m, params.n
    a, b = params.a, params.b
    p, q = params.p, params.q
    poles = []
    for k in range(m):
        bk = b[k]
        denom = ([1.0 + bk - b[j] for j in range(m, q)]
                 + [a[j] - bk for j in range(n, p)])
        if any(_is_nonpos_int(arg) for arg in denom):
            continue                        # 1/Gamma at a pole: term vanishes
        numer = ([b[j] - bk for j in range(m) if j != k]
                 + [1.0 + bk - a[j] for j in range(n)])
        log_pref, sign = 0.0, 1.0
        for args, power in ((numer, 1.0), (denom, -1.0)):
            for arg in args:
                lg, sg = _lgamma_sign(arg)
                log_pref += power * lg
                sign *= sg
        poles.append((k, bk, sign, log_pref,
                      tuple(1.0 + bk - a[j] for j in range(p)),
                      tuple(1.0 + bk - b[j] for j in range(q) if j != k)))
    return (-1.0) ** (p - m - n), tuple(poles)


@functools.lru_cache(maxsize=_ROW_PLANS)
def _row_plan(params):
    """z-free set-up of a row: the Slater plans that meijer_g sums.

    One plan for a simple row.  A logarithmic case has clusters of b_1..b_m
    that differ by integers; its plans are those of the row with each
    cluster spread symmetrically by eps = _LOG_EPS and by 2 eps.  A set-up
    that raises is not cached and raises again on every call.
    """
    clusters = []                       # of (k, b[k])
    for k in range(params.m):
        bk = params.b[k]
        for cl in clusters:
            if abs((bk - cl[0][1]) - round(bk - cl[0][1])) < _INT_TOL:
                cl.append((k, bk))
                break
        else:
            clusters.append([(k, bk)])
    clusters = [cl for cl in clusters if len(cl) > 1]
    if not clusters:
        return (_slater_plan(params),)
    plans = []
    for eps in (_LOG_EPS, 2.0 * _LOG_EPS):
        b = list(params.b)
        for cl in clusters:
            for i, (idx, bv) in enumerate(cl):
                b[idx] = bv + (2.0 * i - (len(cl) - 1.0)) * eps
        plans.append(_slater_plan(MeijerParams(
            m=params.m, n=params.n, a=params.a, b=tuple(b))))
    return tuple(plans)


def meijer_g(params, z):
    """Meijer G-function at positive real argument, Slater-expansion path.

    Logarithmic cases (two of b_1..b_m differing by an integer) are
    evaluated at parameters perturbed by eps = _LOG_EPS and 2 eps and
    Richardson extrapolated; the symmetric spread makes the perturbation
    error even in eps, so the extrapolation removes the eps^2 term and
    leaves an O(eps^4) residual.  This eps balances that residual
    against roundoff: the paired pole terms carry Gamma(+/-eps) ~ 1/eps
    prefactors that nearly cancel, so roundoff grows like machine-eps/eps.
    Against 30-digit mpmath on every distinct call of the fig1 outage and
    fig1 and fig3 error-rate closed-form sweeps, the relative error is
    at most 6.5e-13 on the simple rows (G^{4,3}_{5,6}) and 7.5e-10 on
    the log-case rows (G^{5,2}_{4,7} and G^{5,3}_{5,7}).

    For p > q, or p = q with z > 1, the series is summed after the
    z -> 1/z reflection, where it converges.

    The z-free set-up of a row is built on its first call and kept in one
    plan cache of 512 rows (_row_plan), keyed on the row's floats, so an
    equal row sums only the series in z; hyp_pfq keeps 2,048 parameter
    scans the same way.  A set-up that fails raises before any series,
    on every call.
    """
    if not isinstance(params, MeijerParams):
        raise TypeError("params must be a MeijerParams")
    z = float(z)
    if not (z > 0.0 and math.isfinite(z)):
        raise ValueError(f"meijer_g requires a finite argument z > 0, got {z}")
    p, q = params.p, params.q
    if p > q or (p == q and z > 1.0):
        return meijer_g(params.flipped(), 1.0 / z)
    if p == q and z == 1.0:
        raise ConvergenceError("Slater series boundary |z| = 1 with p = q")
    log_z = math.log(z)
    sums = []
    for sign_arg, poles in _row_plan(params):
        total = 0.0                 # Slater expansion, DLMF 16.17.2
        for k, bk, sign, log_pref, hyper_a, hyper_b in poles:
            val, ok = hyp_pfq(hyper_a, hyper_b, sign_arg * z)
            if not ok:
                raise ConvergenceError(f"Slater series failed to converge "
                                       f"at pole b[{k}]={bk}, z={z}")
            total += sign * math.exp(log_pref + bk * log_z) * val
        sums.append(total)
    return sums[0] if len(sums) == 1 else (4.0 * sums[0] - sums[1]) / 3.0


def trapezoid(integral, lo, hi, step, rtol, what):
    """Trapezoid rule of fixed step on [lo, hi], checked by step halving.

    The nodes are lo + step * i, i = 0..2k, for the least k >= 1 that
    reaches hi.  integral(nodes, weights) applies the step-h and step-2h
    weight rows (the latter twice the former on even i, 0 on odd i) to
    its integrand and returns (fine, coarse, floor): the two sums
    (scalars or arrays) and the rounding floor of their change.
    The rule converges exponentially for an integrand analytic in a strip
    and decaying at both cuts, so |fine - coarse| bounds the error of
    fine; past rtol |fine| + floor the call raises ConvergenceError.
    """
    steps = 2 * max(1, math.ceil((hi - lo) / (2.0 * step)))
    nodes = lo + step * np.arange(steps + 1)
    w_h = np.full(steps + 1, step)
    w_h[[0, -1]] *= 0.5
    w_2h = np.where(np.arange(steps + 1) % 2, 0.0, 2.0 * w_h)
    fine, coarse, floor = integral(nodes, (w_h, w_2h))
    err = np.abs(fine - coarse)
    tol = rtol * np.abs(fine) + floor
    if not np.all(err <= tol):
        i = np.argmax(err - tol)
        raise ConvergenceError(
            f"{what}: step-halving error {np.ravel(err)[i]:.3g} exceeds "
            f"{np.ravel(tol)[i]:.3g} of {np.ravel(fine)[i]:.6g}")
    return fine


def _clamped(value, floor, top, what):
    """value clamped to [0, top], or ConvergenceError past its rounding floor.

    value and floor are floats or arrays of one shape.  A value outside
    [0, top] by more than its floor, or a NaN, is no rounding error and
    raises; a float value gives a float.
    """
    inside = (-floor <= value) & (value <= top + floor)
    if not np.all(inside):
        i = np.argmin(inside)
        raise ConvergenceError(
            f"{what} {np.ravel(value)[i]:.6g} lies outside [0, {top:g}] by "
            f"more than its rounding floor {np.ravel(floor)[i]:.3g}")
    if np.ndim(value):
        return np.clip(value, 0.0, top)
    return min(max(value, 0.0), top)
