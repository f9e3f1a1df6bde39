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
prefactor and the plan of its hypergeometric series.  Those series
plans live in a second cache of 2,048 rows, which ``hyp_pfq`` shares:
each holds the series' stop (a zero or terminating upper parameter) and
a table of its z-free term ratios, grown as sums need more terms and
never past the term cap.  A call then sums only the terms in z, one
product each, in the one series loop of the module; a pole whose series
is exactly 1 sums none.  A table entry does not depend on when the
table grew, so a cached value is bit-identical to an uncached one.  A
set-up that raises is not cached: it raises before any series, on
every call.

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
import threading

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
# and the hard cap on the number of terms, which bounds each ratio table
_HYP_TOL = 1e-14
_HYP_MAX_TERMS = 500
# taken to grow a ratio table (see _HypRow)
_GROW_LOCK = threading.Lock()
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
    hard stops at _HYP_MAX_TERMS terms past the first with
    ``converged=False``.  A zero upper parameter short-circuits to
    exactly 1.0, and a negative-integer upper parameter makes the series
    a polynomial which is summed exactly if it has no more terms than
    the cap.

    Lower parameters at non-positive integers are poles and raise
    ValueError unless a terminating upper parameter cuts the series off
    first.  The z-free part of the rows, their stop and their term
    ratios, is planned once per row (_hyp_row); a call sums only the
    terms in z, in the loop that meijer_g also uses.
    """
    row = _hyp_row(tuple(map(float, a_params)), tuple(map(float, b_params)))
    return _hyp_sum(row, float(z))


def _hyp_sum(row, z):
    """The series of a row plan at z, as (value, converged).

    Term n+1 is term n times z * r_n, with r_n from the row's ratio
    table, which grows here as a sum first needs it.
    """
    n_cap = row.n_cap
    ratios = row.ratios
    known = len(ratios)
    total = 1.0
    term = 1.0
    small_run = 0
    for n in range(n_cap):
        if n == known:
            ratios = row.extend(n)
            known = len(ratios)
        term *= z * ratios[n]
        total += term
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
    # an exact polynomial (1.0 if stop is 0), or the term cap
    return total, n_cap == row.stop


class _HypRow:
    """z-free plan of one hypergeometric row (a; b), made by _hyp_row.

    ``stop`` is the number of terms past the first: 0 for a zero upper
    parameter, the index past the last nonzero term for a terminating
    series, and None for an infinite one.  ``n_cap`` is the number of
    terms a sum may add past the first: the stop, capped at
    _HYP_MAX_TERMS.  ``ratios`` holds the term ratios without z,
    r_n = (a_1+n)...(a_p+n) / ((b_1+n)...(b_q+n)) / (n+1), formed as
    1/(n+1), then times each a_i+n, then over each b_j+n, in row order.
    It starts empty and grows to at most n_cap entries; each growth
    binds a new tuple under a lock, so a reader holds either the old
    table or the new, and an entry has the same bits however the table
    grew.
    """

    __slots__ = ("a", "b", "stop", "n_cap", "ratios")

    def __init__(self, a, b, stop):
        self.a, self.b, self.stop = a, b, stop
        self.n_cap = _HYP_MAX_TERMS if stop is None else min(stop,
                                                              _HYP_MAX_TERMS)
        self.ratios = ()

    def extend(self, n):
        """The ratio table grown to hold index n < n_cap, and kept."""
        with _GROW_LOCK:
            ratios = self.ratios
            if len(ratios) <= n:
                grown = list(ratios)
                for k in range(len(ratios), min(max(2 * n, 16), self.n_cap)):
                    r = 1.0 / (k + 1.0)
                    for av in self.a:
                        r *= av + k
                    for bv in self.b:
                        r /= bv + k
                    grown.append(r)
                ratios = self.ratios = tuple(grown)
            return ratios


@functools.lru_cache(maxsize=_HYP_PLANS)
def _hyp_row(a_params, b_params):
    """The z-free plan of hyp_pfq's rows (float tuples), as a _HypRow.

    A lower pole that the series reaches raises ValueError, before any
    term and on every call: a set-up that raises is not cached.
    """
    if 0.0 in a_params:
        return _HypRow(a_params, b_params, 0)
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
    return _HypRow(a_params, b_params, stop)


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

    poles holds (k, b[k], sign, log prefactor, row) for each pole in
    order whose term does not vanish: its gamma prefactor
    prod Gamma(numer) / prod Gamma(denom) is sign * exp(log prefactor),
    and its series is the _HypRow row at +/-z, or exactly 1.0 where row
    is None (a zero upper parameter).  A prefactor that math.lgamma
    cannot form (at a pole or out of range) raises, as does a series
    row with a lower pole.
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
        row = _hyp_row(tuple(1.0 + bk - a[j] for j in range(p)),
                       tuple(1.0 + bk - b[j] for j in range(q) if j != k))
        poles.append((k, bk, sign, log_pref, None if row.stop == 0 else row))
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
    fig1 and fig3 error-rate closed-form sweeps (3,149 calls), the
    relative error is at most 6.5e-13 on the simple rows (G^{4,3}_{5,6})
    and 7.5e-10 on the log-case rows (G^{5,2}_{4,7} and G^{5,3}_{5,7}).

    For p > q, or p = q with z > 1, the series is summed after the
    z -> 1/z reflection, where it converges.

    The z-free set-up of a row is built on its first call and kept in one
    plan cache of 512 rows (_row_plan), keyed on the row's floats, so an
    equal row sums only the series in z.  Each pole's series is summed
    from its own plan in the 2,048-row cache that hyp_pfq shares, by the
    same loop, without a hyp_pfq call; a pole with a zero upper
    parameter adds its prefactor alone.  A set-up that fails raises
    before any series, on every call.
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
        x = sign_arg * z
        total = 0.0                 # Slater expansion, DLMF 16.17.2
        for k, bk, sign, log_pref, row in poles:
            term = sign * math.exp(log_pref + bk * log_z)
            if row is not None:
                val, ok = _hyp_sum(row, x)
                if not ok:
                    raise ConvergenceError(f"Slater series failed to "
                                           f"converge at pole b[{k}]={bk}, "
                                           f"z={z}")
                term *= val
            total += term
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
