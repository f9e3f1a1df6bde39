"""Special functions for the relay-chain metric formulas.

The closed-form outage and BER expressions in this package reduce to a small
zoo of special functions: the gamma function, the upper incomplete gamma
function continued to negative first argument, generalized hypergeometric
series, and the Meijer G-function evaluated at positive real argument with
real parameter rows.

The Meijer G evaluator offers two independent paths:

* ``meijer_g`` sums the Slater residue expansion (DLMF 16.17.2), a finite
  sum of generalized hypergeometric series, one per pole ladder of the
  integrand's numerator gammas.  When two ladder offsets differ by an
  integer the expansion degenerates (a logarithmic case); the evaluator
  then perturbs the coinciding parameters by +/- eps and Richardson
  extrapolates, which keeps the public surface free of special casing.
* ``meijer_g_contour`` integrates the defining Mellin-Barnes contour
  integral numerically along a vertical line.  Double poles off the
  contour are harmless there, so the contour path needs no perturbation
  and serves as an independent cross-check of the Slater path.

Every integral in the package, the contour path's included, is one
``trapezoid`` rule of fixed step with a step-halving error check.

Only positive real arguments and real parameters are supported; that is
all the metric formulas need.
"""

from dataclasses import dataclass, field
import math

import numpy as np
from scipy import special as sc


class PoleCollisionError(ValueError):
    """Upper and lower parameter rows collide: a_j - b_k is a positive integer.

    The Mellin-Barnes integrand then has no contour separating the two pole
    families and the G-function is not defined by the usual integral.
    """


class ConvergenceError(ArithmeticError):
    """A series or quadrature failed to reach its tolerance."""


_INT_TOL = 1e-9
# continued-fraction iterations of the large-x incomplete gamma branch
_CF_MAX_ITER = 300
# hypergeometric series: relative term size that counts as negligible,
# and the hard cap on the number of terms
_HYP_TOL = 1e-14
_HYP_MAX_TERMS = 500
# spread of a logarithmic-case parameter cluster (see meijer_g)
_LOG_EPS = 1e-3
# contour rule in t = Im s: on the formula classes the step-halving
# estimate is 1.3e-13 relative at this step, 1.5e-10 at twice it
_CONTOUR_STEP, _CONTOUR_RTOL = 1.0 / 64.0, 1e-12


def _is_nonpos_int(x):
    return x <= _INT_TOL and abs(x - round(x)) < _INT_TOL


def gamma_fn(x):
    """Gamma function with an explicit pole guard.

    Thin wrapper over the library routine; raises ValueError at
    non-positive integers instead of returning nan/inf so that callers
    building parameter-dependent prefactors fail loudly.
    """
    if _is_nonpos_int(x):
        raise ValueError(f"gamma_fn pole at non-positive integer argument: {x}")
    return float(sc.gamma(x))


def gamma_upper(a, x):
    """Upper incomplete gamma function Gamma(a, x), any non-integer real a.

    For a > 0 this is the regularized library routine scaled back by
    Gamma(a).  For a <= 0 (where the library routine is undefined) the
    value is continued downward with

        Gamma(a, x) = (Gamma(a+1, x) - x^a exp(-x)) / a,

    applied repeatedly from the first shifted argument a + k > 0.

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
    Each downward step subtracts nearly equal quantities when x >> |a+j|,
    losing roughly a factor x/|a+j| of precision, so for x beyond a + 4
    the same function is evaluated through the classical Legendre
    continued fraction instead (modified Lentz recursion), which has no
    cancellation.  The two branches agree to ~1e-13 in the overlap.
    """
    a = float(a)
    x_arr = np.asarray(x, dtype=float)
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    if np.any(x_arr < 0):
        raise ValueError("gamma_upper requires x >= 0")
    if a > 0:
        out = sc.gammaincc(a, x_arr) * sc.gamma(a)
        return float(out) if scalar else out
    if abs(a - round(a)) < _INT_TOL:
        raise ValueError(f"gamma_upper recurrence undefined at non-positive integer a={a}")
    if np.any(x_arr == 0):
        raise ValueError("gamma_upper diverges at x = 0 for a <= 0")
    x_flat = np.atleast_1d(x_arr).astype(float)
    out = np.empty_like(x_flat)
    big = x_flat >= max(4.0, a + 4.0)
    if np.any(big):
        out[big] = _gamma_upper_cf(a, x_flat[big])
    small = ~big
    if np.any(small):
        k = int(math.ceil(-a)) + 1      # smallest shift with a + k > 0
        xs = x_flat[small]
        v = sc.gammaincc(a + k, xs) * sc.gamma(a + k)
        log_x = np.log(xs)
        for j in range(k - 1, -1, -1):
            aj = a + j
            v = (v - np.exp(aj * log_x - xs)) / aj
        out[small] = v
    out = out.reshape(x_arr.shape)
    return float(out) if scalar else out


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
        done |= np.abs(delta - 1.0) <= np.finfo(float).eps
        if np.all(done):
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
    a_params = [float(v) for v in a_params]
    b_params = [float(v) for v in b_params]
    z = float(z)

    for av in a_params:
        if av == 0.0:
            return 1.0, True

    stop = None                          # index of last nonzero term + 1
    neg_a = [int(round(-av)) for av in a_params if _is_nonpos_int(av)]
    if neg_a:
        stop = min(neg_a) + 1
    for bv in b_params:
        if _is_nonpos_int(bv):
            pole_at = int(round(-bv)) + 1
            if stop is None or stop > pole_at:
                raise ValueError(
                    f"hyp_pfq lower parameter {bv} is a non-positive integer pole")

    total = 1.0
    term = 1.0
    small_run = 0
    n_cap = stop if stop is not None else _HYP_MAX_TERMS
    for n in range(n_cap):
        ratio = z / (n + 1.0)
        for av in a_params:
            ratio *= av + n
        for bv in b_params:
            ratio /= bv + n
        term *= ratio
        total += term
        if not math.isfinite(total):
            return total, False
        if abs(term) <= _HYP_TOL * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                return total, True
        else:
            small_run = 0
    if stop is not None:
        return total, True               # exact polynomial
    return total, False


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
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
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


def _log_case_clusters(params):
    """Group the first-m lower parameters into integer-difference clusters."""
    clusters = []
    for k in range(params.m):
        bk = params.b[k]
        for cl in clusters:
            if abs((bk - cl[0][1]) - round(bk - cl[0][1])) < _INT_TOL:
                cl.append((k, bk))
                break
        else:
            clusters.append([(k, bk)])
    return clusters


def _slater_sum(params, z):
    """Slater expansion of G^{m,n}_{p,q}(z), simple-pole case (DLMF 16.17.2)."""
    m, n = params.m, params.n
    a, b = params.a, params.b
    p, q = params.p, params.q
    sign_arg = (-1.0) ** (p - m - n)
    total = 0.0
    for k in range(m):
        bk = b[k]
        log_pref = 0.0
        sign = 1.0
        skip = False
        for j in range(m):
            if j != k:
                log_pref += sc.gammaln(b[j] - bk)
                sign *= sc.gammasgn(b[j] - bk)
        for j in range(n):
            log_pref += sc.gammaln(1.0 + bk - a[j])
            sign *= sc.gammasgn(1.0 + bk - a[j])
        for j in range(m, q):
            arg = 1.0 + bk - b[j]
            if _is_nonpos_int(arg):
                skip = True                 # 1/Gamma at a pole: term vanishes
                break
            log_pref -= sc.gammaln(arg)
            sign *= sc.gammasgn(arg)
        if skip:
            continue
        for j in range(n, p):
            arg = a[j] - bk
            if _is_nonpos_int(arg):
                skip = True
                break
            log_pref -= sc.gammaln(arg)
            sign *= sc.gammasgn(arg)
        if skip or sign == 0.0:
            continue
        hyper_a = [1.0 + bk - a[j] for j in range(p)]
        hyper_b = [1.0 + bk - b[j] for j in range(q) if j != k]
        val, ok = hyp_pfq(hyper_a, hyper_b, sign_arg * z)
        if not ok:
            raise ConvergenceError(
                f"Slater series failed to converge at pole b[{k}]={bk}, z={z}")
        total += sign * math.exp(log_pref + bk * math.log(z)) * val
    return total


def _perturbed(params, eps):
    """Spread logarithmic-case parameter clusters symmetrically by eps."""
    b = list(params.b)
    for cl in _log_case_clusters(params):
        if len(cl) > 1:
            r = len(cl)
            for i, (idx, bv) in enumerate(cl):
                b[idx] = bv + (2.0 * i - (r - 1.0)) * eps
    return MeijerParams(m=params.m, n=params.n, a=params.a, b=tuple(b))


def meijer_g(params, z):
    """Meijer G-function at positive real argument, Slater-expansion path.

    Logarithmic cases (two of b_1..b_m differing by an integer) are
    evaluated at parameters perturbed by eps = _LOG_EPS and 2 eps and
    Richardson extrapolated; the symmetric spread makes the perturbation
    error even in eps, so the extrapolation removes the eps^2 term and
    leaves an O(eps^4) residual.  This eps balances that residual
    against roundoff: the paired pole terms carry Gamma(+/-eps) ~ 1/eps
    prefactors that nearly cancel, so roundoff grows like machine-eps/eps
    while the post-extrapolation analytic error stays below it until eps
    approaches the spacing between distinct poles (~5e-2 at the default
    operating parameters).  1e-3 keeps both contributions under ~1e-8
    across the argument ranges the SNR formulas produce.

    For p > q, or p = q with z > 1, the series is summed after the
    z -> 1/z reflection, where it converges.
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
    if any(len(cl) > 1 for cl in _log_case_clusters(params)):
        s1 = _slater_sum(_perturbed(params, _LOG_EPS), z)
        s2 = _slater_sum(_perturbed(params, 2.0 * _LOG_EPS), z)
        return (4.0 * s1 - s2) / 3.0
    return _slater_sum(params, z)


def trapezoid(integral, lo, hi, step, rtol, what):
    """Trapezoid rule of fixed step on [lo, hi], checked by step halving.

    The nodes are lo + step * i, i = 0..2k, for the least k >= 1 that
    reaches hi.  integral(nodes, weights) applies the step-h and step-2h
    weight rows to its integrand and returns (fine, coarse, floor): the
    two sums (scalars or arrays) and the rounding floor of the fine one.
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


def meijer_g_contour(params, z):
    """Meijer G-function by numerical Mellin-Barnes contour integration.

    Integrates along the vertical line Re s = c0 placed strictly between
    the rightward pole ladders (from the first m lower parameters) and
    the leftward ladders (from the first n upper parameters).  Entirely
    independent of the Slater path: no series expansion, no logarithmic
    special casing, since repeated poles away from the contour do not
    affect the line integral.

    Requires m + n > (p + q) / 2 so the integrand decays along the
    contour.  The integrand is analytic in the strip between the nearest
    poles, where the trapezoid rule converges exponentially; poles that
    crowd the contour too closely for its step raise ConvergenceError.
    """
    if not isinstance(params, MeijerParams):
        raise TypeError("params must be a MeijerParams")
    z = float(z)
    if not (z > 0.0 and math.isfinite(z)):
        raise ValueError(f"meijer_g_contour requires z > 0, got {z}")
    m, n = params.m, params.n
    a, b = params.a, params.b
    p, q = params.p, params.q
    delta = m + n - (p + q) / 2.0
    if delta <= 0:
        raise ValueError("contour integrand does not decay: m + n <= (p+q)/2")
    right = min(b[:m]) if m else math.inf
    left = max(a[:n]) - 1.0 if n else -math.inf
    if left >= right:
        raise ValueError("no straight separating contour for these parameters")
    if math.isinf(right):
        c0 = left + 0.5
    elif math.isinf(left):
        c0 = right - 0.5
    else:
        c0 = 0.5 * (left + right)

    ln_z = math.log(z)

    def integral(t, weights):
        s = c0 + 1j * t
        f = np.exp(s * ln_z + sum(sc.loggamma(bj - s) for bj in b[:m])
                   + sum(sc.loggamma(1.0 - aj + s) for aj in a[:n])
                   - sum(sc.loggamma(1.0 - bj + s) for bj in b[m:])
                   - sum(sc.loggamma(aj - s) for aj in a[n:])).real
        fine, coarse = (float(wt @ f) for wt in weights)
        return fine, coarse, 64.0 * np.finfo(float).eps * (weights[0] @ abs(f))

    # decay ~ exp(-delta*pi*t/2): pick t_max so the tail is ~1e-18
    t_max = max(60.0, 2.0 * 18.0 * math.log(10.0) / (delta * math.pi) + 40.0)
    return trapezoid(integral, 0.0, t_max, _CONTOUR_STEP, _CONTOUR_RTOL,
                     "Mellin-Barnes contour") / math.pi
