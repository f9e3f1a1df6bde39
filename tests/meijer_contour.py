"""Meijer G-function by Mellin-Barnes contour integration: a test oracle.

fsorf evaluates the Meijer G-function by its Slater residue series
(``fsorf.special.meijer_g``).  This independent path integrates the
defining contour integral instead, with the package's one trapezoid rule;
gate 1 of the acceptance tests and the special-function unit tests check
the series against it.  It needs complex log-gamma, so it imports
scipy.special, which the package itself does not.
"""

import math

import numpy as np
from scipy import special as sc

from fsorf.special import MeijerParams, trapezoid

# contour rule in t = Im s: on the formula classes the step-halving
# estimate is 1.3e-13 relative at this step, 1.5e-10 at twice it
_CONTOUR_STEP, _CONTOUR_RTOL = 1.0 / 64.0, 1e-12


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
