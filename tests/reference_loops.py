"""Plain reference version of the series loop of fsorf.special.hyp_pfq.

``fsorf.special`` sums every series in one lean loop, ``_hyp_sum``: it
reads each term ratio from the row plan's table, which it grows on
demand, and uses plain comparisons in place of ``abs``, ``max`` and
``math.isfinite``.  The version here forms each ratio afresh, with the
same float operations in the same order (1/(n+1), then times each a+n,
then over each b+n, then times z), so the tests can ask for the same
bits.  It reads the module's constants at call time and takes only the
stop from ``_hyp_row``, so a test that patches one patches both sides.
"""

import math

from fsorf import special


def hyp_pfq(a_params, b_params, z):
    """pFq(a; b; z) as (value, converged), term by term with builtins."""
    a_params = tuple(map(float, a_params))
    b_params = tuple(map(float, b_params))
    z = float(z)
    stop = special._hyp_row(a_params, b_params).stop
    total = 1.0
    term = 1.0
    small_run = 0
    n_cap = special._HYP_MAX_TERMS
    if stop is not None:
        n_cap = min(stop, n_cap)
    for n in range(n_cap):
        ratio = 1.0 / (n + 1.0)
        for av in a_params:
            ratio *= av + n
        for bv in b_params:
            ratio /= bv + n
        term *= z * ratio
        total += term
        if not math.isfinite(total):
            return total, False
        if abs(term) <= special._HYP_TOL * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                return total, True
        else:
            small_run = 0
    return total, stop is not None and stop <= special._HYP_MAX_TERMS
