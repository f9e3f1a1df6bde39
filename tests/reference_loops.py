"""Plain reference version of the series loop of fsorf.special.hyp_pfq.

``fsorf.special.hyp_pfq`` runs a lean form of this loop: a float counter
and plain comparisons in place of ``range``, ``abs``, ``max`` and
``math.isfinite``.  The version here keeps the straightforward form,
with the same float operations in the same order, so the tests can ask
for the same bits.  It reads the module's constants and its
``_hyp_stop`` at call time, so a test that patches one patches both
sides.
"""

import math

from fsorf import special


def hyp_pfq(a_params, b_params, z):
    """pFq(a; b; z) as (value, converged), term by term with builtins."""
    a_params = tuple(map(float, a_params))
    b_params = tuple(map(float, b_params))
    z = float(z)
    stop = special._hyp_stop(a_params, b_params)
    total = 1.0
    term = 1.0
    small_run = 0
    n_cap = stop if stop is not None else special._HYP_MAX_TERMS
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
        if abs(term) <= special._HYP_TOL * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                return total, True
        else:
            small_run = 0
    if stop is not None:
        return total, True
    return total, False

