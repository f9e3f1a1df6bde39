"""Small-argument series form of the FSO SNR CDF and its powers.

With zeta = xi^2 and c the CDF argument scale, the CDF expands as

    F(gamma) = F0 gamma^{zeta/2} + sum_{n>=0} E_n gamma^{(n+1)/2}

    F0  = Gamma(1 - zeta) c^zeta
    E_n = (-1)^{n+1} zeta c^{n+1} / ((n+1)! (n+1-zeta))

The factorial denominators make the E series entire in sqrt(gamma), so
partial sums converge for every gamma, but in double precision the
alternating terms overwhelm the sum once c sqrt(gamma) is large; the
converged flag reports when the tail is provably negligible and no
cancellation blow-up occurred.

The closed-form error-rate path needs powers of the E series; because
each term carries gamma^{(n+1)/2}, the k-fold product is again a power
series with exponents gamma^{(m+k)/2} whose coefficients come from
repeated Cauchy convolution (series_power_coeffs).
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import gamma_fn


@dataclass(frozen=True)
class SeriesCoeffs:
    """Coefficient bundle of the CDF series.

    f0 multiplies gamma^{xi_sq/2}; e[n] multiplies gamma^{(n+1)/2}, for
    n = 0..n_max of the series_coeffs call.  A larger n_max only appends
    entries (prefix stability).
    """

    f0: float
    e: np.ndarray
    xi_sq: float


def series_coeffs(params, n_max):
    """Leading coefficient F0 and the E_0..E_n_max coefficient array."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    z2 = params.zeta
    c = params.c
    try:
        c_z2 = c ** z2
    except OverflowError:       # float ** raises where numpy would warn
        raise FloatingPointError(
            f"overflow encountered in c ** zeta (c={c:g})") from None
    f0 = gamma_fn(1.0 - z2) * c_z2
    n = np.arange(n_max + 1)
    # (n+1)! via lgamma keeps the high orders finite
    log_fact = np.array([math.lgamma(k + 2.0) for k in n])
    e = ((-1.0) ** (n + 1) * z2 * np.exp((n + 1) * math.log(c) - log_fact)
         / (n + 1.0 - z2))
    return SeriesCoeffs(f0=float(f0), e=e, xi_sq=z2)


def series_power_coeffs(e_coeffs, k):
    """Coefficients of the k-th power of sum_n e_n y^{n+1}.

    e_coeffs is the coefficient array, for example SeriesCoeffs.e.
    Returns an array p with sum_m p[m] y^{m+k} truncated to the input
    length; p = [1] for k = 0 (empty product).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return np.array([1.0])
    base = np.asarray(e_coeffs, dtype=float)
    cur = base.copy()
    n = base.size
    for _ in range(k - 1):
        cur = np.convolve(cur, base)[:n]
    return cur


def ne_pe_snr_cdf_series(gamma, params, n_max=60):
    """Series evaluation of the FSO SNR CDF.

    Returns (value, converged).  converged is True when the final
    retained term is below 1e-12 of the accumulated sum and the partial
    sums did not lose more than ~2 digits to cancellation; outside that
    region the Meijer-G / incomplete-gamma form is the one to trust.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if gamma == 0.0:
        return 0.0, True
    coeffs = series_coeffs(params, n_max)
    f0, e = coeffs.f0, coeffs.e
    z2 = params.zeta
    sqrt_g = math.sqrt(gamma)
    total = f0 * gamma ** (z2 / 2.0)
    terms = e * sqrt_g ** (np.arange(n_max + 1) + 1)
    total += float(np.sum(terms))
    tail = abs(terms[-1])
    peak = max(abs(total), float(np.max(np.abs(terms))))
    converged = bool(
        tail < 1e-12 * abs(total)
        and peak < 1e2 * abs(total)
        and 0.0 <= total <= 1.0 + 1e-9)
    return total, converged
