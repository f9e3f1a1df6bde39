"""Closed-form outage and DBPSK bit error rate for the relay chain.

Both metrics come from one structure: the best of N Rayleigh users feeds
the first relay, and M - 1 selection-combined FSO/RF hops follow.
Expanding 1 - (1 - F_2nd)(1 - F_hop)^(M-1) binomially turns the chain
into one alternating sum over (k, t, u), written once in _chain_terms;
outage_closed_form and ber_closed_form are its only consumers.  The
fixed-gain mode additionally carries a Meijer-G Laplace kernel for the
relay cascade.  The bit error rate is the Laplace-type integral
(1/2) int_0^inf e^{-gamma} P_out(gamma) dgamma, offered two ways:
adaptive quadrature of the outage curve, and a closed multi-sum obtained
by expanding the FSO CDF power F^t through its series form, which turns
every term into Gamma(1+H) sigma^{-1-H} minus a Meijer-G correction.

The expansion bookkeeping: with the CDF series

    F(g) = F0 g^{zeta/2} + sum_{n>=0} E_n g^{(n+1)/2}

the t-th power contributes terms C(t,k1) F0^{t-k1} E_n^{(k1)} g^H where
E^{(k1)} is the k1-fold Cauchy self-convolution of the E coefficients
and H = (n + k1 + zeta (t - k1)) / 2.  The infinite n-sum is truncated
when three consecutive index blocks each contribute less than 1e-12 of
the running total (hard cap _N_MAX); the reported truncation estimate
is the magnitude of those final blocks.
"""

import math
from dataclasses import dataclass

import scipy.integrate as si

from .composition import GainMode, fixed_segment_kernel
from .series import series_coeffs, series_power_coeffs
from .special import ConvergenceError, MeijerParams, gamma_fn, meijer_g

_BLOCK_TOL = 1e-12
_BLOCK_RUN = 3
# hard cap on the error-rate series index n
_N_MAX = 200
# gate on the BER kernels' distance outside their provable range; the
# floor of the closed-form vs quadrature BER tolerance
_KERNEL_TOL = 1e-6


@dataclass(frozen=True)
class BerResult:
    """Closed-form error-rate value with its series truncation record."""

    value: float
    truncation: float
    n_terms: int
    converged: bool


# ------------------------------------------------------------ Meijer rows

def _snr_cdf_meijer(gamma, params):
    """FSO SNR CDF through its Meijer-G representation.

    The closed-form metrics deliberately evaluate the CDF on this path
    so that comparisons against the channel layer's incomplete-gamma
    form cross-check two different special-function pipelines.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if gamma == 0.0:
        return 0.0
    z2 = params.zeta
    row = MeijerParams(m=2, n=1, a=(1.0, 1.0 + z2), b=(1.0, z2, 0.0))
    return z2 * meijer_g(row, params.c * math.sqrt(gamma))


def _ber_kernel_adaptive(h_exp, sigma, params):
    # int_0^inf e^{-sigma g} g^H (1 - F_FSO(g)) dg in closed form
    z2 = params.zeta
    c = params.c
    a = (-h_exp, 1.0, 0.5, (1.0 + z2) / 2.0, 1.0 + z2 / 2.0)
    b = (0.5, 1.0, z2 / 2.0, (z2 + 1.0) / 2.0, 0.5, 0.0)
    g = meijer_g(MeijerParams(m=4, n=3, a=a, b=b), c * c / (4.0 * sigma))
    return (gamma_fn(1.0 + h_exp) * sigma ** (-1.0 - h_exp)
            - (z2 / (2.0 * math.sqrt(math.pi)))
            * sigma ** (-1.0 - h_exp) * g)


def _ber_kernel_fixed(h_exp, sigma, s, params):
    # int_0^inf e^{-sigma g} g^H (1 - sK(g)) dg with the fixed-gain
    # cascade tail sK folded through its own Meijer-G Laplace transform
    z2 = params.zeta
    c = params.c
    cs = c * c * params.c_gain * s
    pref = (z2 * 2.0 ** (-1.0 - z2) / math.sqrt(math.pi)) * cs ** (z2 / 2.0)
    a = (-h_exp - z2 / 2.0, 1.0 - z2 / 2.0, (1.0 - z2) / 2.0, 0.5, 1.0)
    b = ((1.0 - z2) / 2.0, 1.0 - z2 / 2.0, 1.0 - z2 / 2.0, 0.0, 0.5,
         (1.0 - z2) / 2.0, -z2 / 2.0)
    g = meijer_g(MeijerParams(m=5, n=3, a=a, b=b), cs / (4.0 * sigma))
    return (gamma_fn(1.0 + h_exp) * sigma ** (-1.0 - h_exp)
            - pref * sigma ** (-1.0 - h_exp - z2 / 2.0) * g)


# ------------------------------------------------------------ chain terms

def _chain_terms(topology):
    """Terms (k, t, weight, shift) of the chain's alternating binomial sum.

    Outage is 1 + sum weight e^{-shift gamma_th / gamma_bar_rf} F^t T_k,
    with F the FSO CDF at gamma_th and T_k the first segment's tail for
    user term k; the error rate sums the same terms against Laplace
    kernels.  The adaptive gain has k = 1..N, weight
    C(N, k) C(M-1, t) C(t, u) (-1)^{k+t+u} and shift k + u.  The fixed
    gain has k = 0..N-1, C(N-1, k) in place of C(N, k), an extra factor
    -N / (k + 1) that folds in its outer sign, and shift k + u + 1.
    """
    n_users = topology.n_users
    m_relays = topology.m_relays
    adaptive = topology.first_segment_mode is GainMode.ADAPTIVE
    for k in range(1, n_users + 1) if adaptive else range(n_users):
        for t in range(m_relays):
            for u in range(t + 1):
                weight = (math.comb(n_users if adaptive else n_users - 1, k)
                          * math.comb(m_relays - 1, t) * math.comb(t, u)
                          * (-1.0) ** (k + t + u))
                if adaptive:
                    yield k, t, weight, k + u
                else:
                    yield k, t, -(weight * n_users / (k + 1.0)), k + u + 1


# ----------------------------------------------------------------- outage

def outage_closed_form(topology, params):
    """Closed-form outage probability at params.gamma_th."""
    gr = params.gamma_bar_rf
    gth = params.gamma_th
    adaptive = topology.first_segment_mode is GainMode.ADAPTIVE
    ff = _snr_cdf_meijer(gth, params)
    tails = {}
    total = 1.0
    for k, t, weight, shift in _chain_terms(topology):
        decay = math.exp(-shift * gth / gr)
        if decay == 0.0:
            # the term is exactly 0; at low SNR its kernel may not converge
            continue
        if k not in tails:
            tails[k] = 1.0 - (ff if adaptive else fixed_segment_kernel(
                gth, (k + 1.0) / gr, params))
        # each mode multiplies in its paper form's order: the error-rate
        # quadrature over this curve moves by up to 1e-12 relative when
        # one value changes in its last bit
        head = weight * decay
        total += (head * ff ** t * tails[k] if adaptive
                  else head * tails[k] * ff ** t)
    return min(max(total, 0.0), 1.0)


# ------------------------------------------------------------- quadrature

def ber_quadrature(outage_curve, epsabs=1e-10):
    """(1/2) int_0^inf e^{-gamma} F(gamma) dgamma by adaptive quadrature.

    The substitution u = e^{-gamma} maps the integral to
    (1/2) int_0^1 F(-ln u) du on a finite interval.  Raises when the
    quadrature error estimate exceeds the requested tolerance.
    """

    def integrand(u):
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 0.0
        return outage_curve(-math.log(u))

    val, err = si.quad(integrand, 0.0, 1.0, epsabs=epsabs,
                       epsrel=1e-9, limit=400)
    if err > max(10.0 * epsabs, 1e-7 * abs(val)):
        raise ConvergenceError(
            f"error-rate quadrature achieved only {err:.2e} absolute error")
    return 0.5 * val


# ------------------------------------------------------------ closed BER

def ber_closed_form(topology, params):
    """Closed-form DBPSK error rate of the chain.

    Each Laplace kernel integrates e^{-sigma g} g^H times a factor in
    [0, 1], so it lies in [0, Gamma(1+H) sigma^{-1-H}].  The weighted
    distance of the evaluated kernels outside that range bounds the
    result's error from below; past _KERNEL_TOL the call raises
    ConvergenceError instead of returning a silently wrong value.
    """
    coeffs = series_coeffs(params, _N_MAX)
    gr = params.gamma_bar_rf
    adaptive = topology.first_segment_mode is GainMode.ADAPTIVE
    terms = list(_chain_terms(topology))
    # per-k1 convolution coefficient arrays, shared across blocks
    powers = {k1: series_power_coeffs(coeffs.e, k1)
              for k1 in range(topology.m_relays)}
    kernel_cache = {}

    def kernel(h_exp, k, shift):
        # the adaptive kernel depends on k only through shift
        key = (h_exp, shift, None if adaptive else k)
        if key not in kernel_cache:
            sigma = 1.0 + shift / gr
            if adaptive:
                value = _ber_kernel_adaptive(h_exp, sigma, params)
            else:
                value = _ber_kernel_fixed(h_exp, sigma, (k + 1.0) / gr,
                                          params)
            bound = gamma_fn(1.0 + h_exp) * sigma ** (-1.0 - h_exp)
            kernel_cache[key] = value, max(-value, value - bound, 0.0)
        return kernel_cache[key]

    total = 1.0
    excess = 0.0
    small_run = 0
    last_blocks = []
    n_used = 0
    converged = False
    for n in range(_N_MAX + 1):
        block = 0.0
        for k, t, weight, shift in terms:
            for k1 in range(t + 1):
                if k1 == 0 and n > 0:
                    continue
                p = powers[k1]
                e_n = 1.0 if k1 == 0 else (p[n] if n < p.size else 0.0)
                if e_n == 0.0:
                    continue
                coeff = math.comb(t, k1) * coeffs.f0 ** (t - k1) * e_n
                h_exp = (n + k1 + coeffs.xi_sq * (t - k1)) / 2.0
                value, outside = kernel(h_exp, k, shift)
                block += weight * coeff * value
                excess += abs(weight * coeff) * outside
        total += block
        n_used = n + 1
        last_blocks.append(abs(block))
        if len(last_blocks) > _BLOCK_RUN:
            last_blocks.pop(0)
        if abs(block) < _BLOCK_TOL * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= _BLOCK_RUN:
                converged = True
                break
        else:
            small_run = 0
    if not 0.5 * excess <= _KERNEL_TOL:
        raise ConvergenceError(
            f"BER Laplace kernels lie {0.5 * excess:.3g} outside "
            f"[0, Gamma(1+H) sigma^(-1-H)] (gamma_bar={gr:g})")
    value = min(max(0.5 * total, 0.0), 0.5)
    return BerResult(value=value, truncation=0.5 * sum(last_blocks),
                     n_terms=n_used, converged=converged)
