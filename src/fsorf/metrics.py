"""Closed-form outage and DBPSK bit error rate for the relay chain.

The best of N Rayleigh users feeds the first relay, and M - 1
selection-combined FSO/RF hops follow.  outage_closed_form evaluates the
first-segment CDF at gamma_th, the fixed gain's through Meijer-G kernels,
and composes it with the hops as the quadrature route does.  The bit
error rate is (1/2) int_0^inf e^{-gamma} P_out(gamma) dgamma, offered
two ways.  ber_closed_form expands 1 - (1 - F_2nd)(1 - F_hop)^(M-1) into
_chain_terms' alternating (k, t, u) sum and each FSO CDF power F^t into
its series, which turns every term into Gamma(1+H) sigma^{-1-H} minus a
Meijer-G correction.  ber_quadrature is a trapezoid rule in ln gamma
over any vectorised outage curve; the experiments layer hands it
end_to_end_outage_semianalytic, so the two share no Meijer-G code.

Meijer-G is cross-checked by the tests: the fixed-gain outage kernels
against the quadrature oracle (gate 4), the error-rate kernels against
ber_quadrature (gate 5), and meijer_g against mpmath and a contour
integral.

outage_closed_form, ber_closed_form and end_to_end_outage_semianalytic
take a memo keyword, a dict that calls may share; run_experiment passes
one per (lambda, gamma_avg) level, so each shared part is evaluated once
there.  outage_closed_form keeps the FSO CDF at gamma_th, under the
quadrature route's key, and the fixed-gain kernels K_k per user term k;
ber_closed_form the series coefficients, their powers, each Laplace
kernel, keyed on (gain mode, H, k, shift), and the fixed-gain kernel's
Meijer-G value, keyed on (H, z).  An entry is keyed on all its inputs
within its LinkParams and no failure is stored, so every result is the
one a call without memo, the default, gives.

The expansion bookkeeping: with the CDF series

    F(g) = F0 g^{zeta/2} + sum_{n>=0} E_n g^{(n+1)/2}

the t-th power contributes terms C(t,k1) F0^{t-k1} E_n^{(k1)} g^H where
E^{(k1)} is the k1-fold Cauchy self-convolution of the E coefficients
and H = (n + k1 + zeta (t - k1)) / 2.  The infinite n-sum is truncated
when three consecutive index blocks each contribute less than 1e-12 of
the running total (hard cap _N_MAX); the reported truncation estimate
is the magnitude of those final blocks.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ne_pe_snr_cdf
from .composition import (LOG_STEP, GainMode, _compose_hops,
                          _fixed_kernel_params, _memo_scope, _memoized,
                          _min_model_cdf, _nodes_key, fixed_segment_kernel)
from .series import series_coeffs, series_power_coeffs
from .special import (_CLAMP_ULPS, _ROW_PLANS, ConvergenceError,
                      MeijerParams, _clamped, gamma_fn, meijer_g, trapezoid)

_BLOCK_TOL = 1e-12
_BLOCK_RUN = 3
# hard cap on the error-rate series index n
_N_MAX = 200
# gate on the BER kernels' distance outside their provable range; the
# floor of the closed-form vs quadrature BER tolerance
_KERNEL_TOL = 1e-6
# gate on the closed-form BER's rounding floor over its value: past it
# the alternating terms have cancelled so far that the value may be off
# by more than this share of itself
_FLOOR_RTOL = 1e-6
# the same gate on the fixed-gain outage kernels, below the 1e-8
# closed-form vs quadrature outage tolerance
_TAIL_TOL = 1e-9
# u = ln gamma span of the error-rate rule: its integrand e^{u - e^u} F
# leaves out at most e^-60 below and e^-50 above; relative tolerance
_BER_LN_LO, _BER_LN_HI, _BER_RTOL = -60.0, math.log(50.0), 1e-12


@dataclass(frozen=True)
class BerResult:
    """Closed-form error-rate value with its series truncation record."""

    value: float
    truncation: float
    n_terms: int
    converged: bool


# ------------------------------------------------------------ Meijer rows

def _ber_kernel_adaptive(h_exp, sigma, params):
    # int_0^inf e^{-sigma g} g^H F_FSO(g) dg in closed form
    z2 = params.zeta
    g = meijer_g(_ber_adaptive_row(z2, h_exp),
                 params.c * params.c / (4.0 * sigma))
    return (z2 / (2.0 * math.sqrt(math.pi))) * sigma ** (-1.0 - h_exp) * g


@functools.lru_cache(maxsize=_ROW_PLANS)
def _ber_adaptive_row(z2, h_exp):
    a = (-h_exp, 1.0, 0.5, (1.0 + z2) / 2.0, 1.0 + z2 / 2.0)
    b = (0.5, 1.0, z2 / 2.0, (z2 + 1.0) / 2.0, 0.5, 0.0)
    return MeijerParams(m=4, n=3, a=a, b=b)


def _ber_kernel_fixed(h_exp, sigma, s, params, g_values):
    # int_0^inf e^{-sigma g} g^H sK(g) dg with the fixed-gain cascade
    # tail sK folded through its own Meijer-G Laplace transform.  The
    # G-function's row depends on H alone for given params, so g_values
    # keeps its value per (H, z), which several (s, sigma) pairs share
    z2 = params.zeta
    cs = params.c * params.c * params.c_gain * s
    z = cs / (4.0 * sigma)
    if z == 0.0:
        return 0.0      # the limit; see composition._fixed_kernel_params
    pref, row = _fixed_kernel_params(z2, cs, -h_exp - z2 / 2.0)
    return (pref * sigma ** (-1.0 - h_exp - z2 / 2.0)
            * _memoized(g_values, (h_exp, z), meijer_g, row, z))


# ------------------------------------------------------------ chain terms

def _chain_terms(topology):
    """Terms (k, t, weight, shift) of the chain's alternating binomial sum.

    The outage at gamma is 1 + sum weight e^{-shift gamma / gamma_bar_rf}
    F^t T_k, with F the FSO CDF and T_k the first segment's tail for user
    term k; ber_closed_form, the one consumer, integrates it term by term
    against Laplace kernels.  The adaptive gain has k = 1..N, weight
    C(N, k) C(M-1, t) C(t, u) (-1)^{k+t+u} and shift k + u.  The fixed
    gain has k = 0..N-1, C(N-1, k) in place of C(N, k), an extra factor
    -N / (k + 1) that carries its outer sign, and shift k + u + 1.
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

def outage_closed_form(topology, params, *, memo=None):
    """Closed-form outage probability at params.gamma_th.

    The first-segment CDF composed with the hops as the quadrature route
    does, so the adaptive gain's value is that route's.  The fixed gain's
    CDF is A^N + sum_k N C(N-1, k) (-1)^k / (k + 1) e^{-(k+1) a} K_k, with
    a = gamma_th / gamma_bar_rf, A = 1 - e^{-a} and the probabilities
    K_k = fixed_segment_kernel(gamma_th, (k + 1) / gamma_bar_rf).  Past
    _TAIL_TOL of weighted distance of the K_k outside [0, 1] the call
    raises ConvergenceError, as ber_closed_form does for its kernels; so
    does an outage outside [0, 1] by more than the sum's rounding floor
    carried through the hops, and within it the value is clamped.  memo
    is as in ber_closed_form.
    """
    gr, gth, n = params.gamma_bar_rf, params.gamma_th, topology.n_users
    scope = _memo_scope(memo, params)
    # the quadrature route keeps the same entry
    ff = _memoized(scope, ("fso", _nodes_key(gth)), ne_pe_snr_cdf, gth,
                   params)
    if topology.first_segment_mode is GainMode.ADAPTIVE:
        first = _min_model_cdf(gth, n, params, lambda: ff)
        return float(_compose_hops(first, ff, gth, params,
                                   topology.m_relays)[0])
    first = mass = (-math.expm1(-gth / gr)) ** n
    excess = 0.0
    for k in range(n):
        decay = math.exp(-(k + 1.0) * gth / gr)
        if decay == 0.0:
            break       # and the later terms; their kernels may not converge
        kernel = _memoized(scope, ("segment-kernel", k),
                           fixed_segment_kernel, gth, (k + 1.0) / gr, params)
        weight = n * math.comb(n - 1, k) / (k + 1.0) * decay
        term = (-1.0) ** k * weight * kernel
        first += term
        mass += abs(term)
        excess += weight * max(-kernel, kernel - 1.0, 0.0)
    if not excess <= _TAIL_TOL:
        raise ConvergenceError(
            f"fixed-gain outage kernels lie {excess:.3g} outside [0, 1] "
            f"(gamma_bar={gr:g})")
    out, survival = _compose_hops(first, ff, gth, params, topology.m_relays)
    return _clamped(float(out), _CLAMP_ULPS * mass * survival, 1.0,
                    "closed-form outage")


# ------------------------------------------------------------- quadrature

def ber_quadrature(outage_curve):
    """(1/2) int_0^inf e^{-gamma} F(gamma) dgamma by a trapezoid rule.

    In u = ln gamma the integrand e^{u - e^u} F(e^u) is smooth and decays
    at both ends, so one rule of step LOG_STEP converges exponentially.
    outage_curve is called once, on the node array (evenly spaced in
    ln gamma, as the fixed-gain oracle needs).  A step-halving change
    past _BER_RTOL of the sum plus a rounding floor raises ConvergenceError.
    """
    def integral(u, weights):
        f = np.exp(u - np.exp(u)) * outage_curve(np.exp(u))
        return (*(float(w @ f) for w in weights), 64.0 * np.finfo(float).eps)

    return 0.5 * trapezoid(integral, _BER_LN_LO, _BER_LN_HI, LOG_STEP,
                           _BER_RTOL, "error-rate quadrature")


# ------------------------------------------------------------ closed BER

def ber_closed_form(topology, params, *, memo=None):
    """Closed-form DBPSK error rate of the chain.

    Each Laplace kernel integrates e^{-sigma g} g^H times a factor in
    [0, 1], so it lies in [0, Gamma(1+H) sigma^{-1-H}].  The weighted
    distance of the evaluated kernels outside that range bounds the
    result's error from below; past _KERNEL_TOL the call raises
    ConvergenceError instead of returning a silently wrong value, and a
    kernel that is not finite raises it at once, naming its H, k and
    shift.  So does a sum outside [0, 1/2] by more than its rounding floor; inside
    it, the value is clamped to [0, 1/2].  The floor, 4 eps times half
    the sum of the terms' magnitudes, bounds the value's rounding error,
    so a value that the floor exceeds by more than _FLOOR_RTOL of it
    raises too.

    memo is a dict that calls may share (None gives a fresh one); see
    the module docstring.
    """
    scope = _memo_scope(memo, params)
    coeffs = _memoized(scope, ("series", _N_MAX), series_coeffs, params,
                       _N_MAX)
    gr = params.gamma_bar_rf
    adaptive = topology.first_segment_mode is GainMode.ADAPTIVE
    terms = list(_chain_terms(topology))
    # per-k1 convolution coefficient arrays, shared across blocks
    powers = {k1: _memoized(scope, ("power", _N_MAX, k1),
                            series_power_coeffs, coeffs.e, k1)
              for k1 in range(topology.m_relays)}
    kernels = scope.setdefault(topology.first_segment_mode, {})
    g_values = scope.setdefault("fixed-ber-g", {})

    def kernel(h_exp, k, shift):
        # the adaptive kernel depends on k only through shift
        key = (h_exp, shift, None if adaptive else k)
        if key not in kernels:
            sigma = 1.0 + shift / gr
            bound = gamma_fn(1.0 + h_exp) * sigma ** (-1.0 - h_exp)
            value = bound - (
                _ber_kernel_adaptive(h_exp, sigma, params) if adaptive else
                _ber_kernel_fixed(h_exp, sigma, (k + 1.0) / gr, params,
                                  g_values))
            if not math.isfinite(value):
                raise ConvergenceError(
                    f"BER Laplace kernel is {value} at H={h_exp:g}, k={k}, "
                    f"shift={shift:g} (gamma_bar={gr:g})")
            kernels[key] = value, max(-value, value - bound, 0.0)
        return kernels[key]

    total = 1.0
    mass = 1.0
    excess = 0.0
    small_run = 0
    last_blocks = []
    n_used = 0
    converged = False
    for n in range(_N_MAX + 1):
        block = 0.0
        for k, t, weight, shift in terms:
            for k1 in range(t + 1):
                p = powers[k1]
                e_n = p[n] if n < p.size else 0.0
                if e_n == 0.0:
                    continue
                coeff = math.comb(t, k1) * coeffs.f0 ** (t - k1) * e_n
                h_exp = (n + k1 + coeffs.xi_sq * (t - k1)) / 2.0
                value, outside = kernel(h_exp, k, shift)
                term = weight * coeff * value
                block += term
                mass += abs(term)
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
    floor = _CLAMP_ULPS * (0.5 * mass)
    value = _clamped(0.5 * total, floor, 0.5, "closed-form error rate")
    if floor > _FLOOR_RTOL * value:
        raise ConvergenceError(
            f"closed-form error rate {value:.3g} is less than "
            f"{1.0 / _FLOOR_RTOL:g} times its rounding floor {floor:.3g} "
            f"(gamma_bar={gr:g})")
    return BerResult(value=value, truncation=0.5 * sum(last_blocks),
                     n_terms=n_used, converged=converged)
