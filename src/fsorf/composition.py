"""End-to-end SNR algebra for the relay chain.

The chain has two parts.  First segment: N users transmit over Rayleigh
RF, the best one is selected, and an amplify-and-forward relay carries
the signal onward over FSO; the relay gain is either adaptive (tracks
the incoming channel) or fixed.  Second part: M-1 decode-and-forward
hops, each receiving the same payload over both an FSO and an RF link
and keeping whichever has the higher SNR.  Outage of the whole chain at
threshold g is

    1 - (1 - F_2nd(g)) * (1 - F_FSO(g) F_RF(g))^(M-1)

where F_2nd is the CDF of the first segment's end-to-end SNR.  For the
adaptive gain the formulas model the standard min(g1, g2) upper bound of
g1 g2 / (g1 + g2 + 1); the exact-law gap is measurable through
second_relay_cdf_adaptive_exact.

Everything here is expressed over CDFs so that closed-form, quadrature,
and Monte-Carlo paths can share one composition rule.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channels import ne_pe_snr_cdf, rayleigh_snr_cdf, rayleigh_snr_pdf
from .special import ConvergenceError, MeijerParams, meijer_g


class GainMode(enum.Enum):
    """Relay amplification policy of the first segment."""

    ADAPTIVE = "adaptive-gain"   # gain tracks the incoming channel (CSI at relay)
    FIXED = "fixed-gain"         # constant gain, no CSI


@dataclass(frozen=True)
class Topology:
    """Chain shape: N users into the first relay, M relays in total.

    The decode-and-forward tail has M - 1 hybrid hops; m_relays = 1
    means the first segment alone forms the chain.
    """

    n_users: int
    m_relays: int
    first_segment_mode: GainMode = GainMode.ADAPTIVE

    def __post_init__(self):
        if not (isinstance(self.n_users, int) and self.n_users >= 1):
            raise ValueError(f"n_users must be an integer >= 1, got {self.n_users!r}")
        if not (isinstance(self.m_relays, int) and self.m_relays >= 1):
            raise ValueError(f"m_relays must be an integer >= 1, got {self.m_relays!r}")
        if not isinstance(self.first_segment_mode, GainMode):
            raise ValueError("first_segment_mode must be a GainMode")


# ------------------------------------------------------------- selection

def multiuser_select_cdf(gamma, n, gamma_bar_rf):
    """CDF of the best of n independent Rayleigh-SNR users."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rayleigh_snr_cdf(gamma, gamma_bar_rf) ** n


def multiuser_select_pdf(gamma, n, gamma_bar_rf):
    if n < 1:
        raise ValueError("n must be >= 1")
    f = rayleigh_snr_cdf(gamma, gamma_bar_rf)
    return n * f ** (n - 1) * rayleigh_snr_pdf(gamma, gamma_bar_rf)


def hybrid_hop_cdf(gamma, params):
    """CDF of max(FSO SNR, RF SNR) on one decode-and-forward hop."""
    return ne_pe_snr_cdf(gamma, params) * rayleigh_snr_cdf(
        gamma, params.gamma_bar_rf)


# ------------------------------------------------------------ AF algebra

def af_adaptive_snr(g1, g2):
    """Exact end-to-end SNR of the adaptive-gain relay."""
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if np.any(g1 < 0) or np.any(g2 < 0):
        raise ValueError("SNRs must be non-negative")
    out = g1 * g2 / (g1 + g2 + 1.0)
    return float(out) if out.ndim == 0 else out


def af_fixed_snr(g1, g2, c):
    """End-to-end SNR of the fixed-gain relay with constant c."""
    if c <= 0:
        raise ValueError("c must be positive")
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if np.any(g1 < 0) or np.any(g2 < 0):
        raise ValueError("SNRs must be non-negative")
    out = g1 * g2 / (c + g2)
    return float(out) if out.ndim == 0 else out


# ------------------------------------------------- first-segment CDFs

def second_relay_cdf_adaptive(gamma, n, params):
    """First-segment SNR CDF under the adaptive gain's min model.

    1 - (1 - F_sel(g))(1 - F_FSO(g)): the selected-user RF SNR and the
    FSO SNR both have to clear g.
    """
    f1 = multiuser_select_cdf(gamma, n, params.gamma_bar_rf)
    f2 = ne_pe_snr_cdf(gamma, params)
    return 1.0 - (1.0 - f1) * (1.0 - f2)


def second_relay_cdf_adaptive_exact(gamma, n, params, rng, trials=1_000_000):
    """Empirical CDF of the exact adaptive-gain SNR, for gap measurement.

    Draws the best-of-n RF SNR and the FSO SNR, pushes them through
    g1 g2 / (g1 + g2 + 1), and counts threshold crossings.  Returns the
    estimate and its binomial standard error.
    """
    from .channels import sample_fso_snr, sample_rf_snr

    g1 = np.max(sample_rf_snr(params.gamma_bar_rf, rng, size=(trials, n)),
                axis=1)
    g2 = sample_fso_snr(params, rng, size=trials)
    eq = af_adaptive_snr(g1, g2)
    p = float(np.mean(eq <= gamma))
    se = math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)
    return p, se


def _fixed_kernel_params(z2):
    # parameter rows of the G^{5,2}_{4,7} first-segment kernel
    a = (1.0 - z2 / 2.0, (1.0 - z2) / 2.0, 0.5, 1.0)
    b = ((1.0 - z2) / 2.0, 1.0 - z2 / 2.0, 1.0 - z2 / 2.0, 0.0, 0.5,
         (1.0 - z2) / 2.0, -z2 / 2.0)
    return MeijerParams(m=5, n=2, a=a, b=b)


def fixed_segment_kernel(gamma, s, params):
    """Laplace-type tail term of the fixed-gain first segment.

    Equals s * integral_0^inf e^{-s x} F_FSO(gamma c_gain / x) dx, the
    probability-weighted chance the FSO leg fails given the RF leg's
    exponential share, in closed Meijer-G form.
    """
    z2 = params.zeta
    c = params.c
    arg = c * c * gamma * params.c_gain * s
    pref = (z2 * 2.0 ** (-1.0 - z2) / math.sqrt(math.pi)) * arg ** (z2 / 2.0)
    return pref * meijer_g(_fixed_kernel_params(z2), arg / 4.0)


# Trapezoid step in t = ln x for the fixed-gain oracle.  The integrand is
# analytic and decays at both ends, so the rule converges exponentially in
# the step: over gamma_bar in [-30, 80] dB, N <= 8 and xi in {0.8, 1.45,
# 2.5} the sums at steps 1/8 and 1/4 already agree to rounding, so the
# step-h against step-2h difference is a sound error estimate here.
_LOG_STEP = 1.0 / 16.0
# Each cut sits where the factor it truncates has fallen to about e^-50.
_TAIL = 50.0
# Relative tolerance on the returned CDF, above its rounding floor.
_RTOL = 1e-12


def second_relay_cdf_fixed_numeric(gamma, n, params):
    """Quadrature evaluation of the fixed-gain first-segment CDF.

    Integrates the defining conditional form directly and so serves as the
    independent oracle for the Meijer-G closed form (the single-relay
    metrics.outage_closed_form): it uses only the incomplete-gamma FSO
    CDF.  User term k needs

        J_k = int_0^inf e^{-s_k x} (1 - F_FSO(gamma c_gain / x)) dx,

    with s_k = (k + 1) / gamma_bar_rf.  In t = ln x the integrand is
    e^{t - s_k e^t} (1 - F_FSO(gamma c_gain e^{-t})), and one trapezoid
    rule of fixed step over a node array shared by every k evaluates it;
    the FSO factor is computed once for all terms.  The nodes span
    e^-50 <= s_1 x <= 50, the range of the RF weight, cut on the left
    where X = c sqrt(gamma c_gain / x) = 50 and the FSO survival is about
    e^-50.  The error estimate is the change in the returned CDF when
    every other node is dropped (step 2h); when it misses the tolerance
    the call raises ConvergenceError.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    if gamma == 0.0:
        return 0.0
    gr = params.gamma_bar_rf
    y = gamma * params.c_gain
    hi = math.log(_TAIL * gr)
    lo = max(math.log(gr) - _TAIL, math.log(y * (params.c / _TAIL) ** 2))
    # at low SNR the cuts cross: every x then has a factor below e^-50,
    # the integral is under the rounding floor, and two steps suffice
    steps = 2 * max(1, math.ceil((hi - lo) / (2.0 * _LOG_STEP)))
    t = lo + _LOG_STEP * np.arange(steps + 1)
    x = np.exp(t)
    surv = 1.0 - ne_pe_snr_cdf(y / x, params)
    s = np.arange(1.0, n + 1.0) / gr
    f = np.exp(t - np.outer(s, x)) * surv

    def trapezoid(vals, h):
        return h * (vals.sum(axis=1) - 0.5 * (vals[:, 0] + vals[:, -1]))

    j_h = trapezoid(f, _LOG_STEP)
    j_2h = trapezoid(f[:, ::2], 2.0 * _LOG_STEP)
    coef = np.array([math.comb(n - 1, k) * (-1.0) ** k for k in range(n)])
    coef *= (n / gr) * np.exp(-s * gamma)
    value = 1.0 - float(coef @ j_h)
    err = abs(float(coef @ (j_h - j_2h)))
    # 1 - sum(coef J) cancels; its rounding floor scales with the terms
    tol = _RTOL * abs(value) + 16.0 * np.finfo(float).eps * (
        1.0 + float(np.abs(coef * j_h).sum()))
    if not err <= tol:
        raise ConvergenceError(
            f"fixed-gain oracle: step-halving error {err:.3g} exceeds "
            f"{tol:.3g} (gamma={gamma:g}, n={n})")
    return min(max(value, 0.0), 1.0)


# ------------------------------------------------------------ composition

def end_to_end_outage_semianalytic(topology, params):
    """Outage probability at params.gamma_th by CDF composition.

    The method-independent reference: the first-segment CDF (the
    quadrature oracle in fixed-gain mode, the exact product form in
    adaptive mode) composed with M-1 hybrid-hop factors.
    """
    g = params.gamma_th
    n = topology.n_users
    if topology.first_segment_mode is GainMode.ADAPTIVE:
        f2 = second_relay_cdf_adaptive(g, n, params)
    else:
        f2 = second_relay_cdf_fixed_numeric(g, n, params)
    hop = hybrid_hop_cdf(g, params)
    out = 1.0 - (1.0 - f2) * (1.0 - hop) ** (topology.m_relays - 1)
    return min(max(out, 0.0), 1.0)
