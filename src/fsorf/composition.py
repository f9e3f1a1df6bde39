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
g1 g2 / (g1 + g2 + 1), and Monte Carlo samples that model; the tests
keep the exact law, as a sampler and a quadrature, to measure the gap.

Everything here is expressed over CDFs.  The closed form and the
quadrature compose the chain alike, through _compose_hops; Monte Carlo
through the chain minima that montecarlo._chain_batch forms from each
depth's folded hops once a batch's hops are drawn, bit for bit the
column minimum of the per-stage SNRs that the tests' reference sampler
draws.  The quadrature route never subtracts a sum from 1: the
fixed-gain oracle adds nonnegative terms only, and each composition
step forms p + (1 - p) q, in [0, 1] also when rounded, so a small
outage keeps its digits.

end_to_end_outage_semianalytic evaluates the FSO CDF once for the first
segment and the hops.  Its memo keyword, a dict that calls may share,
keeps that CDF and the first-segment CDF per LinkParams and gamma array,
reused only on the same array bit for bit and never for a failure;
second_relay_cdf_fixed_numeric keeps there the FSO CDF on its t grid,
keyed on the grid's left cut and node count.  None of these FSO CDFs
depends on the user count, so a sweep evaluates each once per (lambda,
gamma_avg) level, and the first-segment CDF once per user count there.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ne_pe_snr_cdf, rayleigh_snr_cdf
from .special import (_CLAMP_ULPS, _ROW_PLANS, ConvergenceError,
                      MeijerParams, _clamped, meijer_g, trapezoid)


class GainMode(enum.Enum):
    """Relay amplification policy of the first segment (CLI/CSV label)."""

    ADAPTIVE = "known-csi"       # gain tracks the incoming channel (CSI at relay)
    FIXED = "unknown-csi"        # constant gain, no CSI


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


# ------------------------------------------------------------ AF algebra

def _nonnegative_snrs(g1, g2, out):
    # g1 and g2 as float arrays; the sign test writes its flags into out
    # when it is given, so out must not overlap them
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if out is not None and (np.shares_memory(out, g1)
                            or np.shares_memory(out, g2)):
        raise ValueError("out must not overlap g1 or g2")
    flags = None if out is None else out.view(bool)[:out.size]
    if np.less(g1, 0, out=flags).any() or np.less(g2, 0, out=flags).any():
        raise ValueError("SNRs must be non-negative")
    return g1, g2


def _af_result(snr, out):
    return float(snr) if out is None and np.ndim(snr) == 0 else snr


def af_fixed_snr(g1, g2, c, *, out=None):
    """End-to-end SNR of the fixed-gain relay with constant c.

    Formed as g1 * (g2 / (c + g2)): the ratio lies in [0, 1] and c > 0,
    so no finite g1, g2 overflow or divide by zero.  out, a 1-D float64
    array of g1's and g2's shape, receives the SNRs in place of new
    arrays; it must not overlap them (ValueError).
    """
    if c <= 0:
        raise ValueError("c must be positive")
    g1, g2 = _nonnegative_snrs(g1, g2, out)
    ratio = np.divide(g2, np.add(c, g2, out=out), out=out)
    return _af_result(np.multiply(g1, ratio, out=out), out)


# ------------------------------------------------------------------ memo

def _memo_scope(memo, params):
    # memo's entries for params, a dict ({} for no memo); numpy's error
    # state is in the key too, as it decides whether a step raises
    if memo is None:
        return {}
    return memo.setdefault((params, tuple(np.geterr().items())), {})


def _memoized(scope, key, compute, *args, **kwargs):
    # a failing compute stores nothing, so a later call raises again
    if key not in scope:
        scope[key] = compute(*args, **kwargs)
    return scope[key]


def _nodes_key(gamma):
    # gamma bit for bit: a value is reused only on the very same nodes
    a = np.asarray(gamma)
    return type(gamma), a.dtype.str, a.shape, a.tobytes()


# ------------------------------------------------- first-segment CDFs

def _min_model_cdf(gamma, n, params, fso):
    # the adaptive gain's min-model first-segment CDF, F_sel + (1 - F_sel)
    # F_FSO: the selected-user RF SNR and the FSO SNR both have to clear
    # gamma.  fso() gives F_FSO at gamma; it is asked for after the RF
    # side, so a failure of either surfaces in the same order whoever
    # supplies it
    f1 = multiuser_select_cdf(gamma, n, params.gamma_bar_rf)
    return f1 + (1.0 - f1) * fso()


def _fixed_kernel_params(z2, arg, *lead):
    # prefactor and G^{5,2}_{4,7} row of the fixed-gain kernels at arg;
    # the error-rate kernel's G^{5,3}_{5,7} prepends one upper parameter.
    # The prefactor carries arg^(zeta/2), and as its argument z -> 0 the
    # G-function grows no faster than z^min(0, (1-zeta)/2), so a kernel
    # vanishes like arg^(min(zeta, 1)/2)
    pref = (z2 * 2.0 ** (-1.0 - z2) / math.sqrt(math.pi)) * arg ** (z2 / 2.0)
    return pref, _fixed_kernel_row(z2, lead)


@functools.lru_cache(maxsize=_ROW_PLANS)
def _fixed_kernel_row(z2, lead):
    a = lead + (1.0 - z2 / 2.0, (1.0 - z2) / 2.0, 0.5, 1.0)
    b = ((1.0 - z2) / 2.0, 1.0 - z2 / 2.0, 1.0 - z2 / 2.0, 0.0, 0.5,
         (1.0 - z2) / 2.0, -z2 / 2.0)
    return MeijerParams(m=5, n=2 + len(lead), a=a, b=b)


def fixed_segment_kernel(gamma, s, params):
    """Laplace-type tail term of the fixed-gain first segment.

    Equals s * integral_0^inf e^{-s x} F_FSO(gamma c_gain / x) dx, the
    probability-weighted chance the FSO leg fails given the RF leg's
    exponential share, in closed Meijer-G form.  ConvergenceError where
    the G-function's argument or prefactor underflows below the least
    normal double (from about 1,470 dB at xi = 1.45).
    """
    arg = params.c * params.c * gamma * params.c_gain * s
    pref, row = _fixed_kernel_params(params.zeta, arg)
    if not min(arg / 4.0, pref) >= np.finfo(float).smallest_normal:
        raise ConvergenceError(f"fixed-gain outage kernel underflows: "
                               f"argument {arg / 4.0:.3g}, prefactor {pref:.3g}")
    return pref * meijer_g(row, arg / 4.0)


# Trapezoid step in t = ln x for the fixed-gain oracle, and the ln gamma
# spacing of its array form.  The integrand is analytic and decays at both
# ends, so the rule converges exponentially in the step: on the error-rate
# rule's nodes at -30 to 120 dB, N <= 8 and xi in {0.8, 1.45, 2.5}, the
# sums at steps 1/8 and 1/16 agree within 4.3e-15 of the value.
LOG_STEP = 1.0 / 16.0
# The cuts: u is _U_LEFT at the first node on the left one, and the tail
# right of ln c_gain + _T_RIGHT is at most N e^-_T_RIGHT of the value.
_U_LEFT, _T_RIGHT = 60.0, 37.0
# Relative tolerance on the returned CDF.
_RTOL = 1e-12


def second_relay_cdf_fixed_numeric(gamma, n, params, *, memo=None):
    """Quadrature evaluation of the fixed-gain first-segment CDF.

    The independent oracle for the Meijer-G closed form (the single-relay
    metrics.outage_closed_form): it uses only the incomplete-gamma FSO
    CDF.  The CDF is E[(1 - e^{-a-u})^N] over the FSO SNR x, with
    a = gamma / gamma_bar_rf and u = a c_gain / x.  By parts in t = ln x,
    with 1 - e^{-a-u} = A + E (1 - e^{-u}), A = 1 - e^{-a}, E = e^{-a}:

        A^N + int F_FSO(e^t) N sum_m C(N-1, m) A^{N-1-m} E^{m+1}
                  (1 - e^{-u})^m u e^{-u} dt,

    nonnegative terms only, so a small value keeps its relative precision.
    One trapezoid rule of fixed step spans t in [ln(c_gain a_0 / _U_LEFT),
    ln c_gain + _T_RIGHT], a_0 at the first node.  An array gamma must be
    evenly spaced in ln gamma at LOG_STEP: u then depends on the node and
    t only through ln gamma - t, so F_FSO is evaluated once on the t grid
    and each m-term is one discrete convolution.  special.trapezoid raises
    ConvergenceError where dropping every other t node moves a value by
    more than _RTOL of it; so does a NaN, or a value above 1 by more than
    its rounding floor, and within it the value is clamped.  memo is as in
    end_to_end_outage_semianalytic; the t grid's F_FSO is kept there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if np.ndim(gamma) == 0 and gamma == 0.0:
        return 0.0
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    if not (g.ndim == 1 and np.all(g > 0) and np.all(np.abs(
            np.log(g / g[0]) - LOG_STEP * np.arange(g.size)) <= 1e-9)):
        raise ValueError("gamma must be positive and evenly spaced in "
                         f"ln gamma at step {LOG_STEP}")
    gr = params.gamma_bar_rf
    big_a, big_e = -np.expm1(-g / gr), np.exp(-g / gr)
    coef = np.array([n * math.comb(n - 1, m) * big_a ** (n - 1 - m)
                     * big_e ** (m + 1) for m in range(n)])
    # ln(c_gain a_0) as a sum of logs: a_0 underflows at extreme SNR
    log_ca = math.log(params.c_gain) + math.log(g[0]) - math.log(gr)
    lo = log_ca - math.log(_U_LEFT)
    hi = math.log(params.c_gain) + _T_RIGHT
    scope = _memo_scope(memo, params)

    def integral(t, weights):
        # the t grid is lo + LOG_STEP * arange(t.size), bit for bit
        fso = _memoized(scope, ("fso", lo, t.size), ne_pe_snr_cdf,
                        np.exp(t), params)
        wf = weights[0] * fso
        # kernel[i - j + t.size - 1] is u at gamma_i and t_j,
        # e^{log_ca - lo + (i - j) h}, then the m-term's factor of u there
        kernel = np.exp((log_ca - lo)
                        + LOG_STEP * np.arange(1 - t.size, g.size))
        rise = -np.expm1(-kernel)
        kernel *= np.exp(-kernel)
        sums = np.zeros((2, g.size))
        for row in coef:
            # node i reads the kernel at i's parity on the even t nodes
            # (t.size is odd); the step-2h sum is twice their step-h share
            for r in range(min(2, g.size)):
                even = np.convolve(wf[::2], kernel[r::2], "valid")
                odd = np.convolve(wf[1::2], kernel[r + 1::2], "valid")
                sums[:, r::2] += row[r::2] * np.array(
                    [even + odd[:even.size], 2.0 * even])
            kernel *= rise
        # sums of nonnegative terms round relatively, except subnormals
        return (*(big_a ** n + sums), np.finfo(float).smallest_normal)

    # at low SNR the cuts cross, and two steps from lo see e^-a = 0
    what = f"fixed-gain oracle (gamma in [{g[0]:g}, {g[-1]:g}], n={n})"
    fine = trapezoid(integral, lo, hi, LOG_STEP, _RTOL, what)
    # the n-th powers of A and E carry n times their rounding
    value = _clamped(fine, n * _CLAMP_ULPS * fine, 1.0, what)
    return float(value[0]) if np.ndim(gamma) == 0 else value


# ------------------------------------------------------------ composition

def end_to_end_outage_semianalytic(topology, params, gamma=None, *,
                                   memo=None):
    """Outage at gamma (params.gamma_th by default) by CDF composition.

    The method-independent reference: the first-segment CDF (the
    quadrature oracle in fixed-gain mode, the exact product form in
    adaptive mode) composed hop by hop with M-1 hybrid hops, which share
    one FSO CDF; every step adds nonnegative terms.  memo is a dict that
    calls may share (None gives a fresh one); see the module docstring.
    """
    g = params.gamma_th if gamma is None else gamma
    n = topology.n_users
    scope = _memo_scope(memo, params)
    nodes = _nodes_key(g)

    def fso():
        return _memoized(scope, ("fso", nodes), ne_pe_snr_cdf, g, params)

    if topology.first_segment_mode is GainMode.ADAPTIVE:
        f2 = _memoized(scope, ("adaptive", n, nodes), _min_model_cdf,
                       g, n, params, fso)
    else:
        f2 = _memoized(scope, ("fixed", n, nodes),
                       second_relay_cdf_fixed_numeric, g, n, params,
                       memo=memo)
    out, _ = _compose_hops(f2, fso(), g, params, topology.m_relays)
    return float(out) if np.ndim(g) == 0 else out


def _compose_hops(first, fso, gamma, params, m_relays):
    # 1 - (1 - first)(1 - hop)^(M-1) hop by hop, hop = F_FSO F_RF on the
    # shared FSO CDF fso; and (1 - hop)^(M-1), which scales first's error
    hop = fso * rayleigh_snr_cdf(gamma, params.gamma_bar_rf)
    out, survival = first, 1.0
    for _ in range(m_relays - 1):
        out = out + (1.0 - out) * hop
        survival = survival * (1.0 - hop)
    return out, survival
