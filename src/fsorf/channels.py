"""Statistical models of the two physical links.

The RF side is Rayleigh fading, so its SNR is exponential with mean
``gamma_bar_rf``.  The FSO side combines Negative Exponential turbulence
(rate ``lam``) with a pointing-error gain bounded by ``a0``; the severity
of pointing error is set by ``xi`` (larger xi, milder misalignment).  The
instantaneous FSO SNR is gamma = gamma_bar_fso * I^2 where I is the product
of the two gains.  Noise variances are absorbed into the mean SNRs, which
fully parameterize both links.

Closed forms used throughout, with zeta = xi^2 and X = c sqrt(gamma),
c = lam / (a0 sqrt(gamma_bar_fso)):

    gain density   f_I(h)   = (zeta lam^zeta / a0^zeta) h^{zeta-1}
                              Gamma(1-zeta, lam h / a0)
    SNR density    f(gamma) = lam W gamma^{zeta/2-1} Gamma(1-zeta, X)
    SNR CDF        F(gamma) = X^zeta Gamma(1-zeta, X) + 1 - e^{-X}

where W = zeta lam^{zeta-1} / (2 a0^zeta gamma_bar_fso^{zeta/2}).  The CDF
expression is the exact integral of the density, and ne_pe_snr_cdf is
the one evaluation of it that every route uses.  Its Meijer-G form
zeta G^{2,1}_{2,3}(X | 1, 1+zeta; 1, zeta, 0) is left to the tests: its
Slater sum loses 1e-8 relative by X = 23 (xi = 1.45), which a large lam
reaches at ordinary SNR.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import _CLAMP_ULPS, _clamped, gamma_upper

# the gain and SNR formulas degenerate where xi^2 is a positive integer:
# a pole of the recurrence, or a logarithmic Meijer-G case
_XI2_GUARD = 1e-6
# past X = 40, e^{-X} is below half an ulp of 1 and the FSO SNR CDF rounds
# to exactly 1, while X^zeta alone may overflow
_X_ONE = 40.0


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class LinkParams:
    """Static parameters of one FSO/RF link pair.

    All SNRs are linear (not dB).  Derived constants are exposed as
    properties so they can never go stale.
    """

    gamma_bar_rf: float
    gamma_bar_fso: float
    lam: float
    a0: float
    xi: float
    c_gain: float = 1.0       # fixed-gain relay constant
    gamma_th: float = 1.0

    def __post_init__(self):
        for name in ("gamma_bar_rf", "gamma_bar_fso", "lam", "a0",
                     "xi", "c_gain", "gamma_th"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a finite positive number, got {v!r}")
        if self.a0 > 1.0:
            raise ValueError(f"a0 must lie in (0, 1], got {self.a0}")
        z2 = self.xi * self.xi
        bad = float(np.rint(z2))        # rint keeps an infinite z2
        if bad >= 1.0 and abs(z2 - bad) < _XI2_GUARD:
            raise ValueError(
                f"xi^2 = {z2} is within {_XI2_GUARD} of {bad}; the gain "
                "and SNR formulas degenerate there")

    @property
    def zeta(self):
        """xi squared, the exponent that shapes every pointing-error formula."""
        return self.xi * self.xi

    @property
    def c(self):
        """Scale of the CDF argument: X = c sqrt(gamma)."""
        return self.lam / (self.a0 * math.sqrt(self.gamma_bar_fso))


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


# ------------------------------------------------------------------ RF link

def rayleigh_snr_cdf(gamma, gamma_bar):
    """CDF of the exponential SNR on a Rayleigh-faded link."""
    if gamma_bar <= 0:
        raise ValueError("gamma_bar must be positive")
    g = _as_float_array(gamma, "gamma")
    if np.any(g < 0):
        raise ValueError("gamma must be non-negative")
    out = -np.expm1(-g / gamma_bar)
    return float(out) if np.isscalar(gamma) else out


def sample_rf_snr(gamma_bar, rng, size=None, *, out=None):
    """Draw exponential SNR with mean gamma_bar.

    gamma_bar scales one standard exponential draw per sample, so the
    draw at gamma_bar is exactly gamma_bar times the draw at 1.0.  out,
    a C-contiguous float64 array of shape `size`, receives the draws in
    place of a new array.
    """
    draws = rng.standard_exponential(size=size, out=out)
    return np.multiply(gamma_bar, draws, out=out)


# ----------------------------------------------------------------- FSO link

def ne_pe_snr_cdf(gamma, params):
    """CDF of the FSO SNR; exactly 0 at gamma = 0 and 1 from X = _X_ONE.

    A value outside [0, 1] by more than the rounding floor of its two
    terms raises ConvergenceError; inside it, the value is clamped.
    """
    z2 = params.zeta
    g = _as_float_array(gamma, "gamma")
    if np.any(g < 0):
        raise ValueError("gamma must be non-negative")
    g = np.atleast_1d(g)
    x = params.c * np.sqrt(g)
    out = np.where(x < _X_ONE, 0.0, 1.0)
    mid = (g > 0) & (x < _X_ONE)
    if np.any(mid):
        x = x[mid]
        head = x ** z2 * gamma_upper(1.0 - z2, x)
        tail = np.expm1(-x)
        value = head - tail
        if value.min() < 0.0 or value.max() > 1.0:
            value = _clamped(
                value, _CLAMP_ULPS * (np.abs(head) + np.abs(tail)), 1.0,
                f"FSO SNR CDF at X in [{x.min():.6g}, {x.max():.6g}]")
        out[mid] = value
    if np.isscalar(gamma):
        return float(out[0])
    return out.reshape(np.shape(gamma))


def sample_fso_gain(params, rng, size=None, *, out=None):
    """Draw the composite FSO gain I = h_a h_p.

    Each call draws two standard exponentials E1, E2 per sample,
    turbulence first.  h_a = E1 / lam is exponential with rate lam, and
    h_p = a0 exp(-E2 / xi^2) has the pointing-error law P(h_p <= h) =
    (h / a0)^(xi^2) on (0, a0], the law of a0 U^(1/xi^2) for a uniform U.
    The law depends on lam, a0 and xi only.

    out, a C-contiguous float64 array of shape (2,) + size, takes the
    place of new arrays: the gains land in out[0], which is returned,
    and out[1] is overwritten.
    """
    a_out, p_out = (None, None) if out is None else out
    h_a = np.divide(rng.standard_exponential(size=size, out=a_out),
                    params.lam, out=a_out)
    h_p = np.divide(rng.standard_exponential(size=size, out=p_out),
                    -params.zeta, out=p_out)
    h_p = np.multiply(params.a0, np.exp(h_p, out=p_out), out=p_out)
    return np.multiply(h_a, h_p, out=a_out)


def sample_fso_snr(params, rng, size=None, *, out=None):
    """Draw FSO SNR as gamma_bar_fso * (I * I), I from sample_fso_gain.

    The unit SNR I * I is formed first, so the draw at gamma_bar_fso is
    exactly gamma_bar_fso times the draw at 1.0.  out is as in
    sample_fso_gain, and out[0] receives the SNRs.
    """
    i = sample_fso_gain(params, rng, size, out=out)
    dest = None if out is None else i
    return np.multiply(params.gamma_bar_fso, np.multiply(i, i, out=dest),
                       out=dest)

