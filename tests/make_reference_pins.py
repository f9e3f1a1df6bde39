"""Recompute the 40-digit reference pins of test_metrics.py with mpmath.

Three tables are recomputed at xi = 1.45 (or the key's xi), lam = a0 =
c_gain = 1 and gamma_bar_rf = gamma_bar_fso:

- SEGMENT_FIXED_REF, the fixed-gain first-segment CDF of N users at
  gamma, E[(1 - exp(-a (1 + c_gain / (gamma_bar I^2))))^N] over the
  composite FSO gain I, with a = gamma / gamma_bar;
- BER_FIXED_HIGH_SNR_REF, the fixed-gain error rate at N = M = 1,
  (1/2) E[(a I^2 + b) / ((1 + a) I^2 + b)] with a = 1 / gamma_bar_rf and
  b = c_gain / (gamma_bar_rf gamma_bar_fso);
- BER_ADAPTIVE_NEAR_INTEGER_ZETA_REF, the known-csi error rate at
  N = M = 2, (1/2) int e^-gamma F_out(gamma) dgamma with the min-model
  outage and F_FSO = X^zeta Gamma(1 - zeta, X) - expm1(-X).

Each is one mp.quad in t = ln h, h being the gain I for the first two
and gamma for the third, over breakpoints np.linspace(-80, 5, 341), at
40 digits.  The gain's density is f_I(h) = zeta lam^zeta / a0^zeta
h^(zeta - 1) Gamma(1 - zeta, lam h / a0).  Each value is printed next to
its pin with their relative difference.

The file has no test_ prefix, so pytest does not collect it.  Run it
from the repository root; it takes a few minutes on one core:

    PYTHONPATH=src python tests/make_reference_pins.py
"""

import time

import mpmath as mp
import numpy as np

from test_metrics import (BER_ADAPTIVE_NEAR_INTEGER_ZETA_REF,
                          BER_FIXED_HIGH_SNR_REF, SEGMENT_FIXED_REF, XI)

mp.mp.dps = 40
BREAKS = [mp.mpf(float(t)) for t in np.linspace(-80.0, 5.0, 341)]
LAM = A0 = C_GAIN = mp.mpf(1)
N_USERS = M_RELAYS = 2       # of the known-csi error rates


def _db(gdb):
    return mp.mpf(10) ** (mp.mpf(gdb) / 10)


def _gain_pdf(h, zeta):
    return (zeta * (LAM / A0) ** zeta * h ** (zeta - 1)
            * mp.gammainc(1 - zeta, LAM * h / A0))


def _over_gain(f, zeta):
    # E[f(I)] as an integral in t = ln I
    return mp.quad(lambda t: _gain_pdf(mp.exp(t), zeta) * mp.exp(t)
                   * f(mp.exp(t)), BREAKS)


def segment_fixed(n, gdb, gamma):
    gbar = _db(gdb)
    a = mp.mpf(gamma) / gbar
    return _over_gain(
        lambda h: (-mp.expm1(-a * (1 + C_GAIN / (gbar * h * h)))) ** n,
        mp.mpf(XI) ** 2)


def ber_fixed(gdb):
    gbar = _db(gdb)
    a, b = 1 / gbar, C_GAIN / (gbar * gbar)
    return _over_gain(lambda h: (a * h * h + b) / ((1 + a) * h * h + b),
                      mp.mpf(XI) ** 2) / 2


def ber_adaptive(xi, gdb):
    gbar = _db(gdb)
    zeta = mp.mpf(xi) ** 2
    c = LAM / (A0 * mp.sqrt(gbar))

    def outage(g):
        x = c * mp.sqrt(g)
        fso = x ** zeta * mp.gammainc(1 - zeta, x) - mp.expm1(-x)
        rf = -mp.expm1(-g / gbar)
        return 1 - ((1 - rf ** N_USERS) * (1 - fso)
                    * (1 - fso * rf) ** (M_RELAYS - 1))

    return mp.quad(lambda t: mp.exp(t - mp.exp(t)) * outage(mp.exp(t)),
                   BREAKS) / 2


def main():
    tables = (
        ("SEGMENT_FIXED_REF", SEGMENT_FIXED_REF,
         lambda key: segment_fixed(*key)),
        ("BER_FIXED_HIGH_SNR_REF", BER_FIXED_HIGH_SNR_REF, ber_fixed),
        ("BER_ADAPTIVE_NEAR_INTEGER_ZETA_REF",
         BER_ADAPTIVE_NEAR_INTEGER_ZETA_REF,
         lambda key: ber_adaptive(*key)),
    )
    for name, pins, compute in tables:
        print(name)
        for key, pin in pins.items():
            start = time.perf_counter()
            value = compute(key)
            rel = abs(value - mp.mpf(pin)) / value
            print(f"  {key}: {mp.nstr(value, 25)}  pin {pin!r}  "
                  f"rel diff {mp.nstr(rel, 2)}  "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)


if __name__ == "__main__":
    main()
