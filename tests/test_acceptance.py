"""Acceptance gates for the whole package.

Each test below is one gate; ``pytest -v tests/test_acceptance.py`` prints
one pass/fail line per gate.  Together they cross-validate the three
evaluation routes (closed form, quadrature, Monte Carlo) against each
other and against known-truth anchors, check the qualitative behaviour
the analysis predicts, and lock in bit-level reproducibility of the
preset sweeps.  Expected runtime: about 30 s on 2 vCPUs, most of it the
10^7-trial Monte Carlo of gates 4 and 5 (about 13-16 s and 8-10 s),
drawn once per curve.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from fsorf.channels import (
    LinkParams,
    db_to_linear,
    ne_pe_snr_cdf,
    rayleigh_snr_cdf,
    sample_fso_snr,
    sample_rf_snr,
)
from fsorf.composition import GainMode, Topology
from fsorf.experiments import run_experiment, spec_from_sources
from fsorf.metrics import ber_closed_form, ber_quadrature
from fsorf.montecarlo import SimConfig, simulate_outage_curves
from fsorf.series import ne_pe_snr_cdf_series, series_coeffs, series_power_coeffs
from fsorf.special import MeijerParams, gamma_upper, meijer_g

from meijer_contour import meijer_g_contour
from reference_models import ne_pe_snr_pdf

XI = 1.45
Z2 = XI * XI


def _params(gamma_avg_db, lam=1.0, gamma_th_db=10.0):
    """Link parameters exactly as the experiment runner builds them."""
    g = db_to_linear(gamma_avg_db)
    return LinkParams(gamma_bar_rf=g, gamma_bar_fso=g, lam=lam, a0=1.0,
                      xi=XI, gamma_th=db_to_linear(gamma_th_db))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _mc_sigma(estimate):
    # the stored interval is a 95% one, so half-width / 1.96 is one sigma
    return (estimate.ci_high - estimate.ci_low) / 2.0 / 1.959963984540054


# ------------------------------------------------------------------ gate 1

def test_1_meijer_and_gamma_paths_agree():
    """Series path vs contour path, and recurrence vs quadrature."""
    h_exp = 1.7
    phi1 = (1 - Z2 / 2, (1 - Z2) / 2, 0.5, 1.0)
    phi2 = ((1 - Z2) / 2, 1 - Z2 / 2, 1 - Z2 / 2, 0.0, 0.5,
            (1 - Z2) / 2, -Z2 / 2)
    classes = [
        # grids span the argument ranges the formulas feed each class;
        # past z ~ 10 the alternating residue series for the first class
        # cancels to ~e^z * eps, where the continued-fraction gamma_upper
        # (which the shipping CDF path uses) takes over
        ("G[2,0;1,2]",
         MeijerParams(m=2, n=0, a=(1.0,), b=(0.5, 0.0)),
         np.geomspace(0.01, 8.0, 50)),
        ("G[2,1;2,3]",
         MeijerParams(m=2, n=1, a=(1.0, 1.0 + Z2), b=(1.0, Z2, 0.0)),
         np.geomspace(1e-3, 10.0, 50)),
        ("G[1,2;3,2]",
         MeijerParams(m=1, n=2, a=(0.0, 1 - Z2, 1.0), b=(0.0, -Z2)),
         np.geomspace(1.5, 60.0, 50)),
        ("G[4,3;5,6]",
         MeijerParams(m=4, n=3,
                      a=(-h_exp, 1.0, 0.5, (1 + Z2) / 2, 1 + Z2 / 2),
                      b=(0.5, 1.0, Z2 / 2, (Z2 + 1) / 2, 0.5, 0.0)),
         np.geomspace(1e-5, 0.5, 50)),
        ("G[5,2;4,7]",
         MeijerParams(m=5, n=2, a=phi1, b=phi2),
         np.geomspace(1e-3, 1.0, 50)),
        ("G[5,3;5,7]",
         MeijerParams(m=5, n=3, a=(-h_exp - Z2 / 2,) + phi1, b=phi2),
         np.geomspace(1e-4, 1.0, 50)),
    ]
    for label, p, grid in classes:
        worst = 0.0
        for z in grid:
            series_val = meijer_g(p, float(z))
            contour_val = meijer_g_contour(p, float(z))
            worst = max(worst, _rel(series_val, contour_val))
        assert worst <= 1e-8, f"{label}: worst path disagreement {worst:.3e}"
        # both paths against 40-digit mpmath at the grid's ends and middle,
        # where mpmath.meijerg converges for all six classes
        for z in grid[[0, grid.size // 2, -1]]:
            with mpmath.workdps(40):
                ref = float(mpmath.meijerg([p.a[:p.n], p.a[p.n:]],
                                           [p.b[:p.m], p.b[p.m:]], float(z)))
            assert _rel(meijer_g(p, float(z)), ref) <= 1e-8, (label, z)
            assert _rel(meijer_g_contour(p, float(z)), ref) <= 1e-12, (label, z)

    # upper incomplete gamma against a direct scaled quadrature oracle,
    # Gamma(a, x) = e^{-x} Int_0^inf (x+u)^{a-1} e^{-u} du, split at u = 5x
    # so the near-endpoint peak of negative-a integrands is resolved
    for a in np.arange(-2.9, 3.0, 0.4):
        for x in np.geomspace(0.01, 20.0, 12):
            f = lambda u: (x + u) ** (a - 1.0) * math.exp(-u)
            head, _ = quad(f, 0.0, 5.0 * x, epsabs=0.0, epsrel=1e-13,
                           limit=300)
            tail, _ = quad(f, 5.0 * x, np.inf, epsabs=0.0, epsrel=1e-13,
                           limit=300)
            oracle = math.exp(-x) * (head + tail)
            assert _rel(gamma_upper(float(a), float(x)), oracle) <= 1e-10, \
                f"gamma_upper({a:.1f}, {x:.3g})"


# ------------------------------------------------------------------ gate 2

def test_2_fso_distribution_functions_consistent():
    """CDF vs cumulative pdf quadrature, and samplers vs their CDFs."""
    p = _params(20.0)
    grid = np.geomspace(1e-4, 1e4, 1000)
    cdf_vals = ne_pe_snr_cdf(grid, p)

    def pdf(g):
        return float(ne_pe_snr_pdf(g, p))

    # first piece in sqrt(gamma) to absorb the integrable g^{-1/2} edge
    acc, _ = quad(lambda v: 2.0 * v * pdf(v * v), 0.0,
                  math.sqrt(grid[0]), epsabs=1e-15, epsrel=1e-12, limit=200)
    worst = _rel(acc, cdf_vals[0])
    for i in range(1, grid.size):
        piece, _ = quad(pdf, grid[i - 1], grid[i],
                        epsabs=1e-15, epsrel=1e-12, limit=200)
        acc += piece
        worst = max(worst, _rel(acc, cdf_vals[i]))
    assert worst <= 1e-6, f"cdf vs integrated pdf: worst rel {worst:.3e}"

    rng = np.random.Generator(np.random.Philox(20260816))
    fso = sample_fso_snr(p, rng, size=1_000_000)
    ks_fso = kstest(fso, lambda g: ne_pe_snr_cdf(g, p))
    assert ks_fso.pvalue > 0.01, f"FSO sampler KS p={ks_fso.pvalue:.4f}"

    rf = sample_rf_snr(p.gamma_bar_rf, rng, size=1_000_000)
    ks_rf = kstest(rf, lambda g: rayleigh_snr_cdf(g, p.gamma_bar_rf))
    assert ks_rf.pvalue > 0.01, f"RF sampler KS p={ks_rf.pvalue:.4f}"


# ------------------------------------------------------------------ gate 3

def test_3_series_expansion_matches_gamma_form():
    """Series CDF on its converged domain, and powered coefficients."""
    p = _params(20.0)
    converged_points = 0
    for g in np.geomspace(1e-3, 1e3, 200):
        val, ok = ne_pe_snr_cdf_series(float(g), p, n_max=60)
        if not ok:
            continue
        converged_points += 1
        assert _rel(val, ne_pe_snr_cdf(float(g), p)) <= 1e-8, f"gamma={g}"
    assert converged_points >= 150  # the domain must actually be exercised

    coeffs = series_coeffs(p, 60)
    orders = np.arange(coeffs.e.size) + 1.0
    rng = np.random.default_rng(3)
    gammas = np.exp(rng.uniform(math.log(0.01), math.log(4.0), size=10))
    for k in (0, 1, 2, 3):
        pk = series_power_coeffs(coeffs.e, k)
        for g in gammas:
            y = math.sqrt(g)
            direct = float(np.sum(coeffs.e * y ** orders)) ** k
            recon = float(np.sum(pk * y ** (np.arange(pk.size) + k)))
            assert _rel(recon, direct) <= 1e-10, f"k={k} gamma={g}"


# ------------------------------------------------------------------ gate 4

def test_4_outage_three_way_cross_validation():
    """Closed form vs quadrature (1e-8) vs 1e7-trial MC (3 sigma)."""
    points = []
    for preset in ("fig1", "fig2"):
        spec = spec_from_sources(overrides={
            "preset": preset, "trials": "10000000", "workers": "4"})
        points.extend(run_experiment(spec))
    assert len(points) == 108
    for pt in points:
        tag = (f"{pt.preset} {pt.mode.value} N={pt.n_users} "
               f"lam={pt.lam:.4g} {pt.gamma_avg_db:.0f}dB")
        assert pt.error is None, f"{tag}: {pt.error}"
        assert _rel(pt.closed_form, pt.quadrature) <= 1e-8, tag
        gap = abs(pt.closed_form - pt.mc.mean)
        assert gap <= 3.0 * _mc_sigma(pt.mc), \
            f"{tag}: |closed-mc| = {gap:.3e} > 3 sigma"

    # with adaptive relay gain the closed forms use min(g1, g2) in place
    # of the exact g1 g2 / (g1 + g2 + 1); that bias, measured on common
    # random numbers (one call scores both chains from the same draws),
    # must be positive and shrink as the SNR grows
    sim = SimConfig(trials_or_bits=10_000_000, seed=42, workers=4)
    top = Topology(n_users=2, m_relays=2, first_segment_mode=GainMode.ADAPTIVE)
    levels = [_params(g_db) for g_db in (20.0, 25.0, 30.0, 35.0, 40.0)]
    exact, approx = simulate_outage_curves(
        [(top, "exact"), (top, "min")], levels, sim)
    bias = [e.mean - a.mean for e, a in zip(exact, approx)]
    assert all(b > 0.0 for b in bias), f"bias signs: {bias}"
    assert all(bias[i] > bias[i + 1] for i in range(len(bias) - 1)), \
        f"bias not shrinking: {bias}"


# ------------------------------------------------------------------ gate 5

def test_5_ber_three_way_cross_validation_and_anchor():
    """Closed BER vs quadrature and MC, plus a Rayleigh known truth."""
    # 1e7 bits rather than the 1e6 floor: across 54 fixed-seed points a
    # per-point 3 sigma check trips on pure noise roughly a quarter of
    # the time at 1e6, while at 1e7 any systematic closed-form bias of
    # the size 1e6 could flag would stand out at ~12 sigma instead
    spec = spec_from_sources(overrides={
        "preset": "fig3", "trials": "10000000", "workers": "4"})
    points = run_experiment(spec)
    assert len(points) == 54
    for pt in points:
        tag = (f"{pt.mode.value} M={pt.m_relays} {pt.gamma_avg_db:.0f}dB")
        assert pt.error is None, f"{tag}: {pt.error}"
        res = ber_closed_form(
            Topology(n_users=pt.n_users, m_relays=pt.m_relays,
                     first_segment_mode=pt.mode),
            _params(pt.gamma_avg_db, lam=pt.lam))
        assert res.value == pt.closed_form  # same pure function
        tol = max(1e-6, res.truncation)
        assert abs(pt.closed_form - pt.quadrature) <= tol, \
            f"{tag}: closed vs quadrature {abs(pt.closed_form - pt.quadrature):.3e}"
        gap = abs(pt.closed_form - pt.mc.mean)
        assert gap <= 3.0 * _mc_sigma(pt.mc), \
            f"{tag}: |closed-mc| = {gap:.3e} > 3 sigma"

    # single Rayleigh hop has BER exactly 1/(2(1+gbar)); 4 significant digits
    for gbar in (1.0, 10.0, 100.0):
        val = ber_quadrature(lambda g: rayleigh_snr_cdf(g, gbar))
        ref = 0.5 / (1.0 + gbar)
        assert _rel(val, ref) < 5e-5, f"gbar={gbar}: {val} vs {ref}"


# ------------------------------------------------------------------ gate 6

def test_6_qualitative_trends():
    """More users and more SNR never hurt; relay count washes out."""
    fig1 = run_experiment(spec_from_sources(overrides={
        "preset": "fig1", "methods": "closed-form"}))
    curves = {}
    for pt in fig1:
        curves.setdefault((pt.mode, pt.n_users), []).append(
            (pt.gamma_avg_db, pt.closed_form))
    for (mode, n), curve in curves.items():
        values = [v for _, v in sorted(curve)]
        assert all(a >= b for a, b in zip(values, values[1:])), \
            f"outage not non-increasing in SNR: {mode.value} N={n}"
    by_point = {(pt.mode, pt.gamma_avg_db, pt.n_users): pt.closed_form
                for pt in fig1}
    for mode in (GainMode.ADAPTIVE, GainMode.FIXED):
        for g_db in sorted({pt.gamma_avg_db for pt in fig1}):
            seq = [by_point[(mode, g_db, n)] for n in (1, 2, 4)]
            assert seq[0] >= seq[1] >= seq[2], \
                f"outage not non-increasing in users: {mode.value} {g_db}dB"

    # at high SNR the relay count stops mattering
    for mode in (GainMode.ADAPTIVE, GainMode.FIXED):
        bers = [ber_closed_form(
            Topology(n_users=2, m_relays=m, first_segment_mode=mode),
            _params(40.0)).value for m in (1, 2, 3)]
        assert max(bers) / min(bers) <= 1.2, f"{mode.value}: {bers}"

    # relay-gain knowledge ordering is reported but deliberately not
    # gated: the two labels swap places depending on the SNR region
    p20 = _params(20.0)
    oa = ber_closed_form(
        Topology(2, 2, first_segment_mode=GainMode.ADAPTIVE), p20).value
    of = ber_closed_form(
        Topology(2, 2, first_segment_mode=GainMode.FIXED), p20).value
    print(f"[report only] BER at 20 dB, N=2, M=2: "
          f"known-csi={oa:.6e} unknown-csi={of:.6e}")


# ------------------------------------------------------------------ gate 7

def test_7_preset_reproducibility(tmp_path):
    """Byte-identical CSVs across repeat runs and worker counts."""
    for preset in ("fig1", "fig2", "fig3"):
        blobs = []
        for i, workers in enumerate(("1", "1", "4")):
            out = tmp_path / f"{preset}-{i}.csv"
            spec = spec_from_sources(overrides={
                "preset": preset, "trials": "2000", "workers": workers,
                "out": str(out)})
            run_experiment(spec)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], preset
