"""Reference models that only the tests use.

Independent constructions that check the package's routes: the
per-stage chain sampler, the complex-baseband DBPSK simulator and its
SNR-level cascade-XOR twin, the Rayleigh, selection and FSO link
densities, the geometric pointing sampler, and the one-hop CDF of a
decode-and-forward hop.  No CLI sweep calls them, so they live here and
not in fsorf.  The simulators run on fsorf.montecarlo's batch runner,
so they keep its reproducibility contract: a given (seed, config)
gives byte-identical estimates on a pool of any size.

The file has no test_ prefix, so pytest does not collect it; the tests
import it as a sibling module.
"""

import math
from dataclasses import replace

import numpy as np

from fsorf.channels import (_as_float_array, ne_pe_snr_cdf,
                            rayleigh_snr_cdf, sample_fso_snr, sample_rf_snr)
from fsorf.composition import GainMode, af_adaptive_snr, af_fixed_snr
from fsorf.montecarlo import (_BATCH, _Z95, MetricEstimate, _batches,
                              _dbpsk_error, _wilson_estimate)
from fsorf.special import gamma_upper

_FRAME_BITS = 250           # bits per fading frame at signal level
_FRAMES_PER_BATCH = 200


# ------------------------------------------------------------ link laws

def rayleigh_snr_pdf(gamma, gamma_bar):
    if gamma_bar <= 0:
        raise ValueError("gamma_bar must be positive")
    g = _as_float_array(gamma, "gamma")
    if np.any(g < 0):
        raise ValueError("gamma must be non-negative")
    out = np.exp(-g / gamma_bar) / gamma_bar
    return float(out) if np.isscalar(gamma) else out


def ne_pe_joint_pdf(h, params):
    """Density of the composite gain I = h_a * h_p.

    h_a is the turbulence gain, exponential with rate lam; h_p is the
    pointing-error gain on (0, a0].  The upper incomplete gamma carries a
    negative first argument whenever xi^2 > 1.
    """
    z2 = params.zeta
    hv = _as_float_array(h, "h")
    if np.any(hv <= 0):
        raise ValueError("h must be positive")
    x = params.lam * hv / params.a0
    out = (z2 * params.lam ** z2 / params.a0 ** z2
           * hv ** (z2 - 1.0) * gamma_upper(1.0 - z2, x))
    return float(out) if np.isscalar(h) else out


def snr_pdf_w(params):
    """W, the prefactor of the FSO SNR density (fsorf.channels)."""
    z2 = params.zeta
    return (z2 * params.lam ** (z2 - 1.0)
            / (2.0 * params.a0 ** z2 * params.gamma_bar_fso ** (z2 / 2.0)))


def ne_pe_snr_pdf(gamma, params):
    """Density of the FSO SNR gamma = gamma_bar_fso * I^2."""
    z2 = params.zeta
    g = _as_float_array(gamma, "gamma")
    if np.any(g <= 0):
        raise ValueError("gamma must be positive")
    x = params.c * np.sqrt(g)
    out = (params.lam * snr_pdf_w(params) * g ** (z2 / 2.0 - 1.0)
           * gamma_upper(1.0 - z2, x))
    return float(out) if np.isscalar(gamma) else out


def sample_fso_snr_displacement(params, beam_width, rng, size=None):
    """FSO SNR sampler that builds the pointing gain geometrically.

    Radial displacement r comes from two independent Gaussians with
    sigma_s = beam_width / (2 xi); the gain is a0 exp(-2 r^2 / w^2).
    Same law as sample_fso_snr, kept as an independent construction for
    physical validation.
    """
    if beam_width <= 0:
        raise ValueError("beam_width must be positive")
    sigma_s = beam_width / (2.0 * params.xi)
    gx = rng.standard_normal(size=size)
    gy = rng.standard_normal(size=size)
    r2 = sigma_s * sigma_s * (gx * gx + gy * gy)
    h_p = params.a0 * np.exp(-2.0 * r2 / (beam_width * beam_width))
    u1 = rng.random(size=size)
    h_a = -np.log1p(-u1) / params.lam
    i = h_a * h_p
    return params.gamma_bar_fso * i * i


# ------------------------------------------------------ chain pieces

def multiuser_select_pdf(gamma, n, gamma_bar_rf):
    if n < 1:
        raise ValueError("n must be >= 1")
    f = rayleigh_snr_cdf(gamma, gamma_bar_rf)
    return n * f ** (n - 1) * rayleigh_snr_pdf(gamma, gamma_bar_rf)


def hybrid_hop_cdf(gamma, params):
    """CDF of max(FSO SNR, RF SNR) on one decode-and-forward hop."""
    return ne_pe_snr_cdf(gamma, params) * rayleigh_snr_cdf(
        gamma, params.gamma_bar_rf)


# -------------------------------------------------- chain sampler

def _unit_draws(topology, params, rng, size):
    """The SNR-free draws of `size` chain realizations, in draw order.

    Returns (users, first, hops): the best of the N users' unit-mean RF
    SNRs U, the first-segment unit FSO SNR F = I^2, and one (G_j, R_j)
    pair of unit FSO and unit RF SNRs per remaining hop.  The draws are
    those of the samplers at unit mean: the N user RF branches, the
    first-segment FSO link, then one FSO and one RF draw per hop in hop
    order.  Only lam, a0 and xi of params are read.
    """
    unit = replace(params, gamma_bar_rf=1.0, gamma_bar_fso=1.0)
    users = sample_rf_snr(1.0, rng, size=(topology.n_users, size))
    first = sample_fso_snr(unit, rng, size=size)
    hops = [(sample_fso_snr(unit, rng, size=size),
             sample_rf_snr(1.0, rng, size=size))
            for _ in range(1, topology.m_relays)]
    return users.max(axis=0), first, hops


def sample_chain_stage_snrs(topology, params, rng, size,
                            first_segment="exact"):
    """Draw per-stage SNRs for `size` independent chain realizations.

    Returns an (m_relays, size) array: row 0 the first segment, row j
    the j-th remaining hop, from the unit draws of _unit_draws and
    rho = gamma_bar_rf / gamma_bar_fso.  Row 0 is the relay cascade of
    gamma_bar_rf U and gamma_bar_fso F ("exact", the default), or
    gamma_bar_fso min(rho U, F) ("min", the approximation the closed
    adaptive-gain forms use); row j is gamma_bar_fso max(G_j, rho R_j).
    Its column minimum is, bit for bit, the chain minimum that
    fsorf.montecarlo's curves score, which forms it another way: from
    minima over the unit draws, scaled once per level.
    """
    if first_segment not in ("exact", "min"):
        raise ValueError("first_segment must be 'exact' or 'min'")
    users, first, hops = _unit_draws(topology, params, rng, size)
    rho = params.gamma_bar_rf / params.gamma_bar_fso
    stages = np.empty((topology.m_relays, size))
    if first_segment == "min":
        stages[0] = params.gamma_bar_fso * np.minimum(rho * users, first)
    elif topology.first_segment_mode is GainMode.ADAPTIVE:
        stages[0] = af_adaptive_snr(params.gamma_bar_rf * users,
                                    params.gamma_bar_fso * first)
    else:
        stages[0] = af_fixed_snr(params.gamma_bar_rf * users,
                                 params.gamma_bar_fso * first, params.c_gain)
    for j, (gain, rf) in enumerate(hops, start=1):
        stages[j] = params.gamma_bar_fso * np.maximum(gain, rho * rf)
    return stages


def _plain_sums(vals):
    # the sums of vals and of its squares, as fsorf.montecarlo reduces a
    # batch
    return vals.sum().item(), (vals * vals).sum().item()


# ------------------------------------------------- cascade-XOR BER

def simulate_ber_cascade_xor(topology, params, cfg):
    """DBPSK bit error rate of per-hop detect/regenerate, Wilson 95%.

    Flips a bit at every detection stage with its conditional
    probability exp(-g)/2 and XORs the flips down the chain: the
    SNR-level reference for simulate_ber_signal_level.
    """
    def draw(rng, size):
        flips = np.zeros(size, dtype=bool)
        for stage in sample_chain_stage_snrs(topology, params, rng, size):
            flips ^= rng.random(size) < _dbpsk_error(stage)
        return flips

    ((errors, _),) = _batches(
        cfg, cfg.trials_or_bits, _BATCH,
        lambda rng, size: [_plain_sums(draw(rng, size))])
    return _wilson_estimate(errors, cfg.trials_or_bits)


# ---------------------------------------------------- signal-level BER

def differential_encode(bits):
    """Map bits to DBPSK symbols with a leading +1 reference.

    bits has shape (..., F); the result has shape (..., F + 1) and
    satisfies d[k] = d[k-1] * (1 - 2 b[k]).
    """
    s = 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)
    out = np.ones(s.shape[:-1] + (s.shape[-1] + 1,))
    np.cumprod(s, axis=-1, out=out[..., 1:])
    return out


def differential_detect(symbols):
    """Recover bits by comparing consecutive received symbols."""
    y = np.asarray(symbols)
    z = y[..., 1:] * np.conj(y[..., :-1])
    return z.real < 0.0


def _complex_gaussian(rng, power, shape):
    # circular complex Gaussian with E|z|^2 = power
    z = rng.normal(scale=math.sqrt(power / 2.0), size=(2,) + shape)
    return z[0] + 1j * z[1]


def simulate_ber_signal_level(topology, params, cfg):
    """Complex-baseband DBPSK simulation of the whole chain.

    Channels stay constant over a frame of _FRAME_BITS bits (plus one
    reference symbol) and are redrawn per frame; trials_or_bits counts
    data bits and is rounded up to whole frames.  Per frame and in fixed
    order: data bits, the N user RF gains (best selected), the
    first-segment FSO gain, transmit noise draws, then per remaining hop
    an FSO gain, an RF gain (better branch selected), and that hop's
    noise.  The confidence interval treats frames, not bits, as the
    independent unit, since errors within a frame share the fading state.
    """
    frame = _FRAME_BITS
    n_frames = -(-cfg.trials_or_bits // frame)

    def draw(rng, fb):
        sym = (fb, frame + 1)
        bits = rng.integers(0, 2, size=(fb, frame)).astype(bool)

        users = _complex_gaussian(rng, params.gamma_bar_rf,
                                  (topology.n_users, fb))
        best = np.take_along_axis(
            users, np.abs(users).argmax(axis=0)[None, :], axis=0)[0]
        fso_amp = np.sqrt(sample_fso_snr(params, rng, size=fb))

        d = differential_encode(bits)
        y1 = best[:, None] * d + _complex_gaussian(rng, 1.0, sym)
        if topology.first_segment_mode is GainMode.ADAPTIVE:
            gain = 1.0 / np.sqrt(np.abs(best) ** 2 + 1.0)
        else:
            gain = np.full(fb, 1.0 / math.sqrt(params.c_gain))
        y2 = fso_amp[:, None] * (gain[:, None] * y1) \
            + _complex_gaussian(rng, 1.0, sym)
        decided = differential_detect(y2)

        for _ in range(topology.m_relays - 1):
            hop_fso_snr = sample_fso_snr(params, rng, size=fb)
            hop_rf = _complex_gaussian(rng, params.gamma_bar_rf, (fb,))
            use_fso = hop_fso_snr >= np.abs(hop_rf) ** 2
            hop_gain = np.where(use_fso, np.sqrt(hop_fso_snr) + 0j, hop_rf)
            d = differential_encode(decided)
            y = hop_gain[:, None] * d + _complex_gaussian(rng, 1.0, sym)
            decided = differential_detect(y)

        return (decided != bits).sum(axis=1)    # bit errors per frame

    ((s1, s2),) = _batches(cfg, n_frames, _FRAMES_PER_BATCH,
                           lambda rng, fb: [_plain_sums(draw(rng, fb))])
    # a normal interval over frames, scaled to a per-bit rate
    frame_mean = s1 / n_frames
    var = max(s2 / n_frames - frame_mean * frame_mean, 0.0)
    half = _Z95 * math.sqrt(var / n_frames) / frame
    n = n_frames * frame
    mean = s1 / n
    return MetricEstimate(mean=mean, ci_low=max(mean - half, 0.0),
                          ci_high=min(mean + half, 1.0), n=n)
