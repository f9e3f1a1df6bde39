"""Reference models that only the tests use.

Independent constructions that check the package's routes: the
complex-baseband DBPSK simulator and its SNR-level cascade-XOR twin,
the Rayleigh, selection and FSO link densities, the geometric pointing
sampler, and the one-hop CDF of a decode-and-forward hop.  No CLI sweep
calls them, so they live here and not in fsorf.  The simulators run on
fsorf.montecarlo's batch runner, so they keep its reproducibility
contract: a given (seed, config) gives byte-identical estimates on a
pool of any size.

The file has no test_ prefix, so pytest does not collect it; the tests
import it as a sibling module.
"""

import math

import numpy as np

from fsorf.channels import (_as_float_array, ne_pe_snr_cdf,
                            rayleigh_snr_cdf, sample_fso_snr)
from fsorf.composition import GainMode
from fsorf.montecarlo import (_BATCH, _batches, _dbpsk_error,
                              _normal_estimate, _sums, _wilson_estimate,
                              sample_chain_stage_snrs)
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


def ne_pe_snr_pdf(gamma, params):
    """Density of the FSO SNR gamma = gamma_bar_fso * I^2."""
    z2 = params.zeta
    g = _as_float_array(gamma, "gamma")
    if np.any(g <= 0):
        raise ValueError("gamma must be positive")
    x = params.c * np.sqrt(g)
    out = (params.lam * params.w * g ** (z2 / 2.0 - 1.0)
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

    ((errors, _),) = _batches(cfg, cfg.trials_or_bits, _BATCH,
                              lambda rng, size: [_sums(draw(rng, size))])
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
                           lambda rng, fb: [_sums(draw(rng, fb))])
    return _normal_estimate(s1, s2, n_frames, per_unit=frame)
