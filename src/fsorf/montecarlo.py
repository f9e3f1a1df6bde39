"""Monte-Carlo simulation of the relay chain: four estimators.

simulate_outage, simulate_ber_snr_level and simulate_ber_cascade_xor
draw one (m_relays, size) array of stage SNRs and apply the threshold
test, the DBPSK conditional error kernel of the chain minimum, or one
XORed bit flip per detection stage.  simulate_ber_signal_level pushes
complex-baseband DBPSK symbols through the sampled channel gains and
counts the bit errors of differential detection.  Each is a
draw(rng, size) body plus a Wilson or normal interval builder.

One core, _moments, holds the reproducibility contract: work is cut
into fixed-size batches, batch i draws from its own counter-based
Philox stream keyed (seed, i), each batch is reduced to numpy's sums of
its values and their squares, and batch sums are added in batch order.
None of that depends on the worker count, so a given (seed, config)
gives byte-identical estimates serially or on a pool.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import sample_fso_snr, sample_rf_snr
from .composition import GainMode, af_adaptive_snr, af_fixed_snr

_BATCH = 1 << 16
_FRAME_BITS = 250           # bits per fading frame at signal level
_FRAMES_PER_BATCH = 200
_Z95 = 1.959963984540054    # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs shared by every estimator.

    trials_or_bits counts chain trials for SNR-level runs and
    transmitted data bits for signal-level runs (rounded up to whole
    fading frames there).  seed keys the per-batch random streams, and
    workers threads the batches without changing any estimate.
    """

    trials_or_bits: int = 1_000_000
    seed: int = 42
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.trials_or_bits, int) or isinstance(
                self.trials_or_bits, bool):
            raise ValueError("trials_or_bits must be an integer")
        if self.trials_or_bits < 1000:
            raise ValueError("trials_or_bits must be at least 1000")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not isinstance(self.workers, int) or isinstance(
                self.workers, bool) or self.workers < 1:
            raise ValueError("workers must be a positive integer")


@dataclass(frozen=True)
class MetricEstimate:
    """A Monte-Carlo metric value with its trial count and 95% interval."""

    mean: float
    ci_low: float
    ci_high: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.ci_low)
                and math.isfinite(self.ci_high)):
            raise ValueError("estimate fields must be finite")
        if not self.ci_low <= self.mean <= self.ci_high:
            raise ValueError("interval must bracket the mean")
        if not isinstance(self.n, int) or isinstance(self.n, bool) \
                or self.n < 0:
            raise ValueError("n must be a non-negative integer")


def wilson_interval(successes, n):
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    p = successes / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    # the bound is exactly 0 (resp. 1) at the empirical edges; keep the
    # roundoff of center - half from leaking through
    low = 0.0 if successes == 0 else max(center - half, 0.0)
    high = 1.0 if successes == n else min(center + half, 1.0)
    return low, high


def _stream(seed, index):
    # one independent counter-based stream per batch; the key pair makes
    # streams for distinct (seed, batch) disjoint by construction
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _moments(cfg, total, batch, draw):
    """Sums of draw(rng, size) and of its squares over `total` units.

    Units are cut into batches of `batch` (the last one partial), batch
    i draws from _stream(cfg.seed, i), and batches run serially or on
    cfg.workers threads.  Every draw (0/1 flags, integer counts, float
    kernels) is reduced alike, by numpy's sums of the values and of their
    squares as Python scalars: exact ints for bool and integer draws, and
    no BLAS call to fight the pool for the cores.  Batch sums are added
    in batch order with plain +=, not sum() (compensated from Python
    3.12), so the bytes match for any worker count.
    """
    sizes = [min(batch, total - k) for k in range(0, total, batch)]
    errstate = np.geterr()      # pool threads start from numpy's defaults

    def one_batch(i):
        with np.errstate(**errstate):
            vals = draw(_stream(cfg.seed, i), sizes[i])
            return vals.sum().item(), (vals * vals).sum().item()

    if cfg.workers == 1 or len(sizes) == 1:
        parts = map(one_batch, range(len(sizes)))
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(one_batch, range(len(sizes))))
    s1 = s2 = 0     # 0 + x == x, so an int or a float sum keeps its type
    for a, b in parts:
        s1 += a
        s2 += b
    return s1, s2


def _wilson_estimate(hits, n):
    """Proportion of n 0/1 outcomes with its Wilson 95% interval."""
    low, high = wilson_interval(hits, n)
    return MetricEstimate(mean=hits / n, ci_low=low, ci_high=high, n=n)


def _normal_estimate(s1, s2, units, per_unit=1):
    """Per-bit mean and normal 95% interval from the sums s1, s2 of a
    per-unit value and its square over `units` units of per_unit bits."""
    unit_mean = s1 / units
    var = max(s2 / units - unit_mean * unit_mean, 0.0)
    half = _Z95 * math.sqrt(var / units) / per_unit
    n = units * per_unit
    mean = s1 / n
    return MetricEstimate(mean=mean, ci_low=max(mean - half, 0.0),
                          ci_high=min(mean + half, 1.0), n=n)


# ---------------------------------------------------------- chain draws

def sample_chain_stage_snrs(topology, params, rng, size,
                            first_segment="exact"):
    """Draw per-stage SNRs for `size` independent chain realizations.

    Returns an (m_relays, size) array: row 0 the first segment, row j
    the j-th remaining hop.  Draw order is fixed: the N user RF branches,
    the first-segment FSO link, then one FSO and one RF draw per hop in
    hop order.  first_segment selects the exact relay cascade ("exact",
    the default) or the min of the two segment SNRs ("min", the
    approximation the closed adaptive-gain forms use).
    """
    if first_segment not in ("exact", "min"):
        raise ValueError("first_segment must be 'exact' or 'min'")
    stages = np.empty((topology.m_relays, size))
    g1 = sample_rf_snr(params.gamma_bar_rf, rng,
                       size=(topology.n_users, size)).max(axis=0)
    g2 = sample_fso_snr(params, rng, size=size)
    if first_segment == "min":
        stages[0] = np.minimum(g1, g2)
    elif topology.first_segment_mode is GainMode.ADAPTIVE:
        stages[0] = af_adaptive_snr(g1, g2)
    else:
        stages[0] = af_fixed_snr(g1, g2, params.c_gain)
    for j in range(1, topology.m_relays):
        fso = sample_fso_snr(params, rng, size=size)
        rf = sample_rf_snr(params.gamma_bar_rf, rng, size=size)
        stages[j] = np.maximum(fso, rf)
    return stages


def sample_chain_min_snr(topology, params, rng, size, first_segment="exact"):
    """Minimum stage SNR over `size` chain realizations."""
    return sample_chain_stage_snrs(topology, params, rng, size,
                                   first_segment).min(axis=0)


# --------------------------------------------------------------- outage

def simulate_outage(topology, params, cfg, first_segment="exact"):
    """Outage frequency of the chain with a Wilson 95% interval.

    A trial is an outage when any stage SNR falls below gamma_th,
    equivalently when the chain minimum does.
    """
    def draw(rng, size):
        return sample_chain_min_snr(topology, params, rng, size,
                                    first_segment) < params.gamma_th

    hits, _ = _moments(cfg, cfg.trials_or_bits, _BATCH, draw)
    return _wilson_estimate(hits, cfg.trials_or_bits)


# ------------------------------------------------------- SNR-level BER

def simulate_ber_snr_level(topology, params, cfg, first_segment="exact"):
    """DBPSK bit error rate from per-stage SNR draws.

    Averages the conditional kernel exp(-g)/2 of the chain-minimum SNR,
    which is exactly the quantity the closed forms integrate.
    """
    def draw(rng, size):
        return 0.5 * np.exp(-sample_chain_min_snr(topology, params, rng,
                                                  size, first_segment))

    s1, s2 = _moments(cfg, cfg.trials_or_bits, _BATCH, draw)
    return _normal_estimate(s1, s2, cfg.trials_or_bits)


def simulate_ber_cascade_xor(topology, params, cfg):
    """DBPSK bit error rate of per-hop detect/regenerate, Wilson 95%.

    Flips a bit at every detection stage with its conditional
    probability exp(-g)/2 and XORs the flips down the chain: the
    SNR-level reference for simulate_ber_signal_level.
    """
    def draw(rng, size):
        flips = np.zeros(size, dtype=bool)
        for stage in sample_chain_stage_snrs(topology, params, rng, size):
            flips ^= rng.random(size) < 0.5 * np.exp(-stage)
        return flips

    errors, _ = _moments(cfg, cfg.trials_or_bits, _BATCH, draw)
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
    reference symbol) and are redrawn per frame; trials_or_bits is
    rounded up to whole frames.  Per frame and in fixed order: data
    bits, the N user RF gains (best selected), the first-segment FSO
    gain, transmit noise draws, then per remaining hop an FSO gain, an
    RF gain (better branch selected), and that hop's noise.  The
    confidence interval treats frames, not bits, as the independent
    unit, since errors within a frame share the fading state.
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

    s1, s2 = _moments(cfg, n_frames, _FRAMES_PER_BATCH, draw)
    return _normal_estimate(s1, s2, n_frames, per_unit=frame)
