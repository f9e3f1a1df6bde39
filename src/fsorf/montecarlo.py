"""Monte-Carlo simulation of the relay chain.

Two estimator families live here.  SNR-level simulation draws per-stage
SNRs and applies either the threshold test (outage) or the DBPSK
conditional error kernel (bit error rate) directly.  Signal-level
simulation pushes complex-baseband DBPSK symbols through the sampled
channel gains: amplify-and-forward on the first segment, per-hop
branch selection plus detect/regenerate on the remaining hops, and
counts actual bit errors from differential detection.

Reproducibility contract: work is cut into fixed-size batches and batch
i is generated by its own counter-based Philox stream keyed (seed, i).
Batch boundaries, per-batch draw order, and the reduction order never
depend on the worker count, so a given (seed, config) produces
byte-identical estimates whether run serially or on a pool.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import sample_fso_snr, sample_rf_snr
from .composition import GainMode, af_adaptive_snr, af_fixed_snr

_BATCH = 1 << 16
_FRAME_BITS = 250           # bits per fading frame at signal level
_FRAMES_PER_BATCH = 200
_Z95 = 1.959963984540054    # two-sided 95% normal quantile

METHOD_CLOSED = "closed-form"
METHOD_QUADRATURE = "quadrature"
METHOD_MC = "monte-carlo"
_METHODS = (METHOD_CLOSED, METHOD_QUADRATURE, METHOD_MC)


class BerModel(Enum):
    """Error-rate interpretation of the decode-and-forward chain."""

    MIN_SNR_EQUIVALENT = "min-snr-equivalent"
    CASCADE_XOR = "cascade-xor"


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs shared by every estimator.

    trials_or_bits counts chain trials for SNR-level runs and
    transmitted data bits for signal-level runs (rounded up to whole
    fading frames there).
    """

    trials_or_bits: int = 1_000_000
    seed: int = 42
    workers: int = 1
    ber_model: BerModel = BerModel.MIN_SNR_EQUIVALENT

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
        if not isinstance(self.ber_model, BerModel):
            raise ValueError("ber_model must be a BerModel")


@dataclass(frozen=True)
class MetricEstimate:
    """A metric value labeled with the route that produced it.

    Monte-Carlo estimates carry the trial count and a 95% confidence
    interval; analytic methods collapse the interval onto the value.
    """

    mean: float
    ci_low: float
    ci_high: float
    n: int
    method: str

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if not (math.isfinite(self.mean) and math.isfinite(self.ci_low)
                and math.isfinite(self.ci_high)):
            raise ValueError("estimate fields must be finite")
        if not self.ci_low <= self.mean <= self.ci_high:
            raise ValueError("interval must bracket the mean")
        if not isinstance(self.n, int) or isinstance(self.n, bool) \
                or self.n < 0:
            raise ValueError("n must be a non-negative integer")

    @classmethod
    def exact(cls, value, method):
        """Wrap an analytic value with a degenerate interval."""
        return cls(mean=value, ci_low=value, ci_high=value, n=0,
                   method=method)


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


def _batch_sizes(total, batch):
    sizes = [batch] * (total // batch)
    if total % batch:
        sizes.append(total % batch)
    return sizes


def _run_batches(worker, n_batches, workers):
    if workers == 1 or n_batches == 1:
        return [worker(i) for i in range(n_batches)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(n_batches)))


# ---------------------------------------------------------- chain draws

def sample_chain_stage_snrs(topology, params, rng, size,
                            first_segment="exact"):
    """Draw per-stage SNRs for `size` independent chain realizations.

    Returns (first, hops) where first has shape (size,) and hops has
    shape (m_relays - 1, size).  Draw order is fixed: the N user RF
    branches, the first-segment FSO link, then one FSO and one RF draw
    per remaining hop in hop order.  first_segment selects the exact
    relay cascade ("exact", the default) or the min of the two segment
    SNRs ("min", the approximation the closed adaptive-gain forms use).
    """
    if first_segment not in ("exact", "min"):
        raise ValueError("first_segment must be 'exact' or 'min'")
    g1 = sample_rf_snr(params.gamma_bar_rf, rng,
                       size=(topology.n_users, size)).max(axis=0)
    g2 = sample_fso_snr(params, rng, size=size)
    if first_segment == "min":
        first = np.minimum(g1, g2)
    elif topology.first_segment_mode is GainMode.ADAPTIVE:
        first = af_adaptive_snr(g1, g2)
    else:
        first = af_fixed_snr(g1, g2, params.c_gain)
    hops = np.empty((topology.m_relays - 1, size))
    for j in range(topology.m_relays - 1):
        fso = sample_fso_snr(params, rng, size=size)
        rf = sample_rf_snr(params.gamma_bar_rf, rng, size=size)
        hops[j] = np.maximum(fso, rf)
    return first, hops


def sample_chain_min_snr(topology, params, rng, size, first_segment="exact"):
    """Minimum stage SNR over `size` chain realizations."""
    first, hops = sample_chain_stage_snrs(topology, params, rng, size,
                                          first_segment)
    if hops.shape[0]:
        return np.minimum(first, hops.min(axis=0))
    return first


# --------------------------------------------------------------- outage

def simulate_outage(topology, params, cfg, first_segment="exact"):
    """Outage frequency of the chain with a Wilson 95% interval.

    A trial is an outage when any stage SNR falls below gamma_th,
    equivalently when the chain minimum does.
    """
    sizes = _batch_sizes(cfg.trials_or_bits, _BATCH)
    gth = params.gamma_th

    def one_batch(i):
        rng = _stream(cfg.seed, i)
        chain = sample_chain_min_snr(topology, params, rng, sizes[i],
                                     first_segment)
        return int(np.count_nonzero(chain < gth))

    counts = _run_batches(one_batch, len(sizes), cfg.workers)
    n = cfg.trials_or_bits
    successes = sum(counts)
    low, high = wilson_interval(successes, n)
    return MetricEstimate(mean=successes / n, ci_low=low, ci_high=high,
                          n=n, method=METHOD_MC)


# ------------------------------------------------------- SNR-level BER

def simulate_ber_snr_level(topology, params, cfg, first_segment="exact"):
    """DBPSK bit error rate from per-stage SNR draws.

    MinSnrEquivalent averages the conditional kernel exp(-g)/2 of the
    chain-minimum SNR, which is exactly the quantity the closed forms
    integrate.  CascadeXor instead flips a bit independently at every
    detection stage with its own conditional probability and XORs the
    flips down the chain, modelling per-hop demodulate/regenerate.
    """
    sizes = _batch_sizes(cfg.trials_or_bits, _BATCH)
    n = cfg.trials_or_bits

    if cfg.ber_model is BerModel.MIN_SNR_EQUIVALENT:

        def one_batch(i):
            rng = _stream(cfg.seed, i)
            chain = sample_chain_min_snr(topology, params, rng, sizes[i],
                                         first_segment)
            vals = 0.5 * np.exp(-chain)
            return float(vals.sum()), float(vals @ vals)

        parts = _run_batches(one_batch, len(sizes), cfg.workers)
        s1 = 0.0
        s2 = 0.0
        for a, b in parts:
            s1 += a
            s2 += b
        mean = s1 / n
        var = max(s2 / n - mean * mean, 0.0)
        half = _Z95 * math.sqrt(var / n)
        return MetricEstimate(mean=mean, ci_low=max(mean - half, 0.0),
                              ci_high=min(mean + half, 1.0), n=n,
                              method=METHOD_MC)

    def one_batch(i):
        rng = _stream(cfg.seed, i)
        first, hops = sample_chain_stage_snrs(topology, params, rng,
                                              sizes[i], first_segment)
        flips = rng.random(sizes[i]) < 0.5 * np.exp(-first)
        for hop in hops:
            flips ^= rng.random(sizes[i]) < 0.5 * np.exp(-hop)
        return int(np.count_nonzero(flips))

    counts = _run_batches(one_batch, len(sizes), cfg.workers)
    errors = sum(counts)
    low, high = wilson_interval(errors, n)
    return MetricEstimate(mean=errors / n, ci_low=low, ci_high=high,
                          n=n, method=METHOD_MC)


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


def _complex_noise(rng, shape):
    z = rng.normal(scale=math.sqrt(0.5), size=(2,) + shape)
    return z[0] + 1j * z[1]


def _rayleigh_gains(rng, gamma_bar, shape):
    z = rng.normal(scale=math.sqrt(gamma_bar / 2.0), size=(2,) + shape)
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
    n_bits = n_frames * frame
    sizes = _batch_sizes(n_frames, _FRAMES_PER_BATCH)
    adaptive = topology.first_segment_mode is GainMode.ADAPTIVE

    def one_batch(i):
        rng = _stream(cfg.seed, i)
        fb = sizes[i]
        bits = rng.integers(0, 2, size=(fb, frame)).astype(bool)

        users = _rayleigh_gains(rng, params.gamma_bar_rf,
                                (topology.n_users, fb))
        best = np.take_along_axis(
            users, np.abs(users).argmax(axis=0)[None, :], axis=0)[0]
        fso_amp = np.sqrt(sample_fso_snr(params, rng, size=fb))

        d = differential_encode(bits)
        y1 = best[:, None] * d + _complex_noise(rng, (fb, frame + 1))
        if adaptive:
            gain = 1.0 / np.sqrt(np.abs(best) ** 2 + 1.0)
        else:
            gain = np.full(fb, 1.0 / math.sqrt(params.c_gain))
        y2 = fso_amp[:, None] * (gain[:, None] * y1) \
            + _complex_noise(rng, (fb, frame + 1))
        decided = differential_detect(y2)

        for _ in range(topology.m_relays - 1):
            hop_fso_snr = sample_fso_snr(params, rng, size=fb)
            hop_rf = _rayleigh_gains(rng, params.gamma_bar_rf, (fb,))
            use_fso = hop_fso_snr >= np.abs(hop_rf) ** 2
            hop_gain = np.where(use_fso, np.sqrt(hop_fso_snr) + 0j, hop_rf)
            d = differential_encode(decided)
            y = hop_gain[:, None] * d + _complex_noise(rng, (fb, frame + 1))
            decided = differential_detect(y)

        per_frame = (decided != bits).sum(axis=1)
        return int(per_frame.sum()), float((per_frame.astype(float) ** 2).sum())

    parts = _run_batches(one_batch, len(sizes), cfg.workers)
    total = 0
    total_sq = 0.0
    for e, e2 in parts:
        total += e
        total_sq += e2
    mean = total / n_bits
    frame_mean = total / n_frames
    frame_var = max(total_sq / n_frames - frame_mean * frame_mean, 0.0)
    half = _Z95 * math.sqrt(frame_var / n_frames) / frame
    return MetricEstimate(mean=mean, ci_low=max(mean - half, 0.0),
                          ci_high=min(mean + half, 1.0), n=n_bits,
                          method=METHOD_MC)
