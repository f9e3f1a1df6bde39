"""Monte-Carlo simulation of the relay chain: two estimators.

simulate_outage and simulate_ber_snr_level apply the threshold test or
the DBPSK conditional error kernel to the chain minimum of each trial,
and end in a Wilson or normal interval builder.

Common random numbers, drawn once per chain group (random stream v2):
simulate_outage_curves and simulate_ber_snr_level_curves score every
average-SNR level of every chain of one user count from the same draws.
Every stage SNR is its mean times a unit draw, so each batch draws the
unit quantities once: the users' best unit RF SNR U, the first-segment
unit FSO SNR F, and each hop's unit FSO SNR G_j and RF SNR R_j, up to
the deepest chain's last hop; a shallower chain's draws are a prefix of
these.  The batch body scores levels of one ratio rho = gamma_bar_rf /
gamma_bar_fso: it draws each hop's RF SNR as rho R_j and reduces the hops
to the gamma-bar-free minimum of each depth d, H_d = min_{j<=d}
max(G_j, rho R_j), and once every hop is drawn it scores level by level
(levels of R ratios get R bodies on the same streams, so they draw R
times).  A level only scales, and each gain mode samples the law its
closed forms compute: a d-hop known-csi chain's minimum is gamma_bar_fso
min(rho U, F, H_d), the min(g1, g2) model of the adaptive relay, and an
unknown-csi chain's the smaller of the fixed-gain relay cascade of
gamma_bar_rf U and gamma_bar_fso F and gamma_bar_fso H_d.  So each batch
forms one cascade per level, which every unknown-csi relay count shares,
and one min(rho U, F, H_d) per depth.  A correctly rounded product with
a positive factor is monotone, so it commutes exactly with min and max:
each level's chain minimum is bit for bit the smallest stage SNR drawn
at that level alone, which the tests check against a per-stage sampler
of their own.  simulate_outage and simulate_ber_snr_level are the
one-chain, one-level case, and sample_chain_min_snr is one batch of it
that returns the chain minimum.  Every pool thread of a body keeps one
workspace of max(1 + N, 5 + D) rows for the body's life, D being the
deepest chain's hop count (_chain_batch has the layout), so no batch
after a thread's first allocates an array of batch size.

One batch runner, _batches, holds the reproducibility contract: work is
cut into fixed-size batches run by one pool of `workers` threads, batch
i draws from its own counter-based Philox stream keyed (seed, i), each
batch reduces each slot (a curve level, or an estimator's one value) to
numpy's sums of its values and their squares or to an exception, and a
slot's batch sums are added in batch order.  None of that depends on
the worker count, so a given (seed, config) gives byte-identical
estimates on a pool of any size.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channels import sample_fso_snr, sample_rf_snr
from .composition import GainMode, af_fixed_snr

_BATCH = 1 << 16
_Z95 = 1.959963984540054    # two-sided 95% normal quantile
# exp(-g) is a normal double up to g = 708.39, and rounds to 0 past 745.14;
# a vector exp meets a subnormal result only past _EXP_FAST
_EXP_FAST = 700.0
_EXP_ZERO = 746.0


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs shared by every estimator.

    trials_or_bits counts chain trials (the signal-level reference
    simulator of the tests reads it as data bits).  seed keys the
    per-batch random streams, and workers threads the batches without
    changing any estimate.
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


def _batches(cfg, total, batch, work):
    """Per-slot totals of work(rng, size) over the batches of `total` units.

    Units are cut into batches of `batch` (the last one partial), batch
    i draws from _stream(cfg.seed, i), and every batch goes to one
    pool of cfg.workers threads under the caller's numpy error state.  work
    returns one slot per estimate: the _sums pair of its batch, or an
    exception.  Each slot's total is the batch-order + of its pairs, or
    its first exception in batch order; plain +, not sum() (compensated
    from Python 3.12), so the bytes match for any worker count.  An
    exception that work raises is raised at its batch's turn.
    """
    sizes = [min(batch, total - k) for k in range(0, total, batch)]
    errstate = np.geterr()      # pool threads start from numpy's defaults

    def one_batch(i):
        with np.errstate(**errstate):
            return work(_stream(cfg.seed, i), sizes[i])

    # only a slot's first exception is kept, so the others and the batch
    # arrays their tracebacks hold are freed batch by batch
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        parts = pool.map(one_batch, range(len(sizes)))
        totals = next(parts)
        for part in parts:
            totals = [old if isinstance(old, Exception)
                      else new if isinstance(new, Exception)
                      else (old[0] + new[0], old[1] + new[1])
                      for old, new in zip(totals, part)]
    return totals


def _sums(vals, out):
    """numpy's sums of vals and of its squares, as Python scalars: exact
    ints for 0/1 flags and integer counts, and no BLAS call to fight the
    pool for the cores.  The squares go into out, which may be vals."""
    return vals.sum().item(), np.multiply(vals, vals, out=out).sum().item()


def _wilson_estimate(hits, n):
    """Proportion of n 0/1 outcomes with its Wilson 95% interval."""
    low, high = wilson_interval(hits, n)
    return MetricEstimate(mean=hits / n, ci_low=low, ci_high=high, n=n)


def _normal_estimate(s1, s2, n):
    """Mean and normal 95% interval from the sums s1, s2 of n values and
    of their squares."""
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    half = _Z95 * math.sqrt(var / n)
    return MetricEstimate(mean=mean, ci_low=max(mean - half, 0.0),
                          ci_high=min(mean + half, 1.0), n=n)


# ---------------------------------------------------------------- curves

def _exact_first(params, users, first, out):
    """The fixed-gain relay cascade SNR of the first segment at params.

    users and first are the unit SNRs U and F.  out, three float rows,
    takes the place of new arrays: gamma_bar_rf U, gamma_bar_fso F and
    the cascade land in its rows.
    """
    g1 = np.multiply(params.gamma_bar_rf, users, out=out[0])
    g2 = np.multiply(params.gamma_bar_fso, first, out=out[1])
    return af_fixed_snr(g1, g2, params.c_gain, out=out[2])


def _unit_min(rho, users, first, out):
    """min(rho U, F), the known-csi first segment over gamma_bar_fso."""
    low = np.multiply(rho, users, out=out)
    return np.minimum(low, first, out=low)


def _chain_batch(chains, levels, score, width, threads):
    """The batch body of a curve: one_batch(rng, size), size <= width.

    chains holds topologies of one user count, and levels LinkParams of
    one ratio rho = gamma_bar_rf / gamma_bar_fso and one FSO law.
    one_batch draws `size` trials from rng and returns, chain-major, one
    slot per (chain, level): the _sums pair of the scores of that
    chain's minimum at that level, or the exception its draws or scores
    raised.  score(low, params, out, scratch) returns the scores of the
    chain minimum `low` at level params; out is low's own row, so the
    scores may replace the minimum in place, and scratch is a float row
    it may overwrite.  The scores are written into out or scratch, or a
    view of either in another dtype, and their squares replace them once
    they are summed.  An exception of a draw, the overflow of a hop's
    rho R_j among them, counts for the chains that reach that draw.

    Each thread that calls one_batch keeps one workspace, width wide, in
    a threading.local: it takes one of the `threads` made here at its
    first batch, or makes its own, and all die with one_batch.  A batch
    writes every array into its workspace's rows, D being the deepest
    chain's hop count:

        row 0                U
        rows 1 to N          the users' (N, size) draw, until U is formed
        row 1                F
        rows 2 to 1+D        H_1 to H_D
        rows 2+D to 4+D      the rows A, B and C

    A batch first draws every hop: G_j into A, with B as the draw's
    scratch, and rho R_j into H_j's row, where it becomes H_j =
    min(H_{j-1}, max(G_j, rho R_j)).  Then it scores.  With an
    unknown-csi chain, level by level: the fixed-gain relay cascade of
    gamma_bar_rf U (in A) and gamma_bar_fso F (in B) lands in C once,
    each deeper unknown-csi chain scores min(C, gamma_bar_fso H_d) in A,
    and a one-relay one scores C itself, last.  Per depth with a
    known-csi chain: min(rho U, F, H_d) lands in C once, and each level
    scores gamma_bar_fso times it in A.  So score meets each chain's
    levels in order.  Scaling by a positive level mean commutes exactly
    with min and max, so each lane's minimum is bit for bit the smallest
    stage SNR drawn at its level alone (tests/reference_models.py has
    that per-stage sampler).
    """
    n_users = chains[0].n_users
    depth = max(t.m_relays for t in chains) - 1
    rho = levels[0].gamma_bar_rf / levels[0].gamma_bar_fso
    free = 2 + depth        # row A; B and C follow
    n_rows = max(1 + n_users, free + 3)
    # the scoring plan: the chains of each gain mode and depth, as such
    # chains have one minimum and share its scores
    fixed, adaptive = {}, {}
    for c, topology in enumerate(chains):
        group = (adaptive if topology.first_segment_mode is GainMode.ADAPTIVE
                 else fixed)
        group.setdefault(topology.m_relays - 1, []).append(c)
    fixed = sorted(fixed.items(), reverse=True)     # deepest first
    spares = [np.empty(n_rows * width) for _ in range(threads)]
    local = threading.local()
    unit = replace(levels[0], gamma_bar_rf=1.0, gamma_bar_fso=1.0)
    n_levels = len(levels)

    def one_batch(rng, size):
        try:
            workspace = local.workspace
        except AttributeError:
            try:
                workspace = spares.pop()
            except IndexError:      # a thread the count missed
                workspace = np.empty(n_rows * width)
            local.workspace = workspace
        rows = workspace[:n_rows * size].reshape(n_rows, size)
        best, first = rows[0], rows[1]
        row_a, row_b, row_c = rows[free:free + 3]
        sums = [None] * (len(chains) * n_levels)       # chain-major
        reached, drawn = -1, None       # hops drawn, and a draw's exception
        try:
            users = sample_rf_snr(1.0, rng, (n_users, size),
                                  out=rows[1:1 + n_users])
            np.max(users, axis=0, out=best)
            sample_fso_snr(unit, rng, size, out=rows[1:3])
            reached = 0
            for j in range(1, depth + 1):
                sample_fso_snr(unit, rng, size, out=rows[free:free + 2])
                stage = sample_rf_snr(rho, rng, size, out=rows[1 + j])
                np.maximum(row_a, stage, out=stage)
                if j > 1:
                    np.minimum(rows[j], stage, out=stage)
                reached = j
        except Exception as exc:
            drawn = exc

        def scored(params, form, scratch):
            # the _sums pair of the scores of the chain minimum form()
            # leaves in its row, or the exception forming or scoring raised
            try:
                low = form()
                vals = score(low, params, low, scratch)
                return _sums(vals, vals)
            except Exception as exc:
                return exc

        def put(members, k, cell):
            for c in members:
                sums[c * n_levels + k] = cell

        for k, params in enumerate(levels):
            cascade = None      # formed for the first chain to score
            for d, members in fixed:
                cell = drawn if d > reached else None
                if cell is None and cascade is None:
                    try:
                        cascade = _exact_first(params, best, first,
                                               out=(row_a, row_b, row_c))
                    except Exception as exc:
                        cascade = exc
                if cell is None and isinstance(cascade, Exception):
                    cell = cascade
                elif cell is None and d:
                    cell = scored(params, lambda: np.minimum(
                        cascade, np.multiply(params.gamma_bar_fso,
                                             rows[1 + d], out=row_a),
                        out=row_a), row_b)
                elif cell is None:      # in place, as nothing follows
                    cell = scored(params, lambda: cascade, row_a)
                put(members, k, cell)
        for d, members in adaptive.items():
            cell = drawn if d > reached else None
            if cell is None:
                try:
                    _unit_min(rho, best, first, out=row_c)
                    if d:
                        np.minimum(rows[1 + d], row_c, out=row_c)
                except Exception as exc:
                    cell = exc
            for k, params in enumerate(levels):
                put(members, k, cell or scored(
                    params, lambda: np.multiply(params.gamma_bar_fso,
                                                row_c, out=row_a), row_b))
        return sums

    return one_batch


def _curve(chains, levels, cfg, score, estimate):
    """estimate(s1, s2) of the scores of each chain minimum at every level.

    chains and score are as in _chain_batch, and levels may hold any
    ratios gamma_bar_rf / gamma_bar_fso; the result holds, per chain,
    one estimate per level.  s1 and s2 are the sums of the score and of
    its square over cfg.trials_or_bits trials.  A (chain, level) slot
    that raises in a batch gets, in place of its estimate, its first
    exception in batch order.  Each distinct ratio, in order of first
    appearance, gets its own batch body on the same streams, so levels
    of R ratios draw R times.
    """
    law = (levels[0].lam, levels[0].a0, levels[0].xi)
    if any((p.lam, p.a0, p.xi) != law for p in levels):
        raise ValueError("the levels of a curve share their draws, so they "
                         "must have equal lam, a0 and xi")
    if len({t.n_users for t in chains}) != 1:
        raise ValueError("the chains of a call share their draws, so they "
                         "must be one or more of equal n_users")
    # one workspace per pool thread, made here on the calling thread: a
    # block a pool thread allocates lands in that thread's malloc arena,
    # which keeps it when freed, and the pools of later calls may get
    # fresh arenas.  The pool starts a thread only for a batch no idle
    # thread takes, so it has at most one per batch; np.empty touches no
    # page, so an unused workspace costs none
    threads = min(cfg.workers, -(-cfg.trials_or_bits // _BATCH))
    groups = {}         # ratio -> the indices of its levels
    for k, p in enumerate(levels):
        groups.setdefault(p.gamma_bar_rf / p.gamma_bar_fso, []).append(k)
    curves = [[None] * len(levels) for _ in chains]
    for ks in groups.values():
        one_batch = _chain_batch(chains, [levels[k] for k in ks], score,
                                 min(_BATCH, cfg.trials_or_bits), threads)
        cells = iter(_batches(cfg, cfg.trials_or_bits, _BATCH, one_batch))
        for curve in curves:        # chain-major, as one_batch returns
            for k in ks:
                t = next(cells)
                curve[k] = t if isinstance(t, Exception) else estimate(*t)
    return curves


def sample_chain_min_snr(topology, params, rng, size):
    """Minimum stage SNR over `size` chain realizations drawn from rng,
    in the law of simulate_outage.

    One batch of the one-chain curve at params alone, on a workspace
    `size` wide: the chain minimum that curve scores, or the exception
    it records, raised.
    """
    lows = []

    def keep(low, p, out, scratch):
        lows.append(low.copy())     # not a view that keeps the workspace
        return low[:0]      # no scores, so no sum can overflow

    (cell,) = _chain_batch([topology], [params], keep, size, 1)(rng, size)
    if isinstance(cell, Exception):
        raise cell
    return lows[0]


def _one_level(curves):
    ((estimate,),) = curves
    if isinstance(estimate, Exception):
        raise estimate
    return estimate


# --------------------------------------------------------------- outage

def simulate_outage_curves(chains, levels, cfg):
    """simulate_outage of every Topology of `chains` at every LinkParams
    of `levels`, all from one draw set.

    The levels may differ in gamma_bar_rf, gamma_bar_fso, gamma_th and
    c_gain, and must share lam, a0 and xi; the chains must share
    n_users (ValueError otherwise), and may differ in m_relays and gain
    mode.  Returns one curve per chain: per level, the MetricEstimate
    that simulate_outage gives at that level alone, or in its place the
    exception that level raised.
    """
    n = cfg.trials_or_bits
    return _curve(chains, levels, cfg,
                  lambda low, p, out, scratch: np.less(
                      low, p.gamma_th, out=scratch.view(bool)[:low.size]),
                  lambda hits, _: _wilson_estimate(hits, n))


def simulate_outage(topology, params, cfg):
    """Outage frequency of the chain with a Wilson 95% interval.

    A trial is an outage when any stage SNR falls below gamma_th,
    equivalently when the chain minimum does.  The first segment is the
    one the gain mode's closed forms compute: min(g1, g2) for known-csi,
    the fixed-gain relay cascade for unknown-csi.
    """
    return _one_level(simulate_outage_curves([topology], [params], cfg))


# ------------------------------------------------------- SNR-level BER

def _dbpsk_error(snr, out=None, scratch=None):
    """0.5 exp(-snr), the DBPSK error probability at each SNR of a 1-D
    array, bit for bit.

    numpy's vector exp slows down about 20-fold on a block that holds a
    subnormal or zero result, which most blocks do at high mean SNR.  So
    exp takes min(snr, _EXP_FAST), where every result is normal; lanes
    past _EXP_ZERO are then 0, as exp gives them, and the few lanes
    between the two bounds are evaluated alone, before out is written.
    The result goes into out, which may be snr itself, and the lane flags
    into scratch, a float row of snr's size, when they are given; in a
    curve out is the chain minimum's row and scratch another row of the
    batch workspace.
    """
    n = snr.size
    flags = (np.empty(2 * n, dtype=bool) if scratch is None
             else scratch.view(bool))
    far = np.greater(snr, _EXP_FAST, out=flags[:n])
    band = None
    if far.any():
        band = np.less(snr, _EXP_ZERO, out=flags[n:2 * n])
        band &= far
        band = np.flatnonzero(band)
        tail = 0.5 * np.exp(-snr[band])
    out = np.minimum(snr, _EXP_FAST, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= 0.5
    if band is not None:
        out *= np.logical_not(far, out=far)
        out[band] = tail
    return out


def simulate_ber_snr_level_curves(chains, levels, cfg):
    """simulate_ber_snr_level of every topology of `chains` at every
    level of `levels`, all from one draw set; chains, levels and return value
    as in simulate_outage_curves.
    """
    n = cfg.trials_or_bits
    return _curve(chains, levels, cfg,
                  lambda low, p, out, scratch: _dbpsk_error(low, out,
                                                            scratch),
                  lambda s1, s2: _normal_estimate(s1, s2, n))


def simulate_ber_snr_level(topology, params, cfg):
    """DBPSK bit error rate from per-stage SNR draws.

    Averages the conditional kernel exp(-g)/2 of the chain-minimum SNR,
    which is exactly the quantity the closed forms integrate.
    """
    return _one_level(simulate_ber_snr_level_curves([topology], [params],
                                                    cfg))

