"""Property test of the Monte-Carlo core over chain shapes and trial counts.

Trial counts from 1,000 to 150,000 give one, two or three batches, the
last one usually partial, for the trial batches and the signal-level
frame batches alike.  The RF mean may differ from the FSO mean, so the
chain minimum is checked at RF/FSO ratios other than 1 too.
"""

import dataclasses

import numpy as np
import pytest

from fsorf.channels import LinkParams, db_to_linear
from fsorf.composition import GainMode, Topology
from fsorf.montecarlo import (
    SimConfig,
    _curve,
    _stream,
    sample_chain_min_snr,
    simulate_ber_snr_level,
    simulate_outage,
)

from reference_models import (sample_chain_stage_snrs,
                              simulate_ber_cascade_xor,
                              simulate_ber_signal_level)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# every estimator called as f(topology, params, cfg, first_segment)
ESTIMATORS = {
    "outage": simulate_outage,
    "snr-level": simulate_ber_snr_level,
    "cascade-xor": lambda t, p, cfg, first: simulate_ber_cascade_xor(
        t, p, cfg),
    "signal-level": lambda t, p, cfg, first: simulate_ber_signal_level(
        t, p, cfg),
}


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(
    n=st.integers(1, 4), m=st.integers(1, 4),
    mode=st.sampled_from(list(GainMode)),
    first=st.sampled_from(["exact", "min"]),
    gamma_db=st.floats(-10.0, 50.0),
    rho_db=st.floats(-20.0, 20.0),
    trials=st.integers(1000, 150_000),
    estimator=st.sampled_from(sorted(ESTIMATORS)),
    seed=st.integers(0, 2 ** 64 - 1))
# three batches of every estimator, the last one partial
@hypothesis.example(4, 4, GainMode.FIXED, "exact", 50.0, 0.0, 150_000,
                    "outage", 1)
@hypothesis.example(3, 4, GainMode.ADAPTIVE, "min", -10.0, 0.0, 149_999,
                    "snr-level", 2)
@hypothesis.example(4, 3, GainMode.ADAPTIVE, "exact", 5.0, 0.0, 131_073,
                    "cascade-xor", 3)
@hypothesis.example(2, 4, GainMode.FIXED, "exact", 20.0, 0.0, 140_001,
                    "signal-level", 4)
def test_mc_core_properties(n, m, mode, first, gamma_db, rho_db, trials,
                            estimator, seed):
    g = db_to_linear(gamma_db)
    p = LinkParams(gamma_bar_rf=g * db_to_linear(rho_db), gamma_bar_fso=g,
                   lam=1.0, a0=1.0, xi=1.45, gamma_th=10.0)
    t = Topology(n_users=n, m_relays=m, first_segment_mode=mode)

    # the chain minimum is the column minimum of the stage array drawn
    # from the same stream
    stages = sample_chain_stage_snrs(t, p, np.random.default_rng(seed), 1000,
                                     first)
    assert stages.shape == (m, 1000)
    low = sample_chain_min_snr(t, p, np.random.default_rng(seed), 1000, first)
    assert np.array_equal(low, stages.min(axis=0))

    # and it is what a curve scores at each level, also next to a level
    # of another RF/FSO ratio
    levels = (p, dataclasses.replace(p, gamma_bar_rf=g))
    seen = []
    _curve([(t, first)], levels, SimConfig(trials_or_bits=1000, seed=seed),
           lambda low, level, out, scratch: seen.append(low.copy()) or low,
           lambda s1, s2: None)
    for level, low in zip(levels, seen, strict=True):
        assert np.array_equal(low, sample_chain_stage_snrs(
            t, level, _stream(seed, 0), 1000, first).min(axis=0))

    runs = [ESTIMATORS[estimator](
        t, p, SimConfig(trials_or_bits=trials, seed=seed, workers=w), first)
        for w in (1, 2)]
    assert runs[0] == runs[1]
    est = runs[0]
    if estimator in ("outage", "cascade-xor"):
        # the mean is an event count over the trials, exactly
        count = round(est.mean * est.n)
        assert est.n == trials
        assert est.mean == count / est.n
