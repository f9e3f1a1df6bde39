"""Monte-Carlo curve throughput per chain shape, at 1 and 2 workers.

Times simulate_ber_snr_level_curves and simulate_outage_curves on
fig3's nine levels (0:5:40 dB, gamma_bar_rf = gamma_bar_fso, lambda =
a0 = 1, xi = 1.45, gamma_th = 10 dB) for N = 2 users: each chain shape
alone (M = 1, 2, 3 in both gain modes, "min" for known-csi and "exact"
for unknown-csi, as a sweep pairs them) and the fig3 group of all six
chains, which shares one draw set.  Each (shape, estimator, workers)
case runs once untimed, then --repeats times; the line gives the
median wall time and the scored trials per second, counting every
(chain, level) cell: trials x chains x 9 / median.  The first line
records the core count and the numpy version.

The file has no test_ prefix, so pytest does not collect it.  Run it
from the repository root; with the defaults it takes about half a
minute on two cores:

    PYTHONPATH=src python tests/time_mc_curves.py [--trials N] [--repeats R]
"""

import argparse
import os
import platform
import statistics
import time

import numpy as np

from fsorf.channels import LinkParams, db_to_linear
from fsorf.composition import GainMode, Topology
from fsorf.montecarlo import (SimConfig, simulate_ber_snr_level_curves,
                              simulate_outage_curves)

LEVELS = [LinkParams(gamma_bar_rf=db_to_linear(db), gamma_bar_fso=db_to_linear(
    db), lam=1.0, a0=1.0, xi=1.45, gamma_th=10.0) for db in range(0, 41, 5)]
CHAINS = {(mode, m): (Topology(n_users=2, m_relays=m, first_segment_mode=mode),
                      "min" if mode is GainMode.ADAPTIVE else "exact")
          for mode in GainMode for m in (1, 2, 3)}
CASES = [(f"{mode.value} M={m}", [chain])
         for (mode, m), chain in CHAINS.items()]
CASES.append(("fig3 group (6 chains)", list(CHAINS.values())))
ESTIMATORS = (("ber", simulate_ber_snr_level_curves),
              ("outage", simulate_outage_curves))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print(f"nproc {os.cpu_count()}, numpy {np.__version__}, python "
          f"{platform.python_version()}, {args.trials} trials, "
          f"median of {args.repeats}")
    for name, chains in CASES:
        for metric, simulate in ESTIMATORS:
            for workers in (1, 2):
                cfg = SimConfig(trials_or_bits=args.trials, workers=workers)
                simulate(chains, LEVELS, cfg)
                walls = []
                for _ in range(args.repeats):
                    start = time.perf_counter()
                    simulate(chains, LEVELS, cfg)
                    walls.append(time.perf_counter() - start)
                wall = statistics.median(walls)
                rate = args.trials * len(chains) * len(LEVELS) / wall
                print(f"{name:24s} {metric:6s} workers={workers}  "
                      f"{wall * 1e3:8.1f} ms  {rate:12.4g} trials/s")


if __name__ == "__main__":
    main()
