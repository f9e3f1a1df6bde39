"""Route-agreement scan of the error rate: closed form against quadrature.

Sweeps xi in {0.8, 1.45, 2.5}, lambda in {0.5, 1, 5, 10},
gamma_avg = -30:10:150 dB and (N, M) in {(1, 1), (2, 2), (4, 3)} at
gamma_th = 10 dB, in both gain modes: 684 cells per mode.  For each
mode it counts the cells whose quadrature fails, the closed-form cells
that fail, and the cells that differ from the quadrature by more than
1e-8 and by more than 1e-6 relative with an empty error (silently
wrong).  Among the cells where both routes pass, it also prints the
largest relative gap between them at lambda <= 1 and 0-40 dB.
The quadrature column is the reference: it evaluates no Meijer-G.

The file has no test_ prefix, so pytest does not collect it.  Run it
from the repository root; it takes about half a minute on one core:

    PYTHONPATH=src python tests/scan_ber_routes.py [--list]

--list also prints every cell silent beyond 1e-8.
"""

import collections
import sys

from fsorf.experiments import run_experiment, spec_from_sources

XIS = ("0.8", "1.45", "2.5")
LAMBDAS = "0.5,1,5,10"
GAMMA_AVG_DB = "-30:10:150"
SHAPES = ((1, 1), (2, 2), (4, 3))
RTOLS = (1e-8, 1e-6)


def scan():
    """Every point of the grid, as run_experiment returns them."""
    for xi in XIS:
        for n, m in SHAPES:
            yield from run_experiment(spec_from_sources(overrides={
                "metric": "ber", "xi": xi, "lambda": LAMBDAS,
                "users": str(n), "relays": str(m), "gamma_th_db": "10",
                "gamma_avg_db": GAMMA_AVG_DB,
                "methods": "closed-form,quadrature"}))


def main(argv):
    cells = collections.Counter()
    quad_failed = collections.Counter()
    failed = collections.Counter()
    silent = collections.defaultdict(list)
    beyond = collections.Counter()
    preset_range_gap = collections.Counter()
    for p in scan():
        mode = p.mode.value
        cells[mode] += 1
        if p.quadrature is None:
            quad_failed[mode] += 1
            continue
        if p.closed_form is None:
            failed[mode] += 1
            continue
        rel = abs(p.closed_form - p.quadrature) / abs(p.quadrature)
        if p.lam <= 1.0 and 0.0 <= p.gamma_avg_db <= 40.0:
            preset_range_gap[mode] = max(preset_range_gap[mode], rel)
        if p.error is None and rel > RTOLS[0]:
            silent[mode].append(p)
            beyond[mode] += rel > RTOLS[1]
    for mode in sorted(cells):
        print(f"{mode}: {cells[mode]} cells, {quad_failed[mode]} quadrature "
              f"failed, {failed[mode]} closed-form failed, "
              f"{len(silent[mode])} silent beyond {RTOLS[0]:g} and "
              f"{beyond[mode]} beyond {RTOLS[1]:g}; largest gap where both "
              f"pass at lambda <= 1 and 0-40 dB {preset_range_gap[mode]:.2g}")
        if "--list" in argv:
            for p in silent[mode]:
                print(f"  xi={p.xi} lambda={p.lam} N={p.n_users} "
                      f"M={p.m_relays} gamma_avg={p.gamma_avg_db} dB: "
                      f"closed {p.closed_form!r}, quadrature "
                      f"{p.quadrature!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
