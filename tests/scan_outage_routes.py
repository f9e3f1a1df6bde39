"""Route-agreement scan of the outage: closed form against quadrature.

Sweeps xi in {0.8, 1.45, 2.5}, lambda in {0.5, 1, 2, 5, 10, 30, 100},
gamma_avg = -60:0.5:60 dB and (N, M) in {(1, 1), (2, 2), (4, 3)} at
gamma_th = 10 dB, in both gain modes: 15,183 cells per mode.  For each
mode it counts the closed-form cells that fail, those of them at
lambda <= 1.5 and 0-40 dB, and the cells that differ from the
quadrature by more than 1e-8 relative with an empty error (silently
wrong).  Among the cells where both routes pass, it also prints the
largest relative gap between them, over the whole grid and at
lambda <= 1.5 and 0-40 dB.
The quadrature column is the reference: it evaluates no Meijer-G.

The file has no test_ prefix, so pytest does not collect it.  Run it
from the repository root; it takes about half a minute on one core:

    PYTHONPATH=src python tests/scan_outage_routes.py [--list]

--list also prints every silent cell.
"""

import collections
import sys

from fsorf.experiments import run_experiment, spec_from_sources

XIS = ("0.8", "1.45", "2.5")
LAMBDAS = "0.5,1,2,5,10,30,100"
GAMMA_AVG_DB = "-60:0.5:60"
SHAPES = ((1, 1), (2, 2), (4, 3))
RTOL = 1e-8


def scan():
    """Every point of the grid, as run_experiment returns them."""
    for xi in XIS:
        for n, m in SHAPES:
            yield from run_experiment(spec_from_sources(overrides={
                "xi": xi, "lambda": LAMBDAS, "users": str(n),
                "relays": str(m), "gamma_th_db": "10",
                "gamma_avg_db": GAMMA_AVG_DB,
                "methods": "closed-form,quadrature"}))


def main(argv):
    cells = collections.Counter()
    failed = collections.Counter()
    preset_range_failed = collections.Counter()
    silent = collections.defaultdict(list)
    gap = collections.Counter()
    preset_range_gap = collections.Counter()
    for p in scan():
        mode = p.mode.value
        cells[mode] += 1
        preset_range = p.lam <= 1.5 and 0.0 <= p.gamma_avg_db <= 40.0
        if p.closed_form is None:
            failed[mode] += 1
            preset_range_failed[mode] += preset_range
            continue
        if p.quadrature is None:
            continue
        rel = abs(p.closed_form - p.quadrature) / abs(p.quadrature)
        gap[mode] = max(gap[mode], rel)
        if preset_range:
            preset_range_gap[mode] = max(preset_range_gap[mode], rel)
        if p.error is None and rel > RTOL:
            silent[mode].append(p)
    for mode in sorted(cells):
        print(f"{mode}: {cells[mode]} cells, {failed[mode]} closed-form "
              f"failed ({preset_range_failed[mode]} at lambda <= 1.5 and "
              f"0-40 dB), {len(silent[mode])} silent beyond {RTOL:g}; "
              f"largest gap where both pass {gap[mode]:.2g} "
              f"({preset_range_gap[mode]:.2g} at lambda <= 1.5 and "
              f"0-40 dB)")
        if "--list" in argv:
            for p in silent[mode]:
                print(f"  xi={p.xi} lambda={p.lam} N={p.n_users} "
                      f"M={p.m_relays} gamma_avg={p.gamma_avg_db} dB: "
                      f"closed {p.closed_form!r}, quadrature "
                      f"{p.quadrature!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
