"""Route check of a sweep CSV: every requested cell, checked against a second route.

A sweep point fails when its error column is set, when a requested
cell is empty or not finite, or when a route disagrees with an
independent one:

- closed form against quadrature, when a sweep has both: outage to a
  relative 1e-8 (acceptance gate 4), BER to an absolute
  max(1e-6, closed-form truncation) (gate 5);
- Monte Carlo against the closed-form reference computed outside the
  timed region: |mc - reference| <= Z_MAX sigma, sigma read off the
  cell's 95% interval.  Neighbouring points share their random draws,
  so one seed's deviations are correlated and its maximum |z| runs
  high: with 10^6 trials, 3.77 on fig1 and 3.87 on fig3 at seed 42,
  and at most 3.01 over seeds 1-9 and 11-20.  Z_MAX leaves room above.

Standard library only; the references come from perfbench/child.py.
"""

import csv
import math

OUTAGE_REL_TOL = 1e-8
BER_ABS_TOL = 1e-6
Z_MAX = 6.0
_Z95 = 1.959963984540054

_CELLS = {"closed-form": "closed_form", "quadrature": "quadrature",
          "monte-carlo": "mc_mean"}


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def point_key(row):
    return (row["mode"], row["n_users"], row["m_relays"], row["lambda"],
            row["gamma_avg_db"])


def point_label(row):
    return (f"{row['mode']} N={row['n_users']} M={row['m_relays']} "
            f"lambda={float(row['lambda']):g} "
            f"{float(row['gamma_avg_db']):g}dB")


def check_row(row, metric, methods, reference=None, truncation=0.0):
    """Return (reason the point fails or None, MC z-score or None)."""
    if row["error"]:
        return f"error column: {row['error']}", None
    values = {}
    for method in methods:
        text = row[_CELLS[method]]
        if not text:
            return f"empty {method} cell", None
        value = float(text)
        if not math.isfinite(value):
            return f"non-finite {method} cell", None
        values[method] = value

    if "closed-form" in values and "quadrature" in values:
        closed, quad = values["closed-form"], values["quadrature"]
        if metric == "outage":
            gap = abs(closed - quad) / max(abs(quad), 1e-300)
            if gap > OUTAGE_REL_TOL:
                return (f"closed-form vs quadrature relative gap {gap:.3g}"
                        f" > {OUTAGE_REL_TOL:g}"), None
        else:
            gap = abs(closed - quad)
            tol = max(BER_ABS_TOL, truncation)
            if gap > tol:
                return (f"closed-form vs quadrature gap {gap:.3g}"
                        f" > {tol:.3g}"), None

    if "monte-carlo" not in values:
        return None, None
    if reference is None:
        return "no closed-form reference for the monte-carlo cell", None
    sigma = (float(row["mc_ci_high"]) - float(row["mc_ci_low"])) / 2.0 / _Z95
    gap = values["monte-carlo"] - reference
    if sigma > 0.0:
        z = gap / sigma
    else:
        z = 0.0 if gap == 0.0 else math.copysign(math.inf, gap)
    if abs(z) > Z_MAX:
        return (f"monte-carlo {z:+.2f} sigma from the closed-form "
                f"reference (bound {Z_MAX:g})"), z
    return None, z


def check_sweep(rows, expected_points, metric, methods, references):
    """Check one sweep's rows.

    references maps point_key -> (closed-form value or None, truncation).
    Returns attempted and failed point counts, the failing points as
    (label, reason), and the largest |z| of the Monte-Carlo cells.
    """
    failures = []
    max_z = 0.0
    for row in rows:
        reference, truncation = references.get(point_key(row), (None, 0.0))
        reason, z = check_row(row, metric, methods, reference, truncation)
        if z is not None:
            max_z = max(max_z, abs(z))
        if reason:
            failures.append((point_label(row), reason))
    missing = max(0, expected_points - len(rows))
    failed = len(failures) + missing
    if missing:
        failures.append(("sweep", f"{missing} of {expected_points} points "
                                  "missing from the CSV"))
    return {"attempted": max(expected_points, len(rows)), "failed": failed,
            "failures": failures, "max_abs_z": max_z}
