"""One step of the fsorf benchmark in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py MODE JSON

perfbench/run.py starts one of these at a time.  JSON carries the
fsorf argv ("argv") or, for the check, the CSVs to check.  MODE is:

  sweep  run the whole cli.main(argv) sweep, untraced, noting when
         spec_from_sources has resolved the spec (the end of set-up);
  trace  the same sweep with every layer of spans.LAYERS traced;
  check  compute closed-form references for the CSVs' points and run
         the route check of routecheck.py on each CSV.

The last stdout line is one JSON object with the step's results.
"""

import json
import math
import os
import resource
import sys
import time

import routecheck
import spans


def run_cli(mode, argv):
    t0 = time.perf_counter()
    import fsorf.cli as cli
    out = {"import_s": time.perf_counter() - t0}

    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        out["rebound_sites"] = len(tracer.install())
    else:
        resolve = cli.spec_from_sources

        def resolved(*args, **kwargs):
            spec = resolve(*args, **kwargs)
            # CLOCK_MONOTONIC is system-wide, so run.py can subtract the
            # instant it started this process
            out["t_ready"] = time.monotonic()
            return spec

        cli.spec_from_sources = resolved

    t0 = time.perf_counter()
    out["rc"] = cli.main(argv)
    out["sweep_s"] = time.perf_counter() - t0
    out["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        out["ref_s"] = reference_s()

    import numpy
    import scipy
    out["numpy"] = numpy.__version__
    out["scipy"] = scipy.__version__

    if tracer is not None:
        records = tracer.spans()
        layers, times = spans.layer_metrics(records, out["sweep_s"],
                                            tracer.peak_threads)
        layers["cli.import_s"] = out["import_s"]
        out["layers"] = layers
        out["spans"] = len(records)
        costs = sorted(spans.point_costs(records, times),
                       key=lambda c: c[1], reverse=True)
        out["slowest_points"] = [
            {"point": label, "wall_s": wall, "cpu_s": cpu}
            for label, wall, cpu in costs[:3]]
    return out


def reference_s():
    """Wall time of a fixed kernel that uses no fsorf code.

    Scalar scipy.special calls in a Python loop, like the analytic
    routes, then array draws and exponentials, like the samplers.  Run
    right after a sweep, on the CPU the sweep ended on, it tracks how
    fast that CPU of the shared host is at that moment, so run.py can
    rescale the sweep's times to a fixed host speed.
    """
    import numpy
    from scipy import special
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(1, 160001):
        x = k * 2.5e-4
        acc += special.gammaincc(1.5, x) + x * math.exp(-x)
    rng = numpy.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal(500_000)
        acc += float(numpy.exp(-a * a).sum())
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel result is not finite")
    return time.perf_counter() - t0


def references(sweeps, metric, methods):
    """point_key -> (closed-form value, truncation) for the route check."""
    needs_value = "monte-carlo" in methods
    needs_truncation = (metric == "ber" and "closed-form" in methods
                        and "quadrature" in methods)
    if not (needs_value or needs_truncation):
        return {}

    from fsorf.channels import LinkParams, db_to_linear
    from fsorf.composition import GainMode, Topology
    from fsorf.metrics import ber_closed_form, outage_closed_form

    modes = {"known-csi": GainMode.ADAPTIVE, "unknown-csi": GainMode.FIXED}
    refs = {}
    for rows in sweeps:
        for row in rows:
            key = routecheck.point_key(row)
            if key in refs:
                continue
            # the same link and chain the sweep runner builds per point
            g = db_to_linear(float(row["gamma_avg_db"]))
            params = LinkParams(
                gamma_bar_rf=g, gamma_bar_fso=g, lam=float(row["lambda"]),
                a0=1.0, xi=float(row["xi"]),
                gamma_th=db_to_linear(float(row["gamma_th_db"])))
            topology = Topology(n_users=int(row["n_users"]),
                                m_relays=int(row["m_relays"]),
                                first_segment_mode=modes[row["mode"]])
            try:
                if metric == "outage":
                    refs[key] = (float(outage_closed_form(topology, params)),
                                 0.0)
                else:
                    res = ber_closed_form(topology, params)
                    refs[key] = (float(res.value), float(res.truncation))
            except (ArithmeticError, ValueError):
                refs[key] = (None, 0.0)
    return refs


def check(job):
    sweeps = [routecheck.read_rows(p) if os.path.exists(p) else []
              for p in job["csvs"]]
    refs = references(sweeps, job["metric"], job["methods"])
    return {"sweeps": [
        routecheck.check_sweep(rows, job["points"], job["metric"],
                               job["methods"], refs)
        for rows in sweeps]}


def main():
    mode, payload = sys.argv[1], json.loads(sys.argv[2])
    if mode == "check":
        out = check(payload)
    elif mode in ("sweep", "trace"):
        out = run_cli(mode, payload["argv"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
