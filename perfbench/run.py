"""Benchmark of whole fsorf sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; fsorf is imported from src/.
Each workload is one sweep through the public fsorf.cli.main, exactly
as a user runs it.  Every timed sweep runs in a fresh interpreter, one
at a time, so import cost lands in setup_s and no module-level cache
survives from one repeat to the next.  Sweeps repeat while the next one
would, at the pace so far, end within --seconds; every sweep's CSV then
goes through the route check of routecheck.py, outside the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, from
untraced sweeps only.  Each sweep process also times a fixed kernel,
child.reference_s, after the sweep; setup_s, and sweep_s of a one-thread
sweep, are medians of times multiplied by REF_S / that kernel's time.
The raw wall times are on the report line.
--trace 1 alternates untraced and traced sweeps and reports the
per-layer metrics from the traced ones (spans.py), with trace.overhead,
the traced sweep's extra wall time.

Output: one line per failing sweep point, a "report" line with the
environment record and the sample details, and last the result JSON.
The exit code is 0 whenever a result is printed, also when points
fail (then "correct" is false); without fsorf sources to run, or when
a sweep process crashes or overruns, it is 1 or 2 and nothing is
printed on stdout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

from spans import rule_of_ten

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

Workload = namedtuple("Workload", "argv points metric methods")

# The trial count, seed and worker defaults are fsorf's own unless set
# here; the benchmark seed is passed on as --seed.  BENCHMARK.json lists
# ber-mc-2w, ber-analytic and outage-analytic.  outage-mc is left out so
# that all repeats of the listed runs fit in one hour; outage-quad-fixed
# is left out because 5 of its 21 points fail the route check until the
# oracle is fixed, and a listed workload must pass.
WORKLOADS = {
    # samplers only, one thread: the Monte-Carlo baseline
    "outage-mc": Workload(
        ("--preset", "fig1", "--methods", "monte-carlo", "--workers", "1"),
        54, "outage", ("monte-carlo",)),
    # BER kernel and chain-shape sweep on 2 point x 2 batch threads
    "ber-mc-2w": Workload(
        ("--preset", "fig3", "--methods", "monte-carlo", "--workers", "2"),
        54, "ber", ("monte-carlo",)),
    # Meijer-G / hypergeometric series through BER quadrature; no MC.  Five
    # of fig3's nine SNR steps per curve, every curve and Meijer-G class,
    # so that a run holds four or more sweeps
    "ber-analytic": Workload(
        ("--preset", "fig3", "--methods", "closed-form,quadrature",
         "--gamma-avg-db", "0:10:40"),
        30, "ber", ("closed-form", "quadrature")),
    # fig1 outage by closed form and quadrature: the fixed-gain numeric
    # oracle and gamma_upper over the preset's 0-40 dB
    "outage-analytic": Workload(
        ("--preset", "fig1", "--methods", "closed-form,quadrature"),
        54, "outage", ("closed-form", "quadrature")),
    # the same oracle up to 60 dB, where it is known to disagree with the
    # closed form at 5 of 21 points
    "outage-quad-fixed": Workload(
        ("--mode", "unknown-csi", "--users", "1,2,4",
         "--methods", "closed-form,quadrature", "--gamma-avg-db", "0:10:60"),
        21, "outage", ("closed-form", "quadrature")),
}

BUDGET_S = 170          # the whole run, children included
# setup_s, and sweep_s of a one-thread sweep, are rescaled to a host on
# which child.reference_s takes this long: a shared 2-vCPU host's speed
# drifts by up to 2x within minutes.  The one-thread kernel does not track a
# --workers 2 sweep (their times were uncorrelated), so those stay raw.
REF_S = 0.4


class BenchError(Exception):
    pass


def run_child(mode, payload, deadline):
    """Run child.py in a fresh interpreter; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode,
             json.dumps(payload)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} step overran the {BUDGET_S} s budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{mode} step exited {proc.returncode}:\n{tail}")
    out = json.loads(lines[-1])
    if "t_ready" in out:
        out["setup_s"] = out["t_ready"] - started
    return out


def summary(values):
    """Median, rule-of-ten percentile and sample count of a timing."""
    tail = rule_of_ten(values)
    return {"median": statistics.median(values), "n": len(values),
            "rule_of_ten": None if tail is None
            else {"percentile": tail[0], "value": tail[1]},
            "samples": values}


def rescaled(times, ref_s):
    """Each time at the host speed on which the reference takes REF_S."""
    return [t * REF_S / r for t, r in zip(times, ref_s)]


def environment():
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fsorf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "loadavg_before": os.getloadavg(),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload, seed, seconds, trace, workdir, deadline):
    """Run the sweeps, then the route check of their CSVs."""
    argv = list(workload.argv) + ["--seed", str(seed % 2 ** 64)]
    kinds = ("sweep", "trace") if trace else ("sweep",)
    sweeps = []
    start = time.monotonic()
    while True:
        kind = kinds[len(sweeps) % len(kinds)]
        csv_path = workdir / f"sweep-{len(sweeps)}.csv"
        out = run_child(kind, {"argv": argv + ["--out", str(csv_path)]},
                        deadline)
        sweeps.append((kind, out, str(csv_path)))
        elapsed = time.monotonic() - start
        # start no sweep that would, at the mean pace so far, end after
        # --seconds; a traced run has at least one sweep of each kind
        if (len(sweeps) >= len(kinds)
                and elapsed * (len(sweeps) + 1) / len(sweeps) > seconds):
            break

    check = run_child("check", {
        "csvs": [path for _, _, path in sweeps], "points": workload.points,
        "metric": workload.metric, "methods": list(workload.methods)},
        deadline)
    return sweeps, check["sweeps"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fsorf" / "__init__.py").is_file():
        print(f"perfbench: no fsorf sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + BUDGET_S
    env = environment()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        sweeps, checks = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
            workdir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    env["numpy"] = sweeps[0][1]["numpy"]
    env["scipy"] = sweeps[0][1]["scipy"]

    plain = [out for kind, out, _ in sweeps if kind == "sweep"]
    sweep_s = [out["sweep_s"] for out in plain]
    setups = [out["setup_s"] for out in plain]
    ref_s = [out["ref_s"] for out in plain]
    argv = WORKLOADS[args.workload].argv
    one_thread = ("--workers" not in argv
                  or argv[argv.index("--workers") + 1] == "1")
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    failing = {}
    for c in checks:
        for label, reason in c["failures"]:
            failing.setdefault(label, reason)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "sweep_wall_s": summary(sweep_s), "ref_s": summary(ref_s),
        "sweep_s_rescaled": one_thread,
        "cli_exit_codes": [out["rc"] for _, out, _ in sweeps],
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "failed_points": [f"{k}: {v}" for k, v in failing.items()],
        "max_abs_z": max(c["max_abs_z"] for c in checks),
    }
    if args.trace:
        traced = [out for kind, out, _ in sweeps if kind == "trace"]
        values = {}
        for name in traced[0]["layers"]:
            values[name] = statistics.median(
                out["layers"][name] for out in traced)
        values["trace.overhead"] = (
            statistics.median(out["sweep_s"] for out in traced)
            / statistics.median(sweep_s) - 1.0)
        report["traced_sweep_s"] = [out["sweep_s"] for out in traced]
        report["spans"] = traced[0]["spans"]
        report["rebound_sites"] = traced[0]["rebound_sites"]
        report["slowest_points"] = traced[0]["slowest_points"]
    else:
        values = {
            "sweep_s": statistics.median(rescaled(sweep_s, ref_s))
            if one_thread else statistics.median(sweep_s),
            "setup_s": statistics.median(rescaled(setups, ref_s)),
            "peak_rss_mb": statistics.median(
                out["maxrss_mb"] for out in plain),
            "passed_share": 1.0 - failed / attempted,
        }
        report["setup_wall_s"] = summary(setups)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(sweeps)} sweeps, {attempted} points checked, "
          f"{failed} failed")
    for line in report["failed_points"]:
        print(f"  FAILED {line}")
    print("report " + json.dumps(report))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
