"""Parameter-sweep experiments and their CSV artifact.

An ExperimentSpec names one sweep: an average-SNR axis in dB, one
optional family variable (user count, relay count, or turbulence rate),
the gain modes to cover, the metric, and the estimation methods to run.
run_experiment evaluates every point in sweep order and emits a
fixed-schema CSV whose rows round-trip back into CurvePoint values
exactly.

Config files are plain `key = value` lines with `#` comments; lists are
comma separated and the SNR axis is `start:step:stop`.  spec_from_sources
resolves presets and defaults and anchors every complaint to its source
line.

Reproducibility: every point reuses the same simulation seed, so the
Monte-Carlo columns of neighboring points share their random draws
(common random numbers).  Curves come out smooth in the abscissa and a
fixed (spec, seed) pair yields a byte-identical CSV at any worker
count.
"""

import csv
import dataclasses
import math
import os
import tempfile
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import LinkParams, db_to_linear
from .composition import (
    GainMode,
    Topology,
    end_to_end_outage_semianalytic,
)
from .metrics import ber_closed_form, ber_quadrature, outage_closed_form
from .montecarlo import (
    MetricEstimate,
    SimConfig,
    simulate_ber_snr_level,
    simulate_outage,
)

CSV_COLUMNS = (
    "preset", "mode", "metric", "n_users", "m_relays", "xi", "lambda",
    "gamma_th_db", "gamma_avg_db", "closed_form", "quadrature",
    "mc_mean", "mc_ci_low", "mc_ci_high", "mc_n", "seed", "error",
)

METHOD_CLOSED = "closed-form"
METHOD_QUADRATURE = "quadrature"
METHOD_MC = "monte-carlo"

_MODE_LABELS = {GainMode.ADAPTIVE: "known-csi", GainMode.FIXED: "unknown-csi"}
_LABEL_MODES = {v: k for k, v in _MODE_LABELS.items()}

_PRESETS = ("fig1", "fig2", "fig3", "custom")
_CONFIG_KEYS = (
    "preset", "metric", "mode", "users", "relays", "xi", "lambda",
    "gamma_th_db", "gamma_avg_db", "methods", "trials", "seed",
    "workers", "out",
)
_MAX_SWEEP_POINTS = 10_000    # a gamma_avg_db sweep longer than this is a typo


class Metric(Enum):
    OUTAGE = "outage"
    BER = "ber"


class ConfigError(ValueError):
    """Configuration rejection with the offending source line."""

    def __init__(self, message, line=None):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved sweep description."""

    preset: str
    metric: Metric
    modes: tuple
    n_users: tuple
    m_relays: tuple
    lam: tuple
    xi: float
    gamma_th_db: float
    gamma_avg_db: tuple
    methods: tuple
    sim: SimConfig
    out_path: str = None


@dataclass(frozen=True)
class CurvePoint:
    """One sweep point with every requested method's estimate."""

    preset: str
    mode: GainMode
    metric: Metric
    n_users: int
    m_relays: int
    xi: float
    lam: float
    gamma_th_db: float
    gamma_avg_db: float
    closed_form: float
    quadrature: float
    mc: MetricEstimate
    seed: int
    error: str


# -------------------------------------------------------------- presets

def _base_entries():
    return {
        "preset": "custom",
        "metric": "outage",
        "mode": "both",
        "users": "2",
        "relays": "2",
        "xi": "1.45",
        "lambda": "1",
        "gamma_th_db": "10",
        "gamma_avg_db": "0:5:40",
        "methods": "closed-form,quadrature,monte-carlo",
        "trials": "1000000",
        "seed": "42",
        "workers": "1",
    }


def preset_entries(name):
    """The key = value content each preset expands to."""
    entries = _base_entries()
    entries["preset"] = name
    if name == "fig1":
        entries["users"] = "1,2,4"
    elif name == "fig2":
        # turbulence variance 1/lambda^2 swept over {0.5, 1, 2}
        entries["lambda"] = "1.4142135623730951,1,0.7071067811865476"
    elif name == "fig3":
        entries["metric"] = "ber"
        entries["relays"] = "1,2,3"
    elif name != "custom":
        raise ConfigError(f"unknown preset {name!r}")
    return entries


# --------------------------------------------------------- config lines

def _parse_entries(text):
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        entries[key] = (value, lineno)
    return entries


def _int_list(value, line, key, minimum):
    out = []
    for part in value.split(","):
        try:
            item = int(part.strip())
        except ValueError:
            raise ConfigError(f"{key} must be integer(s), got {part.strip()!r}",
                              line) from None
        if item < minimum:
            raise ConfigError(f"{key} must be >= {minimum}", line)
        out.append(item)
    return tuple(out)


def _float_list(value, line, key):
    out = []
    for part in value.split(","):
        try:
            item = float(part.strip())
        except ValueError:
            raise ConfigError(f"{key} must be number(s), got {part.strip()!r}",
                              line) from None
        if not math.isfinite(item):
            raise ConfigError(f"{key} must be finite, got {part.strip()!r}",
                              line)
        out.append(item)
    return tuple(out)


def _sweep(value, line):
    """`start:step:stop` inclusive, or a single dB value."""
    parts = value.split(":")
    try:
        nums = [float(p.strip()) for p in parts]
    except ValueError:
        raise ConfigError(f"bad sweep {value!r}", line) from None
    if not all(map(math.isfinite, nums)):
        raise ConfigError(f"sweep values must be finite, got {value!r}", line)
    if len(nums) == 1:
        return (nums[0],)
    if len(nums) != 3:
        raise ConfigError("sweep must be start:step:stop or a single value",
                          line)
    start, step, stop = nums
    if step <= 0:
        raise ConfigError("sweep step must be positive", line)
    if stop < start:
        raise ConfigError("sweep stop must be >= start", line)
    span = (stop - start) / step
    if span + 1e-9 >= _MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep {value!r} has more than "
                          f"{_MAX_SWEEP_POINTS} points", line)
    count = int(math.floor(span + 1e-9)) + 1
    return tuple(start + k * step for k in range(count))


def _check_linear(db, line, key):
    # the value a point will use: finite and positive, and no overflow
    # warning on the way
    with np.errstate(over="ignore"):
        value = float(db_to_linear(db))
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{key} = {db!r} dB is out of range: its linear "
                          f"value {value!r} is not finite and positive", line)


def _spec_from_entries(entries):
    def get(key):
        return entries.get(key, (None, None))

    preset_val, preset_line = get("preset")
    preset = preset_val or "custom"
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}", preset_line)
    resolved = {k: (v, None) for k, v in preset_entries(preset).items()}
    resolved.update(entries)

    def val(key):
        return resolved[key][0], resolved[key][1]

    metric_val, metric_line = val("metric")
    try:
        metric = Metric(metric_val)
    except ValueError:
        raise ConfigError(f"metric must be outage or ber, got {metric_val!r}",
                          metric_line) from None

    mode_val, mode_line = val("mode")
    if mode_val not in ("known-csi", "unknown-csi", "both"):
        raise ConfigError(
            "mode must be known-csi, unknown-csi, or both", mode_line)
    modes = ((GainMode.ADAPTIVE, GainMode.FIXED) if mode_val == "both"
             else (_LABEL_MODES[mode_val],))

    users = _int_list(val("users")[0], val("users")[1], "users", 1)
    relays = _int_list(val("relays")[0], val("relays")[1], "relays", 1)
    lam = _float_list(val("lambda")[0], val("lambda")[1], "lambda")

    xi_val, xi_line = val("xi")
    xi = _float_list(xi_val, xi_line, "xi")
    if len(xi) != 1:
        raise ConfigError("xi must be a single value", xi_line)
    xi = xi[0]

    gth_val, gth_line = val("gamma_th_db")
    gamma_th_db = _float_list(gth_val, gth_line, "gamma_th_db")
    if len(gamma_th_db) != 1:
        raise ConfigError("gamma_th_db must be a single value", gth_line)
    gamma_th_db = gamma_th_db[0]
    _check_linear(gamma_th_db, gth_line, "gamma_th_db")

    sweep_val, sweep_line = val("gamma_avg_db")
    sweep = _sweep(sweep_val, sweep_line)
    for gdb in sweep:
        _check_linear(gdb, sweep_line, "gamma_avg_db")

    methods_val, methods_line = val("methods")
    methods = []
    for part in methods_val.split(","):
        name = part.strip()
        if name not in (METHOD_CLOSED, METHOD_QUADRATURE, METHOD_MC):
            raise ConfigError(f"unknown method {name!r}", methods_line)
        if name not in methods:
            methods.append(name)
    # canonical order keeps the spec deterministic
    methods = tuple(m for m in (METHOD_CLOSED, METHOD_QUADRATURE, METHOD_MC)
                    if m in methods)

    trials = _int_list(val("trials")[0], val("trials")[1], "trials", 1)
    seed = _int_list(val("seed")[0], val("seed")[1], "seed", 0)
    workers = _int_list(val("workers")[0], val("workers")[1], "workers", 1)
    for key, tup in (("trials", trials), ("seed", seed),
                     ("workers", workers)):
        if len(tup) != 1:
            raise ConfigError(f"{key} must be a single value",
                              resolved[key][1])
    try:
        sim = SimConfig(trials_or_bits=trials[0], seed=seed[0],
                        workers=workers[0])
    except ValueError as exc:
        message = str(exc)
        key = "seed" if message.startswith("seed") else "trials"
        raise ConfigError(message, val(key)[1]) from None

    # surface channel-parameter violations at their source lines
    for lam_value in lam:
        try:
            LinkParams(gamma_bar_rf=1.0, gamma_bar_fso=1.0, lam=lam_value,
                       a0=1.0, xi=xi,
                       gamma_th=db_to_linear(gamma_th_db))
        except ValueError as exc:
            message = str(exc)
            line = xi_line if "xi" in message else val("lambda")[1]
            raise ConfigError(message, line) from None

    # the later sweeping key is the one that breaks the rule
    sweeping = [resolved[key][1] for key, values in (
        ("users", users), ("relays", relays), ("lambda", lam))
        if len(values) > 1]
    if len(sweeping) > 1:
        raise ConfigError("at most one of users/relays/lambda may sweep",
                          max((line for line in sweeping if line),
                              default=None))

    out_path, out_line = resolved.get("out", (None, None))
    # fail before the sweep, not in write_csv after it
    if out_path and not os.path.isdir(
            os.path.dirname(os.path.abspath(out_path))):
        raise ConfigError(
            f"output directory of {out_path!r} does not exist", out_line)
    if out_path and os.path.isdir(out_path):
        raise ConfigError(f"output path {out_path!r} is a directory",
                          out_line)

    return ExperimentSpec(
        preset=preset, metric=metric, modes=modes, n_users=users,
        m_relays=relays, lam=lam, xi=xi, gamma_th_db=gamma_th_db,
        gamma_avg_db=sweep, methods=methods, sim=sim, out_path=out_path)


def spec_from_sources(config_text="", overrides=None):
    """Config text plus override strings (e.g. CLI flags) -> spec.

    Overrides use the same key vocabulary as the file and win over it.
    """
    entries = _parse_entries(config_text)
    for key, value in (overrides or {}).items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        entries[key] = (value, None)
    return _spec_from_entries(entries)


# ------------------------------------------------------------ execution

def _evaluate_point(spec, mode, n, m, lam, gamma_avg_db):
    gamma = db_to_linear(gamma_avg_db)
    params = LinkParams(
        gamma_bar_rf=gamma, gamma_bar_fso=gamma, lam=lam, a0=1.0,
        xi=spec.xi, gamma_th=db_to_linear(spec.gamma_th_db))
    topology = Topology(n_users=n, m_relays=m, first_segment_mode=mode)
    # the closed adaptive-gain forms are built on the min combiner, so
    # their Monte-Carlo column must sample the same quantity
    first_segment = "min" if mode is GainMode.ADAPTIVE else "exact"

    closed = None
    quad = None
    mc = None
    errors = []

    if METHOD_CLOSED in spec.methods:
        try:
            if spec.metric is Metric.OUTAGE:
                closed = float(outage_closed_form(topology, params))
            else:
                ber = ber_closed_form(topology, params)
                if ber.converged:
                    closed = float(ber.value)
                else:
                    errors.append(
                        f"closed-form: ConvergenceError: BER series "
                        f"unconverged after {ber.n_terms} terms, "
                        f"truncation {ber.truncation:.3g}")
        except Exception as exc:
            errors.append(f"closed-form: {exc}")

    if METHOD_QUADRATURE in spec.methods:
        try:
            if spec.metric is Metric.OUTAGE:
                quad = float(end_to_end_outage_semianalytic(topology, params))
            else:
                def curve(g):
                    p = dataclasses.replace(params,
                                            gamma_th=max(g, 1e-300))
                    return outage_closed_form(topology, p)
                quad = float(ber_quadrature(curve))
        except Exception as exc:
            errors.append(f"quadrature: {exc}")

    if METHOD_MC in spec.methods:
        try:
            if spec.metric is Metric.OUTAGE:
                mc = simulate_outage(topology, params, spec.sim,
                                     first_segment=first_segment)
            else:
                mc = simulate_ber_snr_level(topology, params, spec.sim,
                                            first_segment=first_segment)
        except Exception as exc:
            errors.append(f"monte-carlo: {exc}")

    return CurvePoint(
        preset=spec.preset, mode=mode, metric=spec.metric, n_users=n,
        m_relays=m, xi=spec.xi, lam=lam, gamma_th_db=spec.gamma_th_db,
        gamma_avg_db=gamma_avg_db, closed_form=closed, quadrature=quad,
        mc=mc, seed=spec.sim.seed, error="; ".join(errors) or None)


def _expand(spec):
    for mode in spec.modes:
        for n in spec.n_users:
            for m in spec.m_relays:
                for lam in spec.lam:
                    for gdb in spec.gamma_avg_db:
                        yield mode, n, m, lam, gdb


def run_experiment(spec):
    """Evaluate every sweep point; write the CSV when out_path is set.

    Points run in sweep order in the calling thread; spec.sim.workers
    threads only the Monte-Carlo batches inside a point.  Method
    failures land in the point's error field and the run continues.
    """
    points = [_evaluate_point(spec, *args) for args in _expand(spec)]
    if spec.out_path:
        write_csv(points, spec.out_path)
    return points


# ------------------------------------------------------------- CSV I/O

def _format(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_rows(points):
    rows = [list(CSV_COLUMNS)]
    for p in points:
        rows.append([
            p.preset,
            _MODE_LABELS[p.mode],
            p.metric.value,
            str(p.n_users),
            str(p.m_relays),
            _format(p.xi),
            _format(p.lam),
            _format(p.gamma_th_db),
            _format(p.gamma_avg_db),
            _format(p.closed_form),
            _format(p.quadrature),
            _format(p.mc.mean if p.mc else None),
            _format(p.mc.ci_low if p.mc else None),
            _format(p.mc.ci_high if p.mc else None),
            _format(p.mc.n if p.mc else None),
            str(p.seed),
            p.error or "",
        ])
    return rows


def write_csv(points, path):
    """Write the fixed-schema CSV atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csv.part")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerows(csv_rows(points))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_csv(path):
    """Parse an emitted CSV back into the exact CurvePoint list."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != list(CSV_COLUMNS):
        raise ValueError("not a curve-point CSV (header mismatch)")
    points = []
    for row in rows[1:]:
        rec = dict(zip(CSV_COLUMNS, row))
        mc = None
        if rec["mc_mean"]:
            mc = MetricEstimate(
                mean=float(rec["mc_mean"]), ci_low=float(rec["mc_ci_low"]),
                ci_high=float(rec["mc_ci_high"]), n=int(rec["mc_n"]))
        points.append(CurvePoint(
            preset=rec["preset"],
            mode=_LABEL_MODES[rec["mode"]],
            metric=Metric(rec["metric"]),
            n_users=int(rec["n_users"]),
            m_relays=int(rec["m_relays"]),
            xi=float(rec["xi"]),
            lam=float(rec["lambda"]),
            gamma_th_db=float(rec["gamma_th_db"]),
            gamma_avg_db=float(rec["gamma_avg_db"]),
            closed_form=float(rec["closed_form"])
            if rec["closed_form"] else None,
            quadrature=float(rec["quadrature"])
            if rec["quadrature"] else None,
            mc=mc,
            seed=int(rec["seed"]),
            error=rec["error"] or None))
    return points
