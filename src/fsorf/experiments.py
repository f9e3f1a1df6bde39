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

Reproducibility: the Monte-Carlo column of a (users, lambda) group,
the points of every gain mode, relay count and gamma_avg of one user
count and turbulence rate, is drawn once per group: every point is
scored from the same random draws (common random numbers), each
point's cell equal to what a one-point run with the same seed gives.
Curves come out smooth in the abscissa and a fixed (spec, seed) pair
yields a byte-identical CSV at any worker count.
"""

import csv
import functools
import itertools
import math
import os
import stat
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
    simulate_ber_snr_level_curves,
    simulate_outage_curves,
)
from .special import ConvergenceError

METHOD_CLOSED = "closed-form"
METHOD_QUADRATURE = "quadrature"
METHOD_MC = "monte-carlo"

# config key -> (default, CLI metavar, CLI help); a None default is unset
_CONFIG_KEYS = {
    "preset": ("custom", "NAME", "start from a named parameter set: fig1, "
                                 "fig2, fig3 or custom"),
    "metric": ("outage", "NAME", "outage or ber"),
    "mode": ("both", "NAME", "first-segment relaying mode: known-csi, "
                             "unknown-csi or both"),
    "users": ("2", "N[,N...]", "user count, or comma list to sweep"),
    "relays": ("2", "M[,M...]", "relay count, or comma list to sweep"),
    "xi": ("1.45", "XI", "pointing-error severity"),
    "lambda": ("1", "L[,L...]", "turbulence rate, or comma list to sweep"),
    "gamma_th_db": ("10", "DB", "outage threshold SNR in dB"),
    "gamma_avg_db": ("0:5:40", "START:STEP:STOP",
                     "average SNR axis in dB (or one value)"),
    "methods": ("closed-form,quadrature,monte-carlo", "LIST",
                "comma subset of closed-form, quadrature, monte-carlo"),
    "trials": ("1000000", "COUNT", "Monte-Carlo trials"),
    "seed": ("42", "SEED", None),
    "workers": ("1", "COUNT", None),
    "out": (None, "PATH", "CSV destination (stdout when omitted)"),
}
# preset -> the entries it sets apart from the defaults
_PRESETS = {
    "fig1": {"users": "1,2,4"},
    # turbulence variance 1/lambda^2 swept over {0.5, 1, 2}
    "fig2": {"lambda": "1.4142135623730951,1,0.7071067811865476"},
    "fig3": {"metric": "ber", "relays": "1,2,3"},
    "custom": {},
}
_MAX_SWEEP_POINTS = 10_000    # a gamma_avg_db sweep longer than this is a typo


class Metric(Enum):
    OUTAGE = "outage"
    BER = "ber"


class ConfigError(ValueError):
    """Configuration rejection with the offending source line."""

    def __init__(self, message, line=None):
        self.line = line
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


# CSV column -> (field, parser of its text, may the cell be empty), in column
# order; the mc_* columns hold CurvePoint.mc's fields, all empty or all filled
_CSV_SCHEMA = {
    "preset": ("preset", str, False), "mode": ("mode", GainMode, False),
    "metric": ("metric", Metric, False),
    "n_users": ("n_users", int, False), "m_relays": ("m_relays", int, False),
    "xi": ("xi", float, False), "lambda": ("lam", float, False),
    "gamma_th_db": ("gamma_th_db", float, False),
    "gamma_avg_db": ("gamma_avg_db", float, False),
    "closed_form": ("closed_form", float, True),
    "quadrature": ("quadrature", float, True),
    "mc_mean": ("mean", float, True), "mc_ci_low": ("ci_low", float, True),
    "mc_ci_high": ("ci_high", float, True), "mc_n": ("n", int, True),
    "seed": ("seed", int, False), "error": ("error", str, True),
}
CSV_COLUMNS = tuple(_CSV_SCHEMA)


# -------------------------------------------------------------- presets

def preset_entries(name):
    """The key = value content each preset expands to."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    entries = {key: default for key, (default, _, _) in _CONFIG_KEYS.items()
               if default is not None}
    entries.update(_PRESETS[name], preset=name)
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
    preset_val, preset_line = entries.get("preset", (None, None))
    preset = preset_val or "custom"
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}", preset_line)
    resolved = {k: (v, None) for k, v in preset_entries(preset).items()}
    resolved.update(entries)

    def single(key, parse, *args):
        values = parse(*resolved[key], key, *args)
        if len(values) != 1:
            raise ConfigError(f"{key} must be a single value",
                              resolved[key][1])
        return values[0]

    metric_val, metric_line = resolved["metric"]
    try:
        metric = Metric(metric_val)
    except ValueError:
        raise ConfigError(f"metric must be outage or ber, got {metric_val!r}",
                          metric_line) from None

    mode_val, mode_line = resolved["mode"]
    if mode_val not in ("known-csi", "unknown-csi", "both"):
        raise ConfigError(
            "mode must be known-csi, unknown-csi, or both", mode_line)
    modes = tuple(GainMode) if mode_val == "both" else (GainMode(mode_val),)

    users = _int_list(*resolved["users"], "users", 1)
    relays = _int_list(*resolved["relays"], "relays", 1)
    lam = _float_list(*resolved["lambda"], "lambda")
    xi = single("xi", _float_list)
    gamma_th_db = single("gamma_th_db", _float_list)
    _check_linear(gamma_th_db, resolved["gamma_th_db"][1], "gamma_th_db")

    sweep_val, sweep_line = resolved["gamma_avg_db"]
    sweep = _sweep(sweep_val, sweep_line)
    for gdb in sweep:
        _check_linear(gdb, sweep_line, "gamma_avg_db")

    methods_val, methods_line = resolved["methods"]
    names = [part.strip() for part in methods_val.split(",")]
    for name in names:
        if name not in _ROUTES:
            raise ConfigError(f"unknown method {name!r}", methods_line)
    # canonical order keeps the spec deterministic
    methods = tuple(m for m in _ROUTES if m in names)

    trials = single("trials", _int_list, 1)
    seed = single("seed", _int_list, 0)
    workers = single("workers", _int_list, 1)
    try:
        sim = SimConfig(trials_or_bits=trials, seed=seed, workers=workers)
    except ValueError as exc:
        message = str(exc)
        key = "seed" if message.startswith("seed") else "trials"
        raise ConfigError(message, resolved[key][1]) from None

    # surface channel-parameter violations at their source lines
    for lam_value in lam:
        try:
            LinkParams(gamma_bar_rf=1.0, gamma_bar_fso=1.0, lam=lam_value,
                       a0=1.0, xi=xi,
                       gamma_th=db_to_linear(gamma_th_db))
        except ValueError as exc:
            message = str(exc)
            line = resolved["xi" if "xi" in message else "lambda"][1]
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

def _closed_form(spec, topology, params, memo):
    if spec.metric is Metric.OUTAGE:
        return float(outage_closed_form(topology, params, memo=memo))
    ber = ber_closed_form(topology, params, memo=memo)
    if not ber.converged:
        raise ConvergenceError(
            f"ConvergenceError: BER series unconverged after {ber.n_terms} "
            f"terms, truncation {ber.truncation:.3g}")
    return float(ber.value)


def _quadrature(spec, topology, params, memo):
    if spec.metric is Metric.OUTAGE:
        return end_to_end_outage_semianalytic(topology, params, memo=memo)
    return ber_quadrature(functools.partial(
        end_to_end_outage_semianalytic, topology, params, memo=memo))


def _monte_carlo(spec, n, lam):
    """The Monte-Carlo curves of one (users, lambda) group, keyed by
    (mode, relays): one call scores them all from one draw set, and an
    exception it raises fills every cell."""
    shapes = list(dict.fromkeys(itertools.product(spec.modes, spec.m_relays)))
    chains = [Topology(n_users=n, m_relays=m, first_segment_mode=mode)
              for mode, m in shapes]
    levels = [_link_params(spec, lam, g) for g in spec.gamma_avg_db]
    simulate = (simulate_outage_curves if spec.metric is Metric.OUTAGE
                else simulate_ber_snr_level_curves)
    try:
        curves = simulate(chains, levels, spec.sim)
    except Exception as exc:
        curves = [[exc] * len(levels)] * len(shapes)
    return dict(zip(shapes, curves))


# method -> route, in the canonical column order; each route looks up the
# metric functions at call time, so monkeypatching and tracing reach them.
# The closed-form and quadrature routes take one point's LinkParams and
# the memo of its (lambda, gamma_avg) level; the Monte-Carlo route
# takes a (users, lambda) group and returns its curves, each a cell or an
# exception per point
_ROUTES = {
    METHOD_CLOSED: _closed_form,
    METHOD_QUADRATURE: _quadrature,
    METHOD_MC: _monte_carlo,
}


def _link_params(spec, lam, gamma_avg_db):
    gamma = db_to_linear(gamma_avg_db)
    return LinkParams(
        gamma_bar_rf=gamma, gamma_bar_fso=gamma, lam=lam, a0=1.0,
        xi=spec.xi, gamma_th=db_to_linear(spec.gamma_th_db))


def _evaluate_point(spec, mode, n, m, lam, gamma_avg_db, mc, memo):
    """One sweep point; mc is its Monte-Carlo cell or exception, or None
    when the method is not run, and memo its level's analytic memo."""
    params = _link_params(spec, lam, gamma_avg_db)
    topology = Topology(n_users=n, m_relays=m, first_segment_mode=mode)
    cells = {}
    errors = []
    for method in spec.methods:
        try:
            cell = (mc if method == METHOD_MC
                    else _ROUTES[method](spec, topology, params, memo))
        except Exception as exc:
            cell = exc
        if isinstance(cell, Exception):
            errors.append(f"{method}: {cell}")
        else:
            cells[method] = cell

    return CurvePoint(
        preset=spec.preset, mode=mode, metric=spec.metric, n_users=n,
        m_relays=m, xi=spec.xi, lam=lam, gamma_th_db=spec.gamma_th_db,
        gamma_avg_db=gamma_avg_db, closed_form=cells.get(METHOD_CLOSED),
        quadrature=cells.get(METHOD_QUADRATURE), mc=cells.get(METHOD_MC),
        seed=spec.sim.seed, error="; ".join(errors) or None)


def run_experiment(spec):
    """Evaluate every sweep point; write the CSV when out_path is set.

    Points run in the calling thread one (lambda, gamma_avg) level at a
    time: every gain mode, user count and relay count at one level share
    one memo of the closed-form and quadrature routes' parts, which is
    dropped with the level, and each cell is the value or error a point
    alone gives.  The Monte-Carlo route is run once per (users, lambda)
    group, before the levels of its lambda, and scores every point of
    every gain mode and relay count of the group from one set of draws;
    spec.sim.workers threads only its batches.  Points come out in sweep
    order, curve by curve, a curve being the points of one (mode, users,
    relays, lambda).  Method failures land in the point's error field
    and the run continues.
    """
    done = {}
    users = list(dict.fromkeys(spec.n_users))
    shapes = list(dict.fromkeys(itertools.product(spec.modes, spec.m_relays)))
    # floating-point trouble lands in the error column, not on stderr;
    # underflow is routine in the quadrature rules' tails
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for lam in dict.fromkeys(spec.lam):
            mc = ({n: _ROUTES[METHOD_MC](spec, n, lam) for n in users}
                  if METHOD_MC in spec.methods else {})
            for i, g in enumerate(spec.gamma_avg_db):
                memo = {}
                for n, (mode, m) in itertools.product(users, shapes):
                    cell = mc[n][mode, m][i] if mc else None
                    done[mode, n, m, lam, i] = _evaluate_point(
                        spec, mode, n, m, lam, g, cell, memo)
    points = [done[curve + (i,)] for curve in itertools.product(
        spec.modes, spec.n_users, spec.m_relays, spec.lam)
        for i in range(len(spec.gamma_avg_db))]
    if spec.out_path:
        write_csv(points, spec.out_path)
    return points


# ------------------------------------------------------------- CSV I/O

def _format(value):
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    return str(value)    # a float's str is its shortest round-trip repr


def csv_rows(points):
    rows = [list(CSV_COLUMNS)]
    for p in points:
        rows.append([
            _format(None if owner is None else getattr(owner, field))
            for column, (field, _, _) in _CSV_SCHEMA.items()
            for owner in [p.mc if column.startswith("mc_") else p]])
    return rows


def _file_mode(path):
    """The mode open(path, "w") leaves: its own, or 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)   # the umask can only be read by setting it
        os.umask(umask)
        return 0o666 & ~umask


def write_csv(points, path):
    """Write the fixed-schema CSV atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csv.part")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerows(csv_rows(points))
        os.chmod(tmp, _file_mode(path))   # mkstemp creates it 0o600
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
        reader = csv.reader(handle)
        rows = [(reader.line_num, row) for row in reader]
    if not rows or rows[0][1] != list(CSV_COLUMNS):
        raise ValueError("not a curve-point CSV (header mismatch)")
    points = []
    for line, row in rows[1:]:
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"line {line}: {len(row)} cells, expected "
                             f"{len(CSV_COLUMNS)}")
        fields, mc = {}, {}
        for cell, (column, (field, parse, may_be_empty)) in zip(
                row, _CSV_SCHEMA.items()):
            if not (cell or may_be_empty):
                raise ValueError(f"line {line}: empty {column} cell")
            owner = mc if column.startswith("mc_") else fields
            owner[field] = parse(cell) if cell else None
        empty = list(mc.values()).count(None)
        if empty not in (0, len(mc)):
            raise ValueError(f"line {line}: mc_* cells are partly empty")
        points.append(CurvePoint(**fields, mc=None if empty else
                                 MetricEstimate(**mc)))
    return points
