"""Outside-in span tracing of the fsorf layers, and the arithmetic on spans.

A Tracer rebinds each traced public function in every ``fsorf.*``
namespace that holds it, so calls made through ``from .x import f``
names (``fsorf.cli.run_experiment``) and recursion through a module
global (``special.meijer_g`` calling itself on ``flipped()`` parameters)
are all seen.  It also rebinds ``ThreadPoolExecutor`` there with a
subclass whose tasks inherit the submitting thread's open span, so
spans on pool threads are attributed to the sweep point that caused
them.  Spans are kept per thread in memory until the sweep ends.

Nothing here imports fsorf or numpy: the arithmetic is tested on
synthetic spans (test_perfbench.py).
"""

import functools
import itertools
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# layer -> public functions wrapped; names are "<layer>.<function>"
LAYERS = {
    "special": ("meijer_g", "hyp_pfq", "gamma_upper"),
    "series": ("series_coeffs", "series_power_coeffs",
               "ne_pe_snr_cdf_series"),
    "channels": ("ne_pe_snr_cdf", "sample_fso_snr", "sample_rf_snr"),
    "composition": ("end_to_end_outage_semianalytic",
                    "second_relay_cdf_fixed_numeric",
                    "fixed_segment_kernel"),
    "metrics": ("outage_closed_form", "ber_closed_form", "ber_quadrature"),
    "montecarlo": ("simulate_outage", "simulate_ber_snr_level",
                   "sample_chain_min_snr"),
    # _evaluate_point is private but is the one boundary that marks a
    # sweep point; its span is what pool-thread work is attributed to
    "experiments": ("spec_from_sources", "run_experiment", "_evaluate_point",
                    "write_csv"),
    "cli": ("main",),
}
POINT = "experiments._evaluate_point"

# Thread CPU is read only on these spans: a clock read costs as much as a
# scalar special-function call.  A span that skips it records 0 CPU, so
# its CPU stays in the self CPU of its nearest ancestor that reads it.
CPU_LAYERS = ("channels.sample_", "montecarlo.", "experiments.", "cli.")

# Meijer-G classes the sweeps evaluate, G^{m,n}_{p,q} keyed "G<m><n><p><q>":
# FSO CDF, adaptive BER kernel, fixed-gain segment kernel, fixed BER kernel
MEIJER_CLASSES = ("G2123", "G4356", "G5247", "G5357")


class _CountingCurve:
    """Callable proxy that counts the integrand evaluations of a quadrature."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _meijer_class(args, kwargs, result):
    p = args[0]
    return (p.m, p.n, len(p.a), len(p.b))


def _fso_draws(args, kwargs, result):
    pointing = kwargs.get("pointing_error", args[3] if len(args) > 3 else True)
    return getattr(result, "size", 1) * (2 if pointing else 1)


def _rf_draws(args, kwargs, result):
    return getattr(result, "size", 1)


def _ber_terms(args, kwargs, result):
    return (result.n_terms, result.converged)


def _integrand_calls(args, kwargs, result):
    return args[0].calls


def _count_integrand(args, kwargs):
    return (_CountingCurve(args[0]),) + tuple(args[1:]), kwargs


def _trials(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return cfg.trials_or_bits


def _point_label(args, kwargs, result):
    _spec, mode, n, m, lam, gamma_avg_db = args[:6]
    return (f"{getattr(mode, 'value', mode)} N={n} M={m} lambda={lam:g} "
            f"{gamma_avg_db:g}dB")


# per-call tags: (prepare(args, kwargs) -> (args, kwargs), tag(args, kwargs, result))
_HOOKS = {
    "special.meijer_g": (None, _meijer_class),
    "channels.sample_fso_snr": (None, _fso_draws),
    "channels.sample_rf_snr": (None, _rf_draws),
    "metrics.ber_closed_form": (None, _ber_terms),
    "metrics.ber_quadrature": (_count_integrand, _integrand_calls),
    "montecarlo.simulate_outage": (None, _trials),
    "montecarlo.simulate_ber_snr_level": (None, _trials),
    POINT: (None, _point_label),
}


class Tracer:
    """Thread-local span stacks; one record list per thread.

    A record is (name, span id, parent id, wall start, wall end, thread
    CPU start, thread CPU end, tag, thread number).  Parent id 0 means
    no parent.
    """

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._thread_ids = itertools.count(1)
        self._threads = []            # record list of each thread
        self._lock = threading.Lock()
        self.peak_threads = threading.active_count()

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], [], next(self._thread_ids))
            self._threads.append(state[0])
            return state

    def current(self):
        """Id of the innermost open span on this thread, or 0."""
        stack = self._state()[1]
        return stack[-1] if stack else 0

    def wrap(self, name, fn, prepare=None, tag=None):
        """Return fn wrapped so that each call records one span."""
        local = self._local
        state = self._state
        ids = self._ids
        wall = time.perf_counter
        cpu = (time.thread_time if name.startswith(CPU_LAYERS)
               else float)        # float() is 0.0: no clock read

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                records, stack, thread = local.state
            except AttributeError:
                records, stack, thread = state()
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            c0 = cpu()
            t0 = wall()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = wall()
                c1 = cpu()
                stack.pop()
                records.append((name, sid, parent, t0, t1, c0, c1, None,
                                thread))
                raise
            t1 = wall()
            c1 = cpu()
            stack.pop()
            records.append((name, sid, parent, t0, t1, c0, c1,
                            tag(args, kwargs, result) if tag else None,
                            thread))
            return result

        return traced

    def executor_class(self):
        """ThreadPoolExecutor whose tasks run under the submitter's span."""
        tracer = self

        class TracingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    stack = tracer._state()[1]
                    stack.append(parent)
                    with tracer._lock:
                        tracer.peak_threads = max(tracer.peak_threads,
                                                  threading.active_count())
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()

                return super().submit(task, *args, **kwargs)

        return TracingExecutor

    def install(self):
        """Rebind every traced function and ThreadPoolExecutor in fsorf.

        Returns the rebound sites as (module, attribute, original).
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "fsorf" or k.startswith("fsorf.")) and m]
        by_name = {m.__name__: m for m in modules}
        replacements = {}
        for layer, names in LAYERS.items():
            home = by_name[f"fsorf.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                full = f"{layer}.{fn_name}"
                prepare, tag = _HOOKS.get(full, (None, None))
                replacements[id(original)] = (
                    original, self.wrap(full, original, prepare, tag))
        replacements[id(ThreadPoolExecutor)] = (ThreadPoolExecutor,
                                                self.executor_class())
        sites = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    sites.append((module, attr, value))
        return sites

    def spans(self):
        """All records of all threads."""
        return [r for records in self._threads for r in records]


# ------------------------------------------------------------ arithmetic

def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a = max(a, end)
        b = min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def span_times(spans):
    """Per-span self wall, self CPU and wait, keyed by span id.

    Self wall is the span's duration minus the part of it that child
    spans cover, children on other threads included (their intervals
    may overlap, so the union is taken).  Self CPU is the span's thread
    CPU minus that of its children on the same thread.  Wait is the
    span's wall time, less what its cross-thread children cover, less
    its thread CPU: time the span's own thread was ready but not run.
    """
    kids = {}
    for s in spans:
        kids.setdefault(s[2], []).append(s)
    out = {}
    for s in spans:
        _name, sid, _parent, t0, t1, c0, c1, _tag, thread = s
        children = kids.get(sid, ())
        covered = _union_length([(k[3], k[4]) for k in children], t0, t1)
        remote = _union_length([(k[3], k[4]) for k in children
                                if k[8] != thread], t0, t1)
        child_cpu = sum(k[6] - k[5] for k in children if k[8] == thread)
        cpu = c1 - c0
        out[sid] = (t1 - t0 - covered, cpu - child_cpu,
                    max(0.0, t1 - t0 - remote - cpu))
    return out


def outermost_in_thread(spans, prefix):
    """Spans named prefix* with no ancestor of that prefix on their thread."""
    info = {s[1]: s for s in spans}

    def covered(s):
        parent = info.get(s[2])
        while parent is not None and parent[8] == s[8]:
            if parent[0].startswith(prefix):
                return True
            parent = info.get(parent[2])
        return False

    return [s for s in spans if s[0].startswith(prefix) and not covered(s)]


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def rule_of_ten(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (percentile, value), or None when there are fewer than
    eleven samples and no percentile qualifies.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return math.floor(100.0 * (n - 10) / n), ordered[n - 11]


def point_costs(spans, times):
    """Per sweep point: label, wall seconds, thread CPU over all threads.

    A span belongs to the point span it descends from, across threads.
    Ids are handed out at span start, so a parent's id is always below
    its children's and one pass in id order resolves every owner.
    """
    owner = {}
    cpu = {}
    points = {}
    for s in sorted(spans, key=lambda s: s[1]):
        if s[0] == POINT:
            owner[s[1]] = s[1]
            points[s[1]] = s
        else:
            owner[s[1]] = owner.get(s[2], 0)
        p = owner[s[1]]
        if p:
            cpu[p] = cpu.get(p, 0.0) + times[s[1]][1]
    return [(s[7], s[4] - s[3], cpu[p]) for p, s in points.items()]


def layer_metrics(spans, sweep_wall, peak_threads):
    """Per-layer metrics of one traced sweep, named as in BENCHMARK.json.

    Returns the metrics and the per-span times they were built from.
    """
    times = span_times(spans)
    calls = {}
    self_s = {}
    cpu_s = {}
    durations = {}
    tags = {}
    for s in spans:
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        own = times[s[1]]
        self_s[name] = self_s.get(name, 0.0) + own[0]
        cpu_s[name] = cpu_s.get(name, 0.0) + own[1]
        durations.setdefault(name, []).append(s[4] - s[3])
        tags.setdefault(name, []).append(s[7])

    def n(name):
        return calls.get(name, 0)

    def self_of(name):
        return self_s.get(name, 0.0)

    def ms(name, q):
        return 1e3 * percentile(durations.get(name, []), q)

    m = {}
    m["special.meijer_g.calls"] = n("special.meijer_g")
    m["special.meijer_g.self_s"] = self_of("special.meijer_g")
    classes = ["G%d%d%d%d" % t for t in tags.get("special.meijer_g", [])]
    for key in MEIJER_CLASSES:
        m[f"special.meijer_g.{key}.calls"] = classes.count(key)
    m["special.meijer_g.other.calls"] = sum(
        1 for c in classes if c not in MEIJER_CLASSES)
    for name in ("special.hyp_pfq", "special.gamma_upper",
                 "channels.ne_pe_snr_cdf",
                 "composition.second_relay_cdf_fixed_numeric",
                 "composition.fixed_segment_kernel"):
        m[f"{name}.calls"] = n(name)
        m[f"{name}.self_s"] = self_of(name)
    m["composition.second_relay_cdf_fixed_numeric.p50_ms"] = ms(
        "composition.second_relay_cdf_fixed_numeric", 50)
    m["series.self_s"] = sum(v for k, v in self_s.items()
                             if k.startswith("series."))

    draws = 0
    sampler_cpu = 0.0
    for name in ("channels.sample_fso_snr", "channels.sample_rf_snr"):
        m[f"{name}.self_s"] = self_of(name)
        m[f"{name}.cpu_s"] = cpu_s.get(name, 0.0)
        draws += sum(t for t in tags.get(name, []) if t)
        sampler_cpu += cpu_s.get(name, 0.0)
    m["channels.draws"] = draws
    # per CPU second of the samplers, so waiting for a core does not count
    m["channels.draws_per_s"] = draws / sampler_cpu if sampler_cpu else 0.0

    m["metrics.outage_closed_form.calls"] = n("metrics.outage_closed_form")
    m["metrics.ber_quadrature.self_s"] = self_of("metrics.ber_quadrature")
    m["metrics.ber_quadrature.p50_ms"] = ms("metrics.ber_quadrature", 50)
    m["metrics.ber_quadrature.p80_ms"] = ms("metrics.ber_quadrature", 80)
    m["metrics.ber_quadrature.integrand_calls"] = sum(
        t for t in tags.get("metrics.ber_quadrature", []) if t)
    ber_tags = [t for t in tags.get("metrics.ber_closed_form", []) if t]
    m["metrics.ber_closed_form.self_s"] = self_of("metrics.ber_closed_form")
    m["metrics.ber_closed_form.n_terms"] = sum(t[0] for t in ber_tags)
    m["metrics.ber_closed_form.unconverged"] = sum(
        1 for t in ber_tags if not t[1])

    trials = 0
    sim_wall = 0.0
    for name in ("montecarlo.simulate_outage",
                 "montecarlo.simulate_ber_snr_level"):
        m[f"{name}.self_s"] = self_of(name)
        m[f"{name}.p50_ms"] = ms(name, 50)
        m[f"{name}.p80_ms"] = ms(name, 80)
        trials += sum(t for t in tags.get(name, []) if t)
        sim_wall += sum(durations.get(name, []))
    # per second of estimator call, summed over concurrent calls
    m["montecarlo.trials_per_s"] = trials / sim_wall if sim_wall else 0.0
    mc_roots = outermost_in_thread(spans, "montecarlo.")
    # inclusive thread CPU of each thread's outermost MC span: samplers
    # and batch work on pool threads count, waiting on the pool does not
    mc_cpu = sum(s[6] - s[5] for s in mc_roots)
    m["montecarlo.cpu_s"] = mc_cpu
    m["montecarlo.wait_s"] = sum(times[s[1]][2] for s in mc_roots)
    m["montecarlo.concurrency"] = mc_cpu / sweep_wall if sweep_wall else 0.0

    m["experiments.run_experiment.self_s"] = self_of(
        "experiments.run_experiment")
    m["experiments.write_csv.self_s"] = self_of("experiments.write_csv")
    m["experiments.peak_threads"] = peak_threads
    spec = durations.get("experiments.spec_from_sources", [0.0])
    m["experiments.spec_s"] = spec[0]
    return m, times

