"""Spans and counts at the public boundaries of each `alleechain` module.

The tracer wraps functions from outside the package. Every module attribute
that refers to a wrapped function is replaced, so a caller that imported the
function by name (`asymptotics` imports `psd_product` and `mode_profile`) is
traced as well as one that looks it up on its module (`cli` calls
`stationary.psd_product`). Spans stay in memory; the worker turns them into
layer metrics when its ops are done.

A span is `[name, start, end, parent, op, info]`: `parent` is the index of
the enclosing span (None for an op), `op` the index of the CLI call it ran
in, and `info` what the layer metrics need from the call's arguments or
result, taken after the span closed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: (span name, module, attribute path, info extractor or None).
TRACED = (
    ("model.rate_arrays", "model", "rate_arrays", None),
    ("stationary.psd_product", "stationary", "psd_product",
     lambda args, kwargs, result: result.capacity_n + 1),
    ("stationary.mode_profile", "stationary", "mode_profile", None),
    ("stationary.to_csv", "stationary", "StationaryDistribution.to_csv",
     lambda args, kwargs, result: args[0].capacity_n + 1),
    ("asymptotics.markov_exponent", "asymptotics", "markov_exponent", None),
    ("asymptotics.limit_distribution_diagnostic", "asymptotics",
     "limit_distribution_diagnostic", None),
    ("asymptotics.discrete_markov_exponent", "asymptotics", "discrete_markov_exponent", None),
    # The generator and horizon are kept; the term count is derived after the run.
    ("master_eq.evolve", "master_eq", "evolve",
     lambda args, kwargs, result: (args[0], args[2] if len(args) > 2 else kwargs["t"],
                                   kwargs.get("truncation_tol"))),
    ("master_eq.converge", "master_eq", "converge_to_stationary",
     lambda args, kwargs, result: result[1]),
    ("ssa.simulate", "ssa", "simulate",
     lambda args, kwargs, result: result.times.size - 1),
    ("ssa.ensemble", "ssa", "ensemble", None),
    ("ssa.occupation", "ssa", "occupation_distribution", None),
    ("ssa.to_csv", "ssa", "Trajectory.to_csv",
     lambda args, kwargs, result: args[0].times.size),
    ("deterministic.integrate", "deterministic", "integrate",
     lambda args, kwargs, result: (result.times.size - 1, result.classification)),
)

#: Every per-layer metric the traced run reports: (name, unit, better).
LAYER_METRICS = (
    ("model.rate_arrays.calls", "count", "lower"),
    ("model.rate_arrays.s", "s", "lower"),
    ("stationary.psd_product.calls", "count", "lower"),
    ("stationary.psd_product.s", "s", "lower"),
    ("stationary.states", "count", "lower"),
    ("stationary.mode_profile.calls", "count", "lower"),
    ("stationary.mode_profile.s", "s", "lower"),
    ("stationary.to_csv.s", "s", "lower"),
    ("stationary.to_csv.rows", "count", "lower"),
    ("asymptotics.markov_exponent.calls", "count", "lower"),
    ("asymptotics.markov_exponent.s", "s", "lower"),
    ("asymptotics.limit_distribution_diagnostic.s", "s", "lower"),
    ("asymptotics.discrete_markov_exponent.calls", "count", "lower"),
    ("asymptotics.discrete_markov_exponent.s", "s", "lower"),
    ("master_eq.evolve.calls", "count", "lower"),
    ("master_eq.evolve.s", "s", "lower"),
    ("master_eq.converge.s", "s", "lower"),
    ("master_eq.horizon", "model_time", "lower"),
    ("master_eq.terms", "count", "lower"),
    ("master_eq.state_updates_per_s", "1/s", "higher"),
    ("ssa.simulate.calls", "count", "lower"),
    ("ssa.simulate.s", "s", "lower"),
    ("ssa.jumps", "count", "lower"),
    ("ssa.jumps_per_s", "1/s", "higher"),
    ("ssa.ensemble.s", "s", "lower"),
    ("ssa.occupation.s", "s", "lower"),
    ("ssa.to_csv.s", "s", "lower"),
    ("ssa.to_csv.rows", "count", "lower"),
    ("deterministic.integrate.calls", "count", "lower"),
    ("deterministic.integrate.s", "s", "lower"),
    ("deterministic.steps", "count", "lower"),
    ("deterministic.undecided_frac", "frac", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

OP_SPAN = "cli.op"


class Tracer:
    """In-memory span recorder; `op` is the index of the CLI call running."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        """Return `fn` recording one span per call under `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer, package) -> callable:
    """Wrap every TRACED function of `package`; return a function undoing it."""
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
    for span_name, module_name, path, info in TRACED:
        owner = sys.modules[f"{package.__name__}.{module_name}"]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, original, info)
        if classes:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _evolve_terms(gen, t, truncation_tol) -> int:
    """Poisson series terms `master_eq.evolve` uses for this call (computed)."""
    from scipy import stats

    from alleechain import master_eq

    if truncation_tol is None:
        truncation_tol = inspect.signature(master_eq.evolve).parameters["truncation_tol"].default
    lt = gen.uniformization_rate() * t
    if lt == 0.0:
        return 0
    # evolve truncates at last = isf + 1 and sums the terms k = 0..last.
    return int(stats.poisson.isf(truncation_tol, lt)) + 2


def layer_metrics(spans, bytes_written: int) -> dict[str, float]:
    """Per-layer counts and self times from one traced run of a workload."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    infos: dict[str, list] = {}
    for (name, _, _, _, _, info), s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + s
        infos.setdefault(name, []).append(info)

    def rate(count, name):
        return count / seconds[name] if seconds.get(name) else 0.0

    terms = states = 0
    for gen, t, tol in infos.get("master_eq.evolve", []):
        n_terms = _evolve_terms(gen, t, tol)
        terms += n_terms
        states += n_terms * gen.dimension
    steps = infos.get("deterministic.integrate", [])
    jumps = sum(infos.get("ssa.simulate", []))
    out = {}
    for metric, _, _ in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(span, 0)
        elif kind == "s":
            out[metric] = seconds.get(span, 0.0)
    out.update({
        "stationary.states": sum(infos.get("stationary.psd_product", [])),
        "stationary.to_csv.rows": sum(infos.get("stationary.to_csv", [])),
        "master_eq.horizon": sum(infos.get("master_eq.converge", [])),
        "master_eq.terms": terms,
        "master_eq.state_updates_per_s": rate(states, "master_eq.evolve"),
        "ssa.jumps": jumps,
        "ssa.jumps_per_s": rate(jumps, "ssa.simulate"),
        "ssa.to_csv.rows": sum(infos.get("ssa.to_csv", [])),
        "deterministic.steps": sum(n for n, _ in steps),
        "deterministic.undecided_frac":
            sum(label == "undecided" for _, label in steps) / len(steps) if steps else 0.0,
        "cli.self_s": seconds.get(OP_SPAN, 0.0),
        "cli.bytes_written": bytes_written,
    })
    return out
