"""Per-layer timing by wrapping the package's public functions.

A traced run replaces each function named in TRACED, in every
delayfilter module that refers to it, with a wrapper that records a
span: name, the enclosing traced call, duration and a few facts about
the call. The package's code is not changed; the wrappers sit at the
module boundary and are removed when the trace ends. Spans stay in
memory and are reduced to per-layer metrics at the end of the run.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import delayfilter

TRACED = {
    "csvio": ("read_measurements", "write_estimates"),
    "model": ("load_model_file",),
    "markov": ("analyze_delays",),
    "zeros": ("invariant_zeros",),
    "gain": ("square_gain", "minvar_gain", "covariance_update", "steady_state_gain"),
    "filtering": ("init_filter", "step", "classify_convergence"),
    "sim": ("simulate",),
    "registry": ("check_example_facts",),
    "cli": ("main",),
}


@dataclass
class Span:
    name: str                    # "gain.minvar_gain", or "cli.<command>" for cli.main
    parent: str | None           # name of the enclosing traced call
    seconds: float
    facts: dict = field(default_factory=dict)


class Tracer:
    """Install with `with Tracer() as t:`; spans accumulate in `t.spans`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[str] = []
        self.model_file = None       # argument of the innermost `cli analyze`
        self.delay = None            # delay of the last traced init_filter
        self._patched = []

    def __enter__(self):
        originals = {}
        for short, names in TRACED.items():
            module = sys.modules[f"delayfilter.{short}"]
            for fn_name in names:
                originals[id(getattr(module, fn_name))] = (f"{short}.{fn_name}",
                                                          getattr(module, fn_name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "delayfilter" and not mod_name.startswith("delayfilter."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    name, fn = originals[id(value)]
                    setattr(module, attr, self._wrap(name, fn))
                    self._patched.append((module, attr, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in self._patched:
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = f"cli.{args[0][0]}" if name == "cli.main" else name
            if span_name == "cli.analyze":
                tracer.model_file = args[0][1]
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                tracer.stack.pop()
            tracer.spans.append(Span(span_name, parent, seconds,
                                     tracer._facts(name, args, result)))
            return result

        return traced

    def _facts(self, name, args, result) -> dict:
        if name == "filtering.step":
            before, (after, out) = args[0], result
            facts = {"emitted": out is not None, "time_varying": not before.gain_frozen}
            if not before.gain_frozen and after.gain_frozen:
                facts["froze_at"] = (self.delay, before.k)
            return facts
        if name == "filtering.init_filter":
            self.delay = int(args[2].r)
            return {"mode": args[2].gain_mode}
        if name == "gain.steady_state_gain":
            return {"converged": bool(result[2]), "model_file": self.model_file}
        if name == "registry.check_example_facts":
            return {"example": args[0]}
        if name == "csvio.read_measurements":
            return {"rows": len(result[0]), "bytes": os.path.getsize(args[0])}
        if name == "csvio.write_estimates":
            return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}
        return {}

    def select(self, name, parent=None, **facts) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (parent is None or s.parent == parent)
                and all(s.facts.get(k) == v for k, v in facts.items())]


# Per-call timings: metric -> (span, enclosing span or None, facts the
# span must carry, scale from seconds, unit). Gain synthesis counts only
# where the streaming filter calls it, and the analysis layers only under
# `cli analyze`, so the Riccati iterations of `analyze` and the facts
# checked by `reproduce` do not mix into them.
TIMINGS = {
    "model.load_model_file_us": ("model.load_model_file", None, {}, 1e6, "us"),
    "filtering.step_frozen_us": ("filtering.step", None,
                                 {"emitted": True, "time_varying": False}, 1e6, "us"),
    "filtering.step_tv_us": ("filtering.step", None,
                             {"emitted": True, "time_varying": True}, 1e6, "us"),
    "gain.minvar_gain_us": ("gain.minvar_gain", "filtering.step", {}, 1e6, "us"),
    "gain.covariance_update_us": ("gain.covariance_update", "filtering.step", {}, 1e6, "us"),
    "gain.square_gain_us": ("gain.square_gain", "filtering.init_filter", {}, 1e6, "us"),
    "filtering.init_filter_ms.fixed_square": ("filtering.init_filter", None,
                                              {"mode": "FixedSquare"}, 1e3, "ms"),
    "filtering.init_filter_ms.tv_minvar": ("filtering.init_filter", None,
                                           {"mode": "TimeVaryingMinVar"}, 1e3, "ms"),
    "sim.simulate_ms": ("sim.simulate", None, {}, 1e3, "ms"),
    "markov.analyze_delays_ms": ("markov.analyze_delays", "cli.analyze", {}, 1e3, "ms"),
    "zeros.invariant_zeros_ms": ("zeros.invariant_zeros", "cli.analyze", {}, 1e3, "ms"),
    "gain.steady_state_gain_ms": ("gain.steady_state_gain", "cli.analyze", {}, 1e3, "ms"),
    "filtering.classify_convergence_us": ("filtering.classify_convergence", "cli.analyze",
                                          {}, 1e6, "us"),
}


def _median(values, what: str) -> float:
    values = list(values)
    if not values:
        raise RuntimeError(f"traced run recorded no span for {what}")
    return statistics.median(values)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics (value, unit) from the recorded spans.

    Times are inclusive medians per call; CSV figures come from the
    reads and writes of `cli filter`.
    """
    t = tracer
    metrics = {}
    for fn, verb, direction in (("read_measurements", "read", "in"),
                                ("write_estimates", "write", "out")):
        spans = t.select(f"csvio.{fn}", "cli.filter")
        what = f"csvio.{fn} in cli filter"
        metrics[f"csvio.{verb}_us_per_row"] = (
            1e6 * _median((s.seconds / s.facts["rows"] for s in spans), what), "us")
        metrics[f"csvio.bytes_per_row_{direction}"] = (
            _median((s.facts["bytes"] / s.facts["rows"] for s in spans), what), "B")
    for name, (span, parent, facts, scale, unit) in TIMINGS.items():
        metrics[name] = (scale * _median((s.seconds for s in t.select(span, parent, **facts)),
                                         name), unit)
    metrics["gain.steady_state_diverged"] = (len({s.facts["model_file"] for s in t.select(
        "gain.steady_state_gain", "cli.analyze", converged=False)}), "count")
    for r in (1, 2):
        metrics[f"filtering.freeze_step_r{r}"] = (_median(
            (s.facts["froze_at"][1] for s in t.select("filtering.step")
             if s.facts.get("froze_at", (None,))[0] == r),
            f"a time-varying session freezing at r={r}"), "count")
    for example in delayfilter.EXAMPLE_IDS:
        metrics[f"registry.check_example_facts_ms.{example}"] = (1e3 * _median(
            (s.seconds for s in t.select("registry.check_example_facts", "cli.reproduce",
                                         example=example)),
            f"check_example_facts({example})"), "ms")
    return metrics
