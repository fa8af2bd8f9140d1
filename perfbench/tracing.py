"""Spans and counters recorded around calls into firlock's layers.

Nothing inside ``src/`` is changed: `Tracer.install` rebinds each
layer's public functions, at every firlock module attribute that holds
them (``evaluate`` and ``decoys`` use ``from``-imports), plus
``PackedEvaluator.run`` and the ``GateNetlist`` JSON methods on their
classes.  `Tracer.uninstall` puts the originals back, so an untraced
subcommand runs the unmodified program.

A span is ``[name, start, end, parent, case]``; ``parent`` indexes the
enclosing span of the same pass (-1 for a top-level span) and
``case`` is the (filter, p, dsm) case the benchmark was running.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

from workloads import WORKLOADS

# The key budgets whose extraction cost per constant is reported.
SWEEP_P = tuple(c.p for c in WORKLOADS["attack-sweep"].cases)
# Name of the span that covers work the tracer itself does after a call
# (gate counting, byte counting); it belongs to no layer.
OBSERVE = "trace.observe"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Observers run after the call's span closed.  They read the call's
# arguments and result and add to the pass's counters.

def _obs_linprog(c, args, kwargs, result, dur):
    c["design.lps_solved"] += 1
    c["design.lp_rows"] += len(kwargs["A_ub"]) if "A_ub" in kwargs else len(args[1])


def _obs_visit(c, args, kwargs, result, dur):
    c["decoys.visits"] += 1
    c["decoys.decoys_drawn"] += int(_arg(args, kwargs, 0, "nod"))


def _obs_assign(c, args, kwargs, result, dur):
    c["decoys.assign_incl_s"] += dur


def _obs_build_tmcm(c, args, kwargs, result, dur):
    c["tmcm.constants"] += sum(len(t) for t in result[0].mux_tables)


def _obs_lower(c, args, kwargs, result, dur):
    from firlock.netlist import OP_NAMES

    c["netlist.gates"] += len(result.gates)
    for g in result.gates:
        c["netlist.gates." + OP_NAMES[g[0]]] += 1


def _obs_verilog(c, args, kwargs, result, dur):
    c["verilog.bytes"] += len(result.encode("utf-8"))


def _obs_eval(c, args, kwargs, result, dur):
    c["netlist.eval_lanes"] += int(_arg(args, kwargs, 2, "width"))


def _obs_extract_bit(c, args, kwargs, result, dur):
    c["attack.extract_bit_calls"] += 1


def _obs_extract(c, args, kwargs, result, dur):
    p = int(_arg(args, kwargs, 0, "nl").meta["p"])
    n = sum(len(row) for row in result.R)
    c["attack.constants"] += n
    c[f"attack.constants.p{p}"] += n
    c[f"attack.extract_incl_s.p{p}"] += dur


def _obs_report(c, args, kwargs, result, dur):
    c["attack.vc"] += result.vc
    c["attack.cdc"] += result.cdc or 0
    c["attack.apc_log2"] += result.apc_log2


def _obs_behavior(c, args, kwargs, result, dur):
    c["evaluate.keys"] += len(result.entries)
    c["evaluate.report_incl_s"] += dur
    excess = [e.band_excess for e in result.entries if not e.is_secret]
    if excess:
        c["evaluate.min_band_excess"] = min(c.get("evaluate.min_band_excess", excess[0]), *excess)


def _obs_curves(c, args, kwargs, result, dur):
    c["evaluate.curves_bytes"] += len(result.encode("utf-8"))


# (module, attribute, span name or None for a counter-only wrapper, observer)
FUNCTIONS = (
    ("firlock.design", "design_coefficients", "design.design_lp", None),
    ("firlock.design", "coefficient_bounds", "design.bound_lps", None),
    ("firlock.design", "verify_spec", "design.verify", None),
    ("firlock.design", "verify_response", "design.verify", None),
    ("firlock.design", "linprog", None, _obs_linprog),
    ("firlock.decoys", "assign_decoys", "decoys.assign", _obs_assign),
    ("firlock.decoys", "assign_decoy_single", None, _obs_visit),
    ("firlock.hamming", "hamming_to", "hamming", None),
    ("firlock.hamming", "hub_element", "hamming", None),
    ("firlock.tmcm", "build_tmcm", "tmcm.build", _obs_build_tmcm),
    ("firlock.tmcm", "simulate_filter", "tmcm.simulate", None),
    ("firlock.netlist", "lower_to_gates", "netlist.lower", _obs_lower),
    ("firlock.verilog", "emit_verilog", "verilog.emit", _obs_verilog),
    ("firlock.attack", "infer_key_slices", "attack.infer_slices", None),
    ("firlock.attack", "extract_constants", "attack.extract", _obs_extract),
    ("firlock.attack", "extract_bit", None, _obs_extract_bit),
    ("firlock.attack", "classify_dsm", "attack.classify", None),
    ("firlock.attack", "compile_report", "attack.classify", _obs_report),
    ("firlock.evaluate", "sample_wrong_keys", "evaluate.sample", None),
    ("firlock.evaluate", "behavior_report", "evaluate.report", _obs_behavior),
    ("firlock.evaluate", "emit_curves", "evaluate.curves", _obs_curves),
)

# (module, class, method, span name, observer)
METHODS = (
    ("firlock.netlist", "GateNetlist", "to_json_dict", "netlist.to_json", None),
    ("firlock.netlist", "GateNetlist", "from_json_dict", "netlist.from_json", None),
    ("firlock.netlist", "PackedEvaluator", "run", "netlist.eval", _obs_eval),
)


class Tracer:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.case = None
        self._stack = []
        self._restore = []

    def reset(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _open(self, name):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, observe):
        tracer = self

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(tracer.counters, args, kwargs, result, 0.0)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                extra = tracer._open(OBSERVE)
                try:
                    observe(tracer.counters, args, kwargs, result, span[2] - span[1])
                finally:
                    tracer._close(extra)
            return result
        return traced

    def install(self):
        """Rebind every traced function and method to its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "firlock" or n.startswith("firlock."))]
        for mod_name, attr, name, observe in FUNCTIONS:
            fn = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(fn, name, observe)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name, observe in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(raw.__func__, name, observe))
            else:
                wrapper = self._wrap(raw, name, observe)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []


def self_times(spans):
    """Per-span self time, in span order."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


def metric_units():
    """The per-layer metrics a traced run reports: name -> unit."""
    from firlock.netlist import OP_NAMES

    return {
        "design.bound_lps_s": "s",
        "design.design_lp_s": "s",
        "design.verify_s": "s",
        "design.lps_solved": "count",
        "design.lp_rows": "count",
        "decoys.assign_s": "s",
        "decoys.visits": "count",
        "decoys.decoys_drawn": "count",
        "decoys.us_per_decoy": "us",
        "hamming.calls": "count",
        "hamming.s": "s",
        "tmcm.build_s": "s",
        "tmcm.constants": "count",
        "tmcm.simulate_s": "s",
        "tmcm.simulate_calls": "count",
        "netlist.lower_s": "s",
        "netlist.gates": "count",
        **{f"netlist.gates.{op}": "count" for op in OP_NAMES},
        "netlist.to_json_s": "s",
        "netlist.from_json_s": "s",
        "netlist.eval_s": "s",
        "netlist.eval_passes": "count",
        "netlist.eval_lanes": "count",
        "verilog.emit_s": "s",
        "verilog.bytes": "bytes",
        "attack.infer_slices_s": "s",
        "attack.extract_s": "s",
        "attack.extract_bit_calls": "count",
        "attack.constants": "count",
        **{f"attack.ms_per_constant.p{p}": "ms" for p in SWEEP_P},
        "attack.classify_s": "s",
        "attack.vc": "count",
        "attack.cdc": "count",
        "attack.apc_log2": "bits",
        "evaluate.sample_s": "s",
        "evaluate.report_s": "s",
        "evaluate.keys": "count",
        "evaluate.ms_per_key": "ms",
        "evaluate.curves_s": "s",
        "evaluate.curves_bytes": "bytes",
        "evaluate.min_band_excess": "gain",
        "cli.design.self_s": "s",
        "cli.obfuscate.self_s": "s",
        "cli.attack.self_s": "s",
        "cli.evaluate.self_s": "s",
        "cli.bytes_written": "bytes",
    }


# Span name -> per-layer self-time metric.
_SPAN_METRIC = {
    "design.bound_lps": "design.bound_lps_s",
    "design.design_lp": "design.design_lp_s",
    "design.verify": "design.verify_s",
    "decoys.assign": "decoys.assign_s",
    "hamming": "hamming.s",
    "tmcm.build": "tmcm.build_s",
    "tmcm.simulate": "tmcm.simulate_s",
    "netlist.lower": "netlist.lower_s",
    "netlist.to_json": "netlist.to_json_s",
    "netlist.from_json": "netlist.from_json_s",
    "netlist.eval": "netlist.eval_s",
    "verilog.emit": "verilog.emit_s",
    "attack.infer_slices": "attack.infer_slices_s",
    "attack.extract": "attack.extract_s",
    "attack.classify": "attack.classify_s",
    "evaluate.sample": "evaluate.sample_s",
    "evaluate.report": "evaluate.report_s",
    "evaluate.curves": "evaluate.curves_s",
    "cli.design": "cli.design.self_s",
    "cli.obfuscate": "cli.obfuscate.self_s",
    "cli.attack": "cli.attack.self_s",
    "cli.evaluate": "cli.evaluate.self_s",
}

_SPAN_COUNT = {
    "hamming": "hamming.calls",
    "tmcm.simulate": "tmcm.simulate_calls",
    "netlist.eval": "netlist.eval_passes",
}


def layer_metrics(spans, counters, bytes_written):
    """Every `metric_units` value for one traced pass."""
    out = dict.fromkeys(metric_units(), 0.0)
    for span, self_s in zip(spans, self_times(spans)):
        metric = _SPAN_METRIC.get(span[0])
        if metric is not None:
            out[metric] += self_s
        count = _SPAN_COUNT.get(span[0])
        if count is not None:
            out[count] += 1
    for name in out:
        if name in counters:
            out[name] = counters[name]
    drawn = counters.get("decoys.decoys_drawn", 0)
    out["decoys.us_per_decoy"] = 1e6 * counters["decoys.assign_incl_s"] / drawn if drawn else 0.0
    keys = counters.get("evaluate.keys", 0)
    out["evaluate.ms_per_key"] = 1e3 * counters["evaluate.report_incl_s"] / keys if keys else 0.0
    for p in SWEEP_P:
        n = counters.get(f"attack.constants.p{p}", 0)
        out[f"attack.ms_per_constant.p{p}"] = (
            1e3 * counters[f"attack.extract_incl_s.p{p}"] / n if n else 0.0
        )
    out["cli.bytes_written"] = float(bytes_written)
    return out


def layer_self_totals(spans):
    """Self time summed by layer (the span name's first dotted part)."""
    totals = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        totals[span[0].split(".")[0] if span[0] != OBSERVE else OBSERVE] += self_s
    return dict(totals)
