"""Per-layer tracing of hotgate from outside the package.

The benchmark wraps public functions of each layer (the modules under
``src/hotgate``) in its own process; the package itself is not changed.
Every call made while an operation is traced records a span (name, start,
end, parent, operation id) in memory. A span's self time is its duration
minus the time its child spans cover. Calls made while no operation is
traced go straight to the wrapped function.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path inside the module)
TRACED = [
    ("cli.main", "hotgate.cli", "main"),
    ("cli.parse_config", "hotgate.cli", "parse_config"),
    ("states.parse_state_spec", "hotgate.states", "parse_state_spec"),
    ("gate.gate_report", "hotgate.gate", "gate_report"),
    ("gate.truth_table", "hotgate.gate", "truth_table"),
    ("gate.gate_fidelity", "hotgate.gate", "gate_fidelity"),
    ("gate.phonon_restoration", "hotgate.gate", "phonon_restoration"),
    ("gate.gate_leakage", "hotgate.gate", "gate_leakage"),
    ("gate.crot", "hotgate.gate", "crot"),
    ("operators.IdealUnitary.apply", "hotgate.operators", "IdealUnitary.apply"),
    ("operators.IdealUnitary.apply_density", "hotgate.operators", "IdealUnitary.apply_density"),
    ("hilbert.compose_state", "hotgate.hilbert", "compose_state"),
    ("hilbert.compose_density", "hotgate.hilbert", "compose_density"),
    ("hilbert.partial_trace_phonon", "hotgate.hilbert", "partial_trace_phonon"),
    ("stirap.block_propagators", "hotgate.stirap", "block_propagators"),
    ("stirap.passage_matrix", "hotgate.stirap", "passage_matrix"),
    ("stirap.PulseEnvelope.value", "hotgate.stirap", "PulseEnvelope.value"),
]

COMPLEX_BYTES = 16


class Tracer:
    """Spans and work counters of the traced operations of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, operation id]
        self._stack = []
        self.op_id = None  # None: calls pass through unrecorded
        self.traced_ops = 0
        self.work = Counter()  # extra counters, summed over traced operations
        self.propagator_keys = set()

    def begin(self, op_id):
        self.op_id = op_id
        self.traced_ops += 1

    def end(self):
        self.op_id = None

    def add(self, key, amount):
        self.work[key] += amount

    def wrap(self, name, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            if note is not None:
                note(tracer, args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.op_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()

        return traced

    def totals(self) -> dict:
        """Summed calls and self time per span name, plus the work counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict(self.work)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - inner)
        return out


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


def _propagator_note(fn):
    import numpy as np

    bind = _bound(fn)

    def note(tracer, args, kwargs):
        a = bind(args, kwargs)
        ns = tuple(int(n) for n in np.atleast_1d(np.asarray(a["ns"], dtype=int)))
        tracer.add("stirap.block_propagators.rung_steps", len(ns) * a["schedule"].n_steps)
        tracer.propagator_keys.add(repr((a["schedule"], a["params"], a["method"], ns)))

    return note


def _crot_note(fn):
    from hotgate.hilbert import CompositeState

    bind = _bound(fn)

    def note(tracer, args, kwargs):
        x = bind(args, kwargs)["state_or_rho"]
        # crot evolves its input on a workspace one phonon rung larger
        dim = 4 ** x.space.n_ions * (x.space.fock.dim + 1)
        if isinstance(x, CompositeState):
            tracer.add("gate.crot.state_calls", 1)
            tracer.add("gate.crot.bytes_computed", COMPLEX_BYTES * dim)
        else:
            tracer.add("gate.crot.density_calls", 1)
            tracer.add("gate.crot.bytes_computed", COMPLEX_BYTES * dim * dim)

    return note


NOTES = {"stirap.block_propagators": _propagator_note, "gate.crot": _crot_note}


def install(tracer: Tracer):
    """Wrap every traced function where hotgate's modules look it up."""
    modules = [m for name, m in sys.modules.items()
               if name == "hotgate" or name.startswith("hotgate.")]
    for name, module_name, attr in TRACED:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, fn_name)
        make_note = NOTES.get(name)
        wrapped = tracer.wrap(name, original, make_note(original) if make_note else None)
        if owner_name:
            setattr(owner, fn_name, wrapped)
            continue
        # `from .hilbert import compose_state` binds a second name in gate
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def per_layer(tracer: Tracer) -> dict:
    """Per-operation layer metrics of the traced operations."""
    totals = tracer.totals()
    ops = max(tracer.traced_ops, 1)
    out = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = totals.get(f"{name}.calls", 0) / ops
        out[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) / ops
    for key in ("stirap.block_propagators.rung_steps", "gate.crot.state_calls",
                "gate.crot.density_calls", "gate.crot.bytes_computed"):
        out[key] = totals.get(key, 0) / ops
    calls = totals.get("stirap.block_propagators.calls", 0)
    keys = len(tracer.propagator_keys)
    out["stirap.block_propagators.distinct_ratio"] = keys / calls if calls else 0.0
    return out
