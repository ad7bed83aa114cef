"""Span tracing installed from outside the quantstab package.

A Tracer keeps spans in memory: name, start, end, parent span and the
benchmark operation that was running.  Spans come from two places:

* wrappers around the public calls a workload makes (one layer per module,
  see LAYER_OF in workloads.py), and
* class-level wrappers on LPModel.assemble and LinprogBackend.solve, plus
  the log_quantize_vector name that sysmodel looks up.  Patching the class
  catches every LP, including the ones that ignore a ``backend=`` argument.

layer_metrics() turns the spans of one traced repetition into the per-layer
metrics of the benchmark.
"""

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

MODULE_LAYERS = ("consistency", "synth_sign", "synth_aarc", "nominal", "cli",
                 "verify", "sysmodel", "quantizer")
ASSEMBLE = "lp_core.assemble"
BACKEND = "lp_core.backend"
ROOT = "workload"


@dataclass
class Span:
    name: str
    start: float
    end: float = None
    parent: int = None          # index into Tracer.spans; None for a root
    op: int = None              # benchmark operation id
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    def to_json_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **self.attrs}


class Tracer:
    """In-memory span recorder for one single-threaded repetition."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        span = Span(name, self.clock(),
                    parent=self._open[-1] if self._open else None, op=self.op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = self.clock()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def lp_size(c, A_ub, A_eq):
    """(variables, constraint rows, nonzeros) of a linprog-style LP."""
    rows = nnz = 0
    for A in (A_ub, A_eq):
        if A is None:
            continue
        rows += A.shape[0]
        nnz += A.nnz if sp.issparse(A) else int(np.count_nonzero(A))
    return len(c), rows, nnz


@contextlib.contextmanager
def instrument(tracer):
    """Patch the LP entry points and the quantizer seen by sysmodel so that
    they record spans into tracer; restore the originals on exit."""
    from quantstab import lp_core, sysmodel

    assemble = lp_core.LPModel.assemble
    backend_solve = lp_core.LinprogBackend.solve
    quantize = sysmodel.log_quantize_vector

    def traced_assemble(self):
        with tracer.span(ASSEMBLE):
            return assemble(self)

    def traced_solve(self, c, A_ub, b_ub, A_eq, b_eq, bounds):
        with tracer.span(BACKEND) as span:
            try:
                out = backend_solve(self, c, A_ub, b_ub, A_eq, b_eq, bounds)
            except Exception:
                span.attrs["status"] = "exception"
                raise
        nvars, rows, nnz = lp_size(c, A_ub, A_eq)
        span.attrs.update(vars=nvars, rows=rows, nnz=nnz, status=out[0])
        return out

    lp_core.LPModel.assemble = traced_assemble
    lp_core.LinprogBackend.solve = traced_solve
    sysmodel.log_quantize_vector = tracer.wrap("quantizer", quantize)
    try:
        yield tracer
    finally:
        lp_core.LPModel.assemble = assemble
        lp_core.LinprogBackend.solve = backend_solve
        sysmodel.log_quantize_vector = quantize


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return [s.duration - _covered([(max(c.start, s.start), min(c.end, s.end))
                                   for c in kids])
            for s, kids in zip(spans, children)]


def layer_metrics(spans):
    """Per-layer metrics of one traced repetition, as {name: (value, unit)}.

    For each module layer: time in its spans (.s), that time minus child
    spans (.self_s), span count (.calls), LPs solved under it (.lps) and
    their backend time (.backend_s).  The root span of the repetition
    reports .s and .self_s.  lp_core reports assembly and backend totals,
    numerical failures and the largest LP seen.
    """
    selfs = self_times(spans)
    out = {}
    for layer in (ROOT,) + MODULE_LAYERS:
        mine = [i for i, s in enumerate(spans) if s.name == layer]
        out[f"{layer}.s"] = (sum(spans[i].duration for i in mine), "s")
        out[f"{layer}.self_s"] = (sum(selfs[i] for i in mine), "s")
        if layer != ROOT:
            out[f"{layer}.calls"] = (len(mine), "count")
            out[f"{layer}.lps"] = (0, "count")
            out[f"{layer}.backend_s"] = (0.0, "s")
    backends = [s for s in spans if s.name == BACKEND]
    for b in backends:
        layers, at = set(), b.parent
        while at is not None:
            layers.add(spans[at].name)
            at = spans[at].parent
        for layer in layers.intersection(MODULE_LAYERS):
            out[f"{layer}.lps"] = (out[f"{layer}.lps"][0] + 1, "count")
            out[f"{layer}.backend_s"] = (out[f"{layer}.backend_s"][0]
                                         + b.duration, "s")
    assembles = [s for s in spans if s.name == ASSEMBLE]
    out["lp_core.assemble_s"] = (sum(s.duration for s in assembles), "s")
    out["lp_core.assemble_calls"] = (len(assembles), "count")
    out["lp_core.backend_s"] = (sum(s.duration for s in backends), "s")
    out["lp_core.backend_calls"] = (len(backends), "count")
    out["lp_core.numerical_failures"] = (
        sum(s.attrs.get("status") in ("numerical-failure", "exception")
            for s in backends), "count")
    for key in ("vars", "rows", "nnz"):
        out[f"lp_core.max_{key}"] = (
            max((s.attrs.get(key, 0) for s in backends), default=0), "count")
    return out
