"""Self-test of the benchmark harness (not of quantstab).

Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import quantstab as qs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import (BACKEND, ROOT, Span, Tracer, instrument,  # noqa: E402
                     layer_metrics, self_times)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def synthetic_spans():
    """workload [0, 10] > cli [1, 6] > synth_sign [2, 5] > backend [3, 4],
    plus a sibling verify [7, 9] > backend [7.5, 8.5]."""
    clock = FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 7.5, 8.5, 9, 10])
    tracer = Tracer(clock)
    with tracer.span(ROOT):
        with tracer.span("cli"):
            with tracer.span("synth_sign"):
                with tracer.span(BACKEND) as b:
                    b.attrs.update(vars=7, rows=3, nnz=11, status="optimal")
        with tracer.span("verify"):
            with tracer.span(BACKEND) as b:
                b.attrs.update(vars=2, rows=5, nnz=4,
                               status="numerical-failure")
    return tracer.spans


def test_self_times_on_synthetic_tree():
    spans = synthetic_spans()
    assert [s.name for s in spans] == [ROOT, "cli", "synth_sign", BACKEND,
                                       "verify", BACKEND]
    assert self_times(spans) == [10 - 5 - 2, 5 - 3, 3 - 1, 1, 2 - 1, 1]
    # Self times of all spans add up to the root span.
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0), Span("a", 1.0, 5.0, parent=0),
             Span("b", 4.0, 6.0, parent=0), Span("c", 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_layer_metrics_on_synthetic_tree():
    m = {k: v for k, (v, _) in layer_metrics(synthetic_spans()).items()}
    assert m["cli.s"] == 5 and m["cli.self_s"] == 2 and m["cli.calls"] == 1
    assert m["cli.lps"] == 1 and m["synth_sign.lps"] == 1
    assert m["verify.lps"] == 1 and m["workload.self_s"] == 3
    assert m["synth_sign.backend_s"] == 1
    assert m["lp_core.backend_calls"] == 2
    assert m["lp_core.numerical_failures"] == 1
    assert (m["lp_core.max_vars"], m["lp_core.max_rows"],
            m["lp_core.max_nnz"]) == (7, 5, 11)


def test_instrument_records_default_backend_lps_and_restores():
    from quantstab import lp_core
    original = lp_core.LinprogBackend.solve
    box = qs.Polytope(G=[[1, 0], [-1, 0], [0, 1], [0, -1]], h=[1, 1, 2, 2])
    tracer = Tracer()
    with instrument(tracer):
        assert qs.max_linear_over_polytope([1.0, 1.0], box) == 3.0
    assert lp_core.LinprogBackend.solve is original
    (span,) = tracer.spans
    assert span.name == BACKEND
    assert span.attrs == {"vars": 2, "rows": 4, "nnz": 4, "status": "optimal"}


def test_forced_numerical_failure_raises_error_rate(monkeypatch):
    audited = []
    monkeypatch.setattr(wl, "audit", lambda *args: audited.append(args))

    def rate(fail_at):
        rep = wl.Rep(SimpleNamespace(min_feasible_rho=qs.min_feasible_rho),
                     SimpleNamespace(plant=SimpleNamespace(m=1)), refs=None)

        def synth_at(r):
            if r == fail_at:
                return qs.SynthResult("numerical-failure")
            return qs.SynthResult("feasible" if r >= 0.3 else "infeasible",
                                  certificate=SimpleNamespace(lam=0.5))

        rho = wl.rho_star(rep, "sign", synth_at, audit_poly=None)
        return rep, rho, rep.failed / len(rep.ops)

    clean, rho_clean, rate_clean = rate(fail_at=None)
    assert rate_clean == 0 and clean.retries == 0
    forced, rho_forced, rate_forced = rate(fail_at=0.5)
    assert rate_forced > 0
    # The failing probe and its identical retry both count as failed.
    assert [o.kind for o in forced.ops if o.failure] == ["probe", "probe"]
    assert forced.retries == 1
    assert not forced.wrong
    assert len(audited) == 2
    assert 0.3 <= rho_clean < 0.3 + wl.RHO_TOL
    # Counting the failure as infeasible bends the bisection.
    assert rho_forced > 0.5


def test_printed_metric_names_are_declared():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    rep = SimpleNamespace(ops=[wl.Op("probe", "x")], failed=0, run_s=2.0,
                          time_to_cert_s=1.0, peak_rss_mb=90.0, retries=0,
                          faces=(600, 48),
                          values={"min_rho": 0.1, "cert_lambda": 0.5})
    e2e = run.end_to_end_metrics([rep], [0.5, 0.6])
    assert {k: u for k, (_, u) in e2e.items()} == declared_e2e
    tracer = SimpleNamespace(spans=synthetic_spans())
    layer = run.per_layer_metrics([rep], [rep], [tracer])
    assert {k: u for k, (_, u) in layer.items()} == declared_layer
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
