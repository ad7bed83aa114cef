"""Workloads of the certify-pipeline benchmark and the checks on their outputs.

Each workload is a fixed list of public quantstab calls, the same ones the
CLI chains together: build and prune the consistency polytope, synthesize,
audit every certificate with robust_verify, simulate the quantized loop and
bisect for the minimal density.  The polytope step, each synthesis call
(every bisection probe included), each audit, each simulation and each
rho* result is one operation.  An operation fails on a solver
``numerical-failure`` (kind "solver") or on an exception, an unverified
certificate, a violated decay bound or a result off its reference (kind
"wrong").  Only "wrong" failures make a run incorrect.
"""

import contextlib
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import quantstab as qs
from quantstab.nominal import LAMBDA_BISECT_TOL, NominalProblem
from tracing import ROOT

RHO_TOL = 1e-4                 # tol passed to min_feasible_rho
SIM_STEPS = 200
SEEDED_X0 = 2                  # initial states drawn from --seed, besides x0 = 1

LAYER_OF = {
    "build_polytope": "consistency",
    "prune_redundant": "consistency",
    "synthesize_sign": "synth_sign",
    "synthesize_aarc": "synth_aarc",
    "synthesize_nominal_sign": "nominal",
    "min_feasible_rho": "cli",
    "robust_verify": "verify",
    "simulate_quantized": "sysmodel",
    "decay_check": "sysmodel",
}

# Outputs of the unmodified pipeline on dataset seed 1.
REFERENCE_DATA_SEED = 1
REFERENCE = {
    "faces": {"sys1": (600, 48), "sys2": (600, 163)},
    "lambda": {("sign", 0.7): 0.5807495117187538,
               ("sign", 0.4): 0.7229003906250031,
               ("aarc", 0.7): 0.5849609375000007,
               ("aarc", 0.2): 0.8718261718750001},
    "rho_star": {"sign": 0.06280517578125,
                 "nominal": 0.01385498046875,
                 "aarc": 0.06488037109375},
}


def bind_api(tracer=None):
    """The public calls a workload makes, each wrapped in a span of its
    module's layer when a tracer is given."""
    fns = {name: getattr(qs, name) for name in LAYER_OF}
    if tracer is not None:
        fns = {name: tracer.wrap(LAYER_OF[name], fn)
               for name, fn in fns.items()}
    return SimpleNamespace(**fns)


@dataclass
class Op:
    kind: str
    label: str
    failure: str = ""           # "", "solver" or "wrong"
    detail: str = ""


class Rep:
    """One repetition of a workload's operation list."""

    def __init__(self, api, data, refs, tracer=None):
        self.api = api
        self.data = data
        self.refs = refs            # REFERENCE, or None for other datasets
        self.tracer = tracer
        self.ops = []
        self.retries = 0
        self.faces = (0, 0)
        self.values = {}            # min_rho, cert_lambda
        self.t0 = self.t_cert = self.t_end = None
        self.peak_rss_mb = None     # process peak when this repetition ended

    def op(self, kind, label, fn, check=None):
        """Run fn as one operation; check(result) returns None when the
        result is right, else (failure kind, detail)."""
        record = Op(kind, label)
        self.ops.append(record)
        outer = self.tracer.op if self.tracer else None
        if self.tracer:
            self.tracer.op = len(self.ops) - 1
        try:
            result = fn()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            record.failure, record.detail = "wrong", f"{type(exc).__name__}: {exc}"
            return None
        finally:
            if self.tracer:
                self.tracer.op = outer
        problem = check(result) if check else None
        if problem:
            record.failure, record.detail = problem
        return result

    def ref(self, table, key):
        return None if self.refs is None else self.refs[table][key]

    @property
    def failed(self):
        return sum(1 for o in self.ops if o.failure)

    @property
    def wrong(self):
        return [o for o in self.ops if o.failure == "wrong"]

    @property
    def run_s(self):
        return self.t_end - self.t0

    @property
    def time_to_cert_s(self):
        return None if self.t_cert is None else self.t_cert - self.t0


def _status_problem(res, expect_feasible):
    if res.status == "numerical-failure":
        return "solver", "numerical-failure"
    if expect_feasible and not res.feasible:
        return "wrong", f"verdict {res.status}, expected feasible"
    return None


def polytope(rep):
    """Build and prune the consistency polytope; the true plant must stay
    inside and the face counts must match the reference."""
    api, data = rep.api, rep.data

    def run():
        full = api.build_polytope(data.dataset)
        return full, api.prune_redundant(full)

    def check(polys):
        full, pruned = polys
        rep.faces = (full.num_faces, pruned.num_faces)
        if not qs.contains_plant(pruned, data.plant.A, data.plant.B):
            return "wrong", "true plant outside the pruned polytope"
        ref = rep.ref("faces", data.system)
        if ref is not None and rep.faces != ref:
            return "wrong", f"faces {rep.faces}, reference {ref}"
        return None

    polys = rep.op("polytope", data.system, run, check)
    return None if polys is None else polys[1]


def audit(rep, label, poly, cert, spec):
    def check(report):
        if not report.verified:
            return "wrong", f"unverified, worst margin {report.worst_margin:.3e}"
        return None
    rep.op("audit", label, lambda: rep.api.robust_verify(poly, cert, spec), check)


def simulate(rep, label, cert, spec):
    """Run the quantized loop of the true plant from each initial state and
    check the certified decay bound."""
    api, plant = rep.api, rep.data.plant

    def run(x0):
        K = qs.recover_controller(cert.S, cert.v)
        traj, status = api.simulate_quantized(plant, K, spec, x0, SIM_STEPS)
        return status, api.decay_check(traj, cert.v, cert.lam)

    def check(out):
        status, decayed = out
        if status != "ok" or not decayed:
            return "wrong", f"simulation {status}, decay bound held: {decayed}"
        return None

    for k, x0 in enumerate(rep.data.x0s):
        rep.op("simulate", f"{label} x0#{k}", lambda: run(x0), check)


def certify(rep, poly, method, rho, objective):
    """Synthesize at density rho, audit the certificate, then simulate it.
    Returns the certificate, or None when synthesis failed."""
    synth = {"sign": rep.api.synthesize_sign,
             "aarc": rep.api.synthesize_aarc}[method]
    spec = qs.QuantizerSpec.uniform(rho, rep.data.plant.m)
    label = f"{method} {objective} rho={rho}"

    def check(res):
        problem = _status_problem(res, expect_feasible=True)
        if problem:
            return problem
        lam = res.certificate.lam
        if objective == "feasibility":
            return None if lam < 1.0 else ("wrong", f"lambda {lam} >= 1")
        ref = rep.ref("lambda", (method, rho))
        if ref is not None and abs(lam - ref) > LAMBDA_BISECT_TOL:
            return "wrong", f"lambda {lam!r}, reference {ref!r}"
        return None

    res = rep.op("synthesize", label,
                 lambda: synth(poly, spec, objective=objective), check)
    cert = res.certificate if res is not None and res.feasible else None
    audit(rep, label, poly, cert, spec)
    if rep.t_cert is None:
        rep.t_cert = time.perf_counter()
    simulate(rep, label, cert, spec)
    return cert


def rho_star(rep, method, synth_at, audit_poly):
    """min_feasible_rho over synth_at(rho), through a probe that counts each
    call (retries included) as an operation.  The certificate at rho* is
    audited.  Returns rho*, or None."""
    last = []

    def probe(r):
        if last and last[-1] == r:
            rep.retries += 1
        last.append(r)
        return rep.op("probe", f"{method} rho={r!r}", lambda: synth_at(r),
                      lambda res: _status_problem(res, expect_feasible=False))

    def check(best):
        rho, _ = best
        ref = rep.ref("rho_star", method)
        if rho is None:
            return "wrong", "no feasible density"
        if ref is not None and abs(rho - ref) > RHO_TOL:
            return "wrong", f"rho* {rho!r}, reference {ref!r}"
        return None

    best = rep.op("rho_star", method,
                  lambda: rep.api.min_feasible_rho(probe, tol=RHO_TOL), check)
    rho, res = best if best is not None else (None, None)
    cert = res.certificate if res is not None else None
    spec = qs.QuantizerSpec.uniform(rho or 1.0, rep.data.plant.m)
    audit(rep, f"{method} at rho*", audit_poly, cert, spec)
    return rho


def _mean_lambda(certs):
    if any(c is None for c in certs):
        return None
    return sum(c.lam for c in certs) / len(certs)


def run_sys1_sign(rep):
    poly = polytope(rep)
    m, api, plant = rep.data.plant.m, rep.api, rep.data.plant
    certs = [certify(rep, poly, "sign", rho, "min-lambda") for rho in (0.7, 0.4)]
    rep.values["cert_lambda"] = _mean_lambda(certs)
    rep.values["min_rho"] = rho_star(
        rep, "sign",
        lambda r: api.synthesize_sign(poly, qs.QuantizerSpec.uniform(r, m)),
        poly)
    rho_star(rep, "nominal",
             lambda r: api.synthesize_nominal_sign(
                 NominalProblem(plant, qs.QuantizerSpec.uniform(r, m),
                                mode="ess")),
             qs.singleton_polytope(plant))


def run_sys1_aarc(rep):
    poly = polytope(rep)
    m, api = rep.data.plant.m, rep.api
    certs = [certify(rep, poly, "aarc", rho, "min-lambda") for rho in (0.7, 0.2)]
    rep.values["cert_lambda"] = _mean_lambda(certs)
    rep.values["min_rho"] = rho_star(
        rep, "aarc",
        lambda r: api.synthesize_aarc(poly, qs.QuantizerSpec.uniform(r, m)),
        poly)


def run_sys2_certify(rep):
    poly = polytope(rep)
    cert = certify(rep, poly, "sign", 0.7, "feasibility")
    rep.values["cert_lambda"] = _mean_lambda([cert])
    # No bisection here: rho* is the density of the one certificate.
    rep.values["min_rho"] = 0.7 if cert is not None else None


@dataclass(frozen=True)
class Workload:
    system: str
    partition: str
    T: int
    run: callable


WORKLOADS = {
    "sys1-sign": Workload("sys1", "p1", 100, run_sys1_sign),
    "sys1-aarc": Workload("sys1", "p1", 100, run_sys1_aarc),
    "sys2-certify": Workload("sys2", "p2", 60, run_sys2_certify),
}


def setup(workload, data_seed, seed):
    """The workload's inputs: its dataset (from data_seed) and the initial
    states of the simulation checks (x0 = 1, then draws from seed)."""
    plant = qs.builtin_system(workload.system)
    dataset = qs.generate_dataset(plant, qs.builtin_partition(workload.partition),
                                  workload.T, data_seed)
    rng = np.random.default_rng(seed)
    x0s = [np.ones(plant.n)] + [rng.uniform(-1.0, 1.0, plant.n)
                                for _ in range(SEEDED_X0)]
    return SimpleNamespace(system=workload.system, plant=plant,
                           dataset=dataset, x0s=x0s)


def run_rep(workload, data, refs, tracer=None):
    """Run the operation list once and return the finished Rep."""
    rep = Rep(bind_api(tracer), data, refs, tracer)
    rep.t0 = time.perf_counter()
    with tracer.span(ROOT) if tracer else contextlib.nullcontext():
        workload.run(rep)
    rep.t_end = time.perf_counter()
    rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rep
