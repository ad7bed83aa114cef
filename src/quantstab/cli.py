"""Command line front end for the synthesis pipeline.

Subcommands: gendata | synthesize | verify | simulate | minrho | sweep |
prune.  Exit codes are scriptable: 0 success/feasible, 2 infeasible,
3 verification or solver failure (a failed LP ends any subcommand with
exit 3 and its message), 4 configuration error.

Two systems are built in.  "sys1" is a 3-state 2-input open-loop unstable
plant (eigenvalues -1.0185, -0.2613, 0.1236) with the unit-step partition
on [-4, 4]; "sys2" is A = 0.2 [min(i/j, j/i)]_{ij} + 0.45 I_5 (1-based
indices; spectral radius 1.0633), B = [I_3; 0_{2x3}], with the half-step
partition on [-6, 6].
"""

import argparse
import csv
import dataclasses
import json
import logging
import sys as _sys
from dataclasses import dataclass

import numpy as np

from .consistency import (Dataset, build_polytope, generate_dataset,
                          plant_vec, prune_redundant)
from .lp_core import Polytope, SolverError
from .nominal import DEFAULT_ETA, NominalProblem, synthesize_nominal_sign
from .quantizer import Partition, QuantizerSpec
from .synth_aarc import synthesize_aarc
from .synth_sign import bisect_least, synthesize_sign
from .sysmodel import (LinearSystem, StabCertificate, decay_check,
                       simulate_quantized)
from .verify import robust_verify

__all__ = [
    "ExperimentConfig",
    "builtin_system",
    "builtin_partition",
    "singleton_polytope",
    "min_feasible_rho",
    "cmd_gendata",
    "cmd_synthesize",
    "cmd_verify",
    "cmd_simulate",
    "cmd_minrho",
    "cmd_sweep",
    "cmd_prune",
    "main",
]

log = logging.getLogger("quantstab")

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNVERIFIED = 3
EXIT_CONFIG = 4

DEFAULT_PARTITION = {"sys1": "p1", "sys2": "p2"}


def builtin_system(name):
    """A named built-in plant, or one loaded from a JSON file path."""
    if name == "sys1":
        A = np.array([[-0.1300, -0.3974, 0.2030],
                      [-0.3974, -0.5000, 0.2990],
                      [0.2030, 0.2990, -0.5262]])
        B = np.array([[0.2179, 1.2300],
                      [0.3592, 0.0],
                      [-1.1553, 0.0]])
        return LinearSystem(A=A, B=B)
    if name == "sys2":
        idx = np.arange(1.0, 6.0)
        ratio = idx[:, None] / idx[None, :]
        A = 0.2 * np.minimum(ratio, 1.0 / ratio) + 0.45 * np.eye(5)
        B = np.vstack([np.eye(3), np.zeros((2, 3))])
        return LinearSystem(A=A, B=B)
    with open(name) as f:
        return LinearSystem.from_json_dict(json.load(f))


def builtin_partition(name):
    """A named built-in partition, or one loaded from a JSON file path."""
    if name in ("p1", "partition1"):
        return Partition.regular(-4.0, 4.0, 1.0)
    if name in ("p2", "partition2"):
        return Partition.regular(-6.0, 6.0, 0.5)
    with open(name) as f:
        return Partition.from_json_dict(json.load(f))


def singleton_polytope(sys):
    """Equality-tight polytope pinning exactly one plant."""
    z = plant_vec(sys.A, sys.B)
    eye = np.eye(z.size)
    return Polytope(G=np.vstack([eye, -eye]), h=np.concatenate([z, -z]))


@dataclass
class ExperimentConfig:
    """Bag of resolved command-line options shared by all subcommands."""

    system: str = None
    partition: str = None
    data: str = None
    method: str = "sign"
    mode: str = "ess"
    rho: float = None
    eta: float = DEFAULT_ETA
    seed: int = 0
    out: str = None
    tol: float = 1e-4
    objective: str = "feasibility"
    prune: bool = False
    T: int = None
    noise: float = 0.0
    cert: str = None
    x0: str = None
    points: int = 25
    rho_min: float = 0.05
    rho_max: float = 1.0
    dump_z: str = None

    @classmethod
    def from_args(cls, ns):
        kwargs = {}
        for f in dataclasses.fields(cls):
            kwargs[f.name] = getattr(ns, f.name, f.default)
        return cls(**kwargs)

    def resolve_system(self):
        if not self.system:
            raise ValueError("a plant is required; pass --system")
        return builtin_system(self.system)

    def resolve_partition(self):
        name = self.partition or DEFAULT_PARTITION.get(self.system)
        if not name:
            raise ValueError("no partition; pass --partition")
        return builtin_partition(name)

    def resolve_polytope(self):
        """(polytope, input count m) for the data-driven methods.

        --data may point at a Dataset JSON (the consistency polytope is
        built on the fly) or a raw Polytope JSON (then --system must supply
        the channel count).  Without --data, the plant itself is used as an
        equality-tight singleton.  Cached so bisection probes do not reload
        or re-prune."""
        cached = getattr(self, "_poly_cache", None)
        if cached is not None:
            return cached
        if self.data:
            with open(self.data) as f:
                d = json.load(f)
            if "G" in d:
                poly = Polytope.from_json_dict(d)
                if not self.system:
                    raise ValueError("a bare polytope does not fix the input "
                                     "count; pass --system as well")
                m = builtin_system(self.system).m
            else:
                ds = Dataset.from_json_dict(d)
                poly, m = build_polytope(ds), ds.m
        else:
            sys = self.resolve_system()
            poly, m = singleton_polytope(sys), sys.m
        if self.prune:
            before = poly.num_faces
            poly = prune_redundant(poly)
            log.info("pruned polytope: %d -> %d faces", before, poly.num_faces)
        self._poly_cache = (poly, m)
        return poly, m


def _write_json(path, obj):
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        print(text, end="")


def run_synthesis(cfg, rho, objective=None):
    """One synthesis call at a given density; returns (result, spec, poly).

    poly is None for the nominal method (known plant, no data polytope)."""
    objective = objective or cfg.objective
    if cfg.method == "nominal":
        sys = cfg.resolve_system()
        spec = QuantizerSpec.uniform(rho, sys.m)
        prob = NominalProblem(sys, spec, mode=cfg.mode, eta=cfg.eta,
                              objective=objective)
        return synthesize_nominal_sign(prob), spec, None
    poly, m = cfg.resolve_polytope()
    spec = QuantizerSpec.uniform(rho, m)
    synth = synthesize_sign if cfg.method == "sign" else synthesize_aarc
    res = synth(poly, spec, mode=cfg.mode, eta=cfg.eta, objective=objective)
    return res, spec, poly


def min_feasible_rho(probe, tol=1e-4):
    """Smallest density with a feasible probe, by bisection on (0, 1].

    probe(rho) returns a SynthResult; feasibility is monotone in rho (finer
    quantization only shrinks the sector).  A probe reporting a solver
    failure is logged and counted infeasible.  Returns (rho, result) or
    (None, None) when even rho = 1 is infeasible.
    """

    def logged(r):
        res = probe(r)
        if res.status == "numerical-failure":
            log.warning("solver failure at rho=%.6f, counted infeasible", r)
        return res

    rho, res = bisect_least(logged, lambda res: res.feasible, tol)
    return (None, None) if rho is None else (rho, res)


def _cert_payload(cfg, rho, res):
    payload = res.certificate.to_json_dict()
    payload["rho"] = rho
    payload["method"] = cfg.method
    if "m_param" in res.extras:
        payload.update(res.extras["m_param"].to_json_dict())
    return payload


def cmd_gendata(cfg):
    sys = cfg.resolve_system()
    part = cfg.resolve_partition()
    T = 100 if cfg.T is None else cfg.T
    ds = generate_dataset(sys, part, T, cfg.seed, noise=cfg.noise)
    payload = ds.to_json_dict()
    _write_json(cfg.out, payload)
    print(f"gendata: {len(ds)} samples, epsilon={ds.epsilon}"
          + (f" -> {cfg.out}" if cfg.out else ""))
    return EXIT_OK


def cmd_synthesize(cfg):
    if cfg.rho is None:
        raise ValueError("synthesize requires --rho")
    res, spec, poly = run_synthesis(cfg, cfg.rho)
    if res.status == "numerical-failure":
        print("synthesize: solver failure", file=_sys.stderr)
        return EXIT_UNVERIFIED
    if not res.feasible:
        print(f"synthesize: infeasible ({cfg.method}, {cfg.mode}, "
              f"rho={cfg.rho})")
        return EXIT_INFEASIBLE
    cert = res.certificate
    audit_poly = poly if poly is not None \
        else singleton_polytope(cfg.resolve_system())
    report = robust_verify(audit_poly, cert, spec)
    if not report.verified:
        print(f"synthesize: certificate failed verification "
              f"(worst margin {report.worst_margin:.3e}); not emitted",
              file=_sys.stderr)
        return EXIT_UNVERIFIED
    _write_json(cfg.out, _cert_payload(cfg, cfg.rho, res))
    if cfg.dump_z and res.extras.get("Z"):
        _write_json(cfg.dump_z,
                    {k: z.tolist() for k, z in res.extras["Z"].items()})
    print(f"synthesize: feasible, lambda={cert.lam:.6f}"
          + (f" -> {cfg.out}" if cfg.out else ""))
    return EXIT_OK


def _load_cert(cfg):
    if not cfg.cert:
        raise ValueError("pass --cert with a certificate file")
    with open(cfg.cert) as f:
        d = json.load(f)
    rho = cfg.rho if cfg.rho is not None else d.get("rho")
    if rho is None:
        raise ValueError("density unknown; pass --rho or use a certificate "
                         "that records one")
    return StabCertificate.from_json_dict(d), float(rho)


def cmd_verify(cfg):
    cert, rho = _load_cert(cfg)
    poly, m = cfg.resolve_polytope()
    spec = QuantizerSpec.uniform(rho, m)
    report = robust_verify(poly, cert, spec)
    _write_json(cfg.out, report.to_json_dict())
    print(f"verify: {'verified' if report.verified else 'NOT verified'}, "
          f"worst margin {report.worst_margin:.6e}")
    return EXIT_OK if report.verified else EXIT_UNVERIFIED


def cmd_simulate(cfg):
    cert, rho = _load_cert(cfg)
    sys = cfg.resolve_system()
    spec = QuantizerSpec.uniform(rho, sys.m)
    if cfg.x0:
        x0 = np.array([float(t) for t in cfg.x0.split(",")])
    else:
        x0 = np.ones(sys.n)
    T = 200 if cfg.T is None else cfg.T
    traj, status = simulate_quantized(sys, cert.K, spec, x0, T)
    rows = [["t"] + [f"x{i + 1}" for i in range(sys.n)]]
    for t, x in enumerate(traj):
        rows.append([t] + [f"{xi:.12g}" for xi in x])
    if cfg.out:
        with open(cfg.out, "w", newline="") as f:
            csv.writer(f).writerows(rows)
    else:
        csv.writer(_sys.stdout).writerows(rows)
    decayed = status == "ok" and decay_check(traj, cert.v, cert.lam)
    print(f"simulate: {status}, decay bound "
          f"{'respected' if decayed else 'VIOLATED'}")
    return EXIT_OK if decayed else EXIT_UNVERIFIED


def cmd_minrho(cfg):
    def probe(r):
        res, _, _ = run_synthesis(cfg, r, objective="feasibility")
        return res

    rho_star, res = min_feasible_rho(probe, tol=cfg.tol)
    if rho_star is None:
        print(f"minrho: infeasible for all rho <= 1 ({cfg.method}, "
              f"{cfg.mode})")
        return EXIT_INFEASIBLE
    if cfg.out:
        _write_json(cfg.out, {"min_rho": rho_star, "method": cfg.method,
                              "mode": cfg.mode, "tol": cfg.tol,
                              "lambda": res.certificate.lam})
    print(f"minrho: {rho_star:.4f} ({cfg.method}, {cfg.mode})")
    return EXIT_OK


def _sweep_point(cfg, rho):
    """One CSV row: the minimized gain, also that of an optimum whose gain
    of 1 or more makes it infeasible, and the status."""
    res, _, _ = run_synthesis(cfg, rho, objective="min-lambda")
    lam = res.certificate.lam if res.feasible else res.extras.get("lam")
    return [f"{rho:.6f}", "" if lam is None else f"{lam:.6f}", res.status]


def cmd_sweep(cfg):
    grid = np.logspace(np.log10(cfg.rho_min), np.log10(cfg.rho_max),
                       cfg.points)
    if not (np.all(grid > 0) and np.all(grid <= 1)):
        raise ValueError("sweep grid must lie in (0, 1]")
    rows = [_sweep_point(cfg, r) for r in grid]
    out = [["rho", "lambda", "status"]] + rows
    if cfg.out:
        with open(cfg.out, "w", newline="") as f:
            csv.writer(f).writerows(out)
    else:
        csv.writer(_sys.stdout).writerows(out)
    n_feas = sum(1 for r in rows if r[2] == "feasible")
    print(f"sweep: {n_feas}/{len(rows)} grid points feasible")
    return EXIT_OK


def cmd_prune(cfg):
    if not cfg.data:
        raise ValueError("prune requires --data")
    was_pruning = cfg.prune
    cfg.prune = False
    try:
        poly, _ = cfg.resolve_polytope()
    finally:
        cfg.prune = was_pruning
    pruned = prune_redundant(poly)
    _write_json(cfg.out, pruned.to_json_dict())
    print(f"prune: {poly.num_faces} -> {pruned.num_faces} faces")
    return EXIT_OK


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgError(f"{self.prog}: {message}")


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--system", help="sys1 | sys2 | JSON file")
    common.add_argument("--partition", help="p1 | p2 | JSON file")
    common.add_argument("--data", help="Dataset or Polytope JSON file")
    common.add_argument("--method", choices=["sign", "aarc", "nominal"],
                        default="sign")
    common.add_argument("--mode", choices=["ss", "ess"], default="ess")
    common.add_argument("--rho", type=float)
    common.add_argument("--eta", type=float, default=DEFAULT_ETA)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out")
    common.add_argument("--tol", type=float, default=1e-4)
    common.add_argument("--prune", action="store_true",
                        help="prune the data polytope before synthesis")

    p = _Parser(prog="quantstab",
                description="Robust controller synthesis from quantized "
                            "data under logarithmically quantized inputs")
    sub = p.add_subparsers(dest="command")

    def add(name, **kw):
        sp = sub.add_parser(name, parents=[common], **kw)
        sp.set_defaults(func=globals()[f"cmd_{name}"])
        return sp

    sp = add("gendata", help="simulate a plant and record quantized data")
    sp.add_argument("--T", type=int, help="number of transitions")
    sp.add_argument("--noise", type=float, default=0.0)

    sp = add("synthesize", help="solve for a robust certificate")
    sp.add_argument("--objective", choices=["feasibility", "min-lambda"],
                    default="feasibility")
    sp.add_argument("--dump-z", help="also write Farkas multipliers here")

    sp = add("verify", help="audit a certificate with support LPs")
    sp.add_argument("--cert", help="certificate JSON file")

    sp = add("simulate", help="run the nonlinear quantized closed loop")
    sp.add_argument("--cert", help="certificate JSON file")
    sp.add_argument("--x0", help="comma-separated initial state")
    sp.add_argument("--T", type=int, help="number of steps")

    add("minrho", help="bisect for the minimal feasible density")

    sp = add("sweep", help="minimized gain across a density grid")
    sp.add_argument("--points", type=int, default=25)
    sp.add_argument("--rho-min", type=float, default=0.05)
    sp.add_argument("--rho-max", type=float, default=1.0)

    add("prune", help="drop redundant consistency polytope faces")
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_CONFIG
    if getattr(args, "func", None) is None:
        parser.print_help()
        return EXIT_CONFIG
    cfg = ExperimentConfig.from_args(args)
    try:
        return args.func(cfg)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_CONFIG
    except SolverError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_UNVERIFIED


if __name__ == "__main__":
    _sys.exit(main())
