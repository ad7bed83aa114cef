"""Command line front end for the synthesis pipeline.

Subcommands: gendata | synthesize | verify | simulate | minrho | sweep |
prune.  Exit codes are scriptable: 0 success/feasible, 2 infeasible,
3 verification or solver failure (a failed LP ends any subcommand with
exit 3 and its message), 4 configuration error.

Each subcommand accepts only the options it reads; any other is a usage
error (exit 4).  Synthesis ranges over the pruned --data polytope and
the audit over it as given, or both over the point of --system.

Two systems are built in.  "sys1" is a 3-state 2-input open-loop unstable
plant (eigenvalues -1.0185, -0.2613, 0.1236) with the unit-step partition
on [-4, 4]; "sys2" is A = 0.2 [min(i/j, j/i)]_{ij} + 0.45 I_5 (1-based
indices; spectral radius 1.0633), B = [I_3; 0_{2x3}], with the half-step
partition on [-6, 6].
"""

import argparse
import csv
import json
import sys as _sys

import numpy as np

from .consistency import (Dataset, build_polytope, generate_dataset,
                          plant_vec, prune_redundant, singleton_polytope)
from .lp_core import Polytope, SolverError
from .quantizer import QuantizerSpec, builtin_partition
from .synth_aarc import synthesize_aarc
from .synth_sign import min_feasible_rho, synthesize_sign
from .sysmodel import (StabCertificate, builtin_system, decay_check,
                       simulate_quantized)
from .verify import robust_verify

__all__ = [
    "cmd_gendata",
    "cmd_synthesize",
    "cmd_verify",
    "cmd_simulate",
    "cmd_minrho",
    "cmd_sweep",
    "cmd_prune",
    "main",
]

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNVERIFIED = 3
EXIT_CONFIG = 4

DEFAULT_PARTITION = {"sys1": "p1", "sys2": "p2"}


def _parsed(path, read):
    """read(path), for a reader of the JSON input file path.  A file of
    the wrong shape (a list for an object, a null or a string for a
    number or a list) makes the reader raise TypeError, AttributeError,
    KeyError or ValueError (a string float() cannot read, or text that
    is not JSON); that becomes a ValueError naming the file, with the
    reader's message in it, a configuration error."""
    try:
        return read(path)
    except (TypeError, AttributeError, KeyError, ValueError) as e:
        raise ValueError(f"{path} is not a valid input file "
                         f"({type(e).__name__}: {e})") from e


def _json(path):
    with open(path) as f:
        return json.load(f)


def _read_data(path):
    d = _json(path)
    return (Polytope.from_json_dict(d) if "G" in d
            else Dataset.from_json_dict(d))


def _system(args):
    if not args.system:
        raise ValueError("a plant is required; pass --system")
    return _parsed(args.system, builtin_system)


def _load_data(path):
    """(polytope, plant shape) of a data file: a Dataset JSON, whose
    consistency polytope is built here and whose samples fix (n, m), or a
    bare Polytope JSON, which fixes neither (None)."""
    data = _parsed(path, _read_data)
    if isinstance(data, Polytope):
        return data, None
    return build_polytope(data), (data.n, data.m)


def _given(args):
    """(audit polytope, input count m, point) of a command: the --data
    polytope as given and no point, or the singleton_polytope of the
    --system plant and its point plant_vec(A, B).  A Dataset fixes n and m,
    a bare polytope takes m from --system, and a --system of another shape
    is a usage error, raised before any LP."""
    if not args.data:
        sys = _system(args)
        return singleton_polytope(sys), sys.m, plant_vec(sys.A, sys.B)
    poly, shape = _load_data(args.data)
    if args.system:
        sys = _system(args)
        d = sys.n * (sys.n + sys.m)
        if shape not in (None, (sys.n, sys.m)) or poly.dim != d:
            held = (f"n = {shape[0]}, m = {shape[1]}" if shape else
                    f"a polytope over {poly.dim} plant entries, not {d}")
            raise ValueError(f"--system {args.system} has n = {sys.n}, "
                             f"m = {sys.m}, but --data holds {held}")
        shape = sys.n, sys.m
    elif shape is None:
        raise ValueError("a bare polytope does not fix the input count; "
                         "pass --system as well")
    return poly, shape[1], None


def _resolve(args):
    """(synthesis set, m, audit polytope) of a synthesis command: the
    --data polytope pruned, or the point of --system."""
    poly, m, point = _given(args)
    return (prune_redundant(poly) if args.data else point), m, poly


def _synthesize(args, target, m, rho, objective):
    """One synthesis call over target at density rho; returns (result,
    spec)."""
    spec = QuantizerSpec.uniform(rho, m)
    synth = synthesize_aarc if args.method == "aarc" else synthesize_sign
    res = synth(target, spec, mode=args.mode, objective=objective)
    return res, spec


def _write_json(path, obj):
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        print(text, end="")


def _write_csv(path, rows):
    if path:
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
    else:
        csv.writer(_sys.stdout).writerows(rows)


def _failures(name, values):
    """Summary-line suffix naming the probes a solver failure counted
    infeasible, empty when there are none."""
    if not values:
        return ""
    return (f"; counted infeasible after a solver failure: {name} = "
            + ", ".join(f"{x:.6g}" for x in values))


def cmd_gendata(args):
    sys = _system(args)
    partition = args.partition or DEFAULT_PARTITION.get(args.system)
    if not partition:
        raise ValueError("no partition; pass --partition")
    ds = generate_dataset(sys, _parsed(partition, builtin_partition), args.T,
                          args.seed, noise=args.noise)
    _write_json(args.out, ds.to_json_dict())
    print(f"gendata: {len(ds)} samples, epsilon={ds.epsilon}"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def cmd_synthesize(args):
    if args.rho is None or not 0 < args.rho <= 1:
        raise ValueError("synthesize requires --rho in (0, 1]")
    if args.dump_z and not args.data:
        raise ValueError("--dump-z requires --data: a known plant has no "
                         "Farkas multipliers")
    target, m, audit_set = _resolve(args)
    res, spec = _synthesize(args, target, m, args.rho, args.objective)
    failures = _failures("lambda", res.extras.get("failed_lam"))
    if res.status == "numerical-failure":
        print("synthesize: solver failure", file=_sys.stderr)
        return EXIT_UNVERIFIED
    if not res.feasible:
        print(f"synthesize: infeasible ({args.method}, {args.mode}, "
              f"rho={args.rho}){failures}")
        return EXIT_INFEASIBLE
    cert = res.certificate
    report = robust_verify(audit_set, cert, spec)
    if not report.verified:
        print(f"synthesize: certificate failed verification "
              f"(worst margin {report.worst_margin:.3e}); not emitted",
              file=_sys.stderr)
        return EXIT_UNVERIFIED
    payload = dict(cert.to_json_dict(), rho=args.rho, method=args.method)
    if "m_param" in res.extras:
        payload.update(res.extras["m_param"].to_json_dict())
    _write_json(args.out, payload)
    if args.dump_z:
        _write_json(args.dump_z,
                    {k: z.tolist() for k, z in res.extras["Z"].items()})
    print(f"synthesize: feasible, lambda={cert.lam:.6f}"
          + (f" -> {args.out}" if args.out else "") + failures)
    return EXIT_OK


def _load_cert(args):
    if not args.cert:
        raise ValueError("pass --cert with a certificate file")

    def read(path):
        d = _json(path)
        rho = args.rho if args.rho is not None else d.get("rho")
        return (StabCertificate.from_json_dict(d),
                None if rho is None else float(rho))

    cert, rho = _parsed(args.cert, read)
    if rho is None:
        raise ValueError("density unknown; pass --rho or use a certificate "
                         "that records one")
    return cert, rho


def cmd_verify(args):
    cert, rho = _load_cert(args)
    poly, m, _ = _given(args)
    report = robust_verify(poly, cert, QuantizerSpec.uniform(rho, m))
    _write_json(args.out, report.to_json_dict())
    print(f"verify: {'verified' if report.verified else 'NOT verified'}, "
          f"worst margin {report.worst_margin:.6e}")
    return EXIT_OK if report.verified else EXIT_UNVERIFIED


def cmd_simulate(args):
    cert, rho = _load_cert(args)
    sys = _system(args)
    spec = QuantizerSpec.uniform(rho, sys.m)
    if args.x0:
        x0 = np.array([float(t) for t in args.x0.split(",")])
    else:
        x0 = np.ones(sys.n)
    traj, status = simulate_quantized(sys, cert.K, spec, x0, args.T)
    rows = [["t"] + [f"x{i + 1}" for i in range(sys.n)]]
    for t, x in enumerate(traj):
        rows.append([t] + [f"{xi:.12g}" for xi in x])
    _write_csv(args.out, rows)
    decayed = status == "ok" and decay_check(traj, cert.v, cert.lam)
    print(f"simulate: {status}, decay bound "
          f"{'respected' if decayed else 'VIOLATED'}")
    return EXIT_OK if decayed else EXIT_UNVERIFIED


def cmd_minrho(args):
    if args.tol <= 0:
        raise ValueError("bisection tolerance must be positive")
    target, m, _ = _resolve(args)
    failed = []

    def probe(r):
        res, _ = _synthesize(args, target, m, r, "feasibility")
        if res.status == "numerical-failure":
            failed.append(r)
        return res

    rho_star, res = min_feasible_rho(probe, tol=args.tol)
    failures = _failures("rho", failed)
    if rho_star is None:
        print(f"minrho: infeasible for all rho <= 1 ({args.method}, "
              f"{args.mode}){failures}")
        return EXIT_INFEASIBLE
    if args.out:
        _write_json(args.out, {"min_rho": rho_star, "method": args.method,
                               "mode": args.mode, "tol": args.tol,
                               "lambda": res.certificate.lam,
                               "failed_rho": failed})
    print(f"minrho: {rho_star:.4f} ({args.method}, {args.mode}){failures}")
    return EXIT_OK


def cmd_sweep(args):
    """One CSV row per grid density: the minimized gain, also that of an
    optimum whose gain of 1 or more makes it infeasible, and the status."""
    if args.points < 1:
        raise ValueError("sweep requires --points >= 1")
    if not (0 < args.rho_min <= 1 and 0 < args.rho_max <= 1):
        raise ValueError("sweep grid must lie in (0, 1]")
    grid = np.logspace(np.log10(args.rho_min), np.log10(args.rho_max),
                       args.points)
    target, m, _ = _resolve(args)
    rows, failed = [], []
    for rho in grid:
        res, _ = _synthesize(args, target, m, rho, "min-lambda")
        lam = res.certificate.lam if res.feasible else res.extras.get("lam")
        rows.append([f"{rho:.6f}", "" if lam is None else f"{lam:.6f}",
                     res.status])
        if res.extras.get("failed_lam"):
            failed.append(rho)
    _write_csv(args.out, [["rho", "lambda", "status"]] + rows)
    n_feas = sum(1 for r in rows if r[2] == "feasible")
    failures = ("; lambda probes failed in the solver at rho = "
                + ", ".join(f"{r:.6g}" for r in failed)) if failed else ""
    print(f"sweep: {n_feas}/{len(rows)} grid points feasible{failures}")
    return EXIT_OK


def cmd_prune(args):
    if not args.data:
        raise ValueError("prune requires --data")
    poly, _ = _load_data(args.data)
    pruned = prune_redundant(poly)
    _write_json(args.out, pruned.to_json_dict())
    print(f"prune: {poly.num_faces} -> {pruned.num_faces} faces")
    return EXIT_OK


class _ArgError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgError(f"{self.prog}: {message}")


def build_parser():
    """The quantstab parser.  Every option is declared once, in options;
    each subcommand takes only the options its cmd_* function reads, so a
    misplaced one is a usage error rather than silently ignored."""
    options = {
        "--system": dict(help="sys1 | sys2 | JSON file"),
        "--partition": dict(help="p1 | p2 | JSON file"),
        "--data": dict(help="Dataset or Polytope JSON file"),
        "--method": dict(choices=["sign", "aarc"], default="sign"),
        "--mode": dict(choices=["ss", "ess"], default="ess"),
        "--rho": dict(type=float),
        "--objective": dict(choices=["feasibility", "min-lambda"],
                            default="feasibility"),
        "--dump-z": dict(help="also write Farkas multipliers here "
                              "(needs --data)"),
        "--cert": dict(help="certificate JSON file"),
        "--x0": dict(help="comma-separated initial state"),
        "--T": dict(type=int, help="number of transitions or steps"),
        "--seed": dict(type=int, default=0),
        "--noise": dict(type=float, default=0.0),
        "--tol": dict(type=float, default=1e-4),
        "--points": dict(type=int, default=25),
        "--rho-min": dict(type=float, default=0.05),
        "--rho-max": dict(type=float, default=1.0),
        "--out": dict(),
    }
    synthesis = "--system --data --method --mode"
    commands = [
        ("gendata", "simulate a plant and record quantized data",
         "--system --partition --T --seed --noise --out", {"T": 100}),
        ("synthesize", "solve for a robust certificate",
         f"{synthesis} --rho --objective --dump-z --out", {}),
        ("verify", "audit a certificate with support LPs",
         "--system --data --cert --rho --out", {}),
        ("simulate", "run the nonlinear quantized closed loop",
         "--system --cert --rho --x0 --T --out", {"T": 200}),
        ("minrho", "bisect for the minimal feasible density",
         f"{synthesis} --tol --out", {}),
        ("sweep", "minimized gain across a density grid",
         f"{synthesis} --points --rho-min --rho-max --out", {}),
        ("prune", "drop redundant consistency polytope faces",
         "--data --out", {}),
    ]

    p = _Parser(prog="quantstab",
                description="Robust controller synthesis from quantized "
                            "data under logarithmically quantized inputs")
    sub = p.add_subparsers(dest="command")
    for name, summary, names, defaults in commands:
        sp = sub.add_parser(name, help=summary)
        for opt in names.split():
            sp.add_argument(opt, **options[opt])
        sp.set_defaults(func=globals()[f"cmd_{name}"], **defaults)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return EXIT_CONFIG
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_CONFIG
    except SolverError as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_UNVERIFIED


if __name__ == "__main__":
    _sys.exit(main())
