"""Print one sha256 per LP that a fixed list of synthesis calls solves.

Patches LinprogBackend.solve, so every LP built by synthesis reaches the
hash before HiGHS sees it.  The hash covers the canonical CSR form
(indptr, indices, data) of A_ub and A_eq, and c, b_ub, b_eq and bounds,
so two checkouts build the same LPs exactly when they print the same
lines.  Datasets, polytopes and pruning are built before the patch goes
in and are not hashed.  Each synthesis call's result line ends in a sha256
of the whole SynthResult (_result_digest): the certificate, every extra
and the optimum of an infeasible one, so two checkouts that print the
same lines also return the same results.  The last calls run the
known-plant command `minrho --system sys1 --mode ss` through
`quantstab.cli.main`, once with `--method sign` and once with `--method
aarc`; their result is the exit code and summary line.

Every synthesis call solves its LPs through lp_core.solver, in one cut
engine (lp_core._CutLoop) per model, whose master is a warm HiGHS model
(lp_core._WarmLP) that never reaches LinprogBackend.solve.  The script
patches that class, where it exists, and prints one line per warm model
after its call's result: the sha256 of the LP it was built from and its
verdicts in solve order, "+" optimal, "-" infeasible and "!" any other
status.  The master of an ESS min-lambda bisection is built at lambda = 1
(the first probe's LP in a fresh solve).  On a data polytope, sign and
AARC alike, the master is the model's own LP without its robust rows, so
its base hash covers that LP alone: the rows at the components'
Chebyshev centres and the vertex cuts are added to it after it is built,
and are not hashed.  They are compiled from the robust rows
(lp_core._CutRows).  On a plant point, which has no robust rows, the
master is the point's LP.  The Chebyshev LPs of the vertex sets are warm
models too, so they also get warm lines.  The Farkas LP is never warm:
where a robust row family cannot be cut (the dense polytope's one
component has too many columns for a vertex set), every call of the
model is solved fresh through LinprogBackend.solve and hashed as usual,
and a call the engine cannot answer is a numerical failure, "!".

The script patches the engine's class too, where it exists, and prints
one line per engine solve after its call's result: the lambda it was
asked about (the probe's value in an ESS min-lambda bisection, None
otherwise), its verdict as above, the vertex cuts its rounds have added
to the master by then and the master solves it took.  The engine lines
show whether the cuts cut the same way.  A call on a polytope that an
earlier call answered optimal on starts its master from that call's
vertex cuts too (Polytope.cut_pools; they are not counted in cuts=), so
its cuts=, rounds= and warm probe string differ from a cold start's.

A polytope is checked for nonemptiness by one fresh LP, the first time a
synthesis call needs it, so the later calls on the same polytope print
no line for it.

Pruning and the robust audit solve their support LPs in warm HiGHS
sessions that never reach LinprogBackend.solve, so after the patch is
removed the script prints one result line for each of them instead: the
kept face count and a sha256 of the kept (G, h) for the sys1/T=100 and
sys2/T=60 prunes, and the verdict, worst margin and worst-case row of
the audit of the sys2 certificate, with the number of LPs the audit
solved (lps=; the audit skips the rows its box bound rules out).

Usage, from the repository root:

    python3 tools/lp_fingerprint.py > hashes.txt

and diff the output of two checkouts.  Apart from the warm model class,
only public quantstab calls are used, so the script runs against older
versions of the package too.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import quantstab as qs                              # noqa: E402
from quantstab import cli, lp_core                  # noqa: E402

RHO = 0.7
DENSE_FACES = 40
VERDICT = {"optimal": "+", "infeasible": "-"}


def _canonical(A):
    if A is None:
        return [b"none"]
    A = sp.csr_matrix(A, dtype=float, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return [np.asarray(A.shape, dtype=np.int64).tobytes(),
            A.indptr.astype(np.int64).tobytes(),
            A.indices.astype(np.int64).tobytes(), A.data.tobytes()]


def _dense(x):
    if x is None:
        return [b"none"]
    x = np.ascontiguousarray(x, dtype=float)
    return [np.asarray(x.shape, dtype=np.int64).tobytes(), x.tobytes()]


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def fingerprint(c, A_ub, b_ub, A_eq, b_eq, bounds):
    return _digest(_dense(c) + _canonical(A_ub) + _dense(b_ub)
                   + _canonical(A_eq) + _dense(b_eq) + _dense(bounds))


def _cert_parts(cert):
    if cert is None:
        return [b"none"]
    return (_dense(cert.v) + _dense(cert.S) + _dense(cert.K)
            + _dense([cert.lam, cert.eta]) + _dense(cert.M))


def _result_digest(res):
    """sha256 of a SynthResult: its certificate, the Farkas multipliers
    extras["Z"] block by block, the size record, the affine envelope, the
    failed lambda probes, and the gain and optimum of an infeasible one."""
    extras = res.extras
    parts = _cert_parts(res.certificate)
    for name, Z in extras.get("Z", {}).items():
        parts += [name.encode()] + _dense(Z)
    parts.append(repr(extras.get("counts")).encode())
    param = extras.get("m_param")
    parts += ([b"none"] if param is None else
              _dense(param.m0) + _dense(param.ma) + _dense(param.mb))
    parts += (_dense(extras.get("failed_lam")) + _dense(extras.get("lam"))
              + _cert_parts(extras.get("optimum")))
    return _digest(parts)


def _faces(poly):
    digest = _digest(_dense(poly.G) + _dense(poly.h))
    return f"{poly.num_faces} faces sha256 {digest}"


def _audit(poly, res, spec):
    """The audit's result line, with the LPs it solved: warm runs, and
    fresh solves where the warm model is missing."""
    lps = 0
    patched = [(cls, name, getattr(cls, name)) for cls, name in (
        (getattr(lp_core, "_WarmLP", None), "run"),
        (lp_core.LinprogBackend, "solve")) if cls is not None]

    def counted(method):
        def call(*args):
            nonlocal lps
            lps += 1
            return method(*args)
        return call

    for cls, name, method in patched:
        setattr(cls, name, counted(method))
    try:
        rep = qs.robust_verify(poly, res.certificate, spec)
    finally:
        for cls, name, method in patched:
            setattr(cls, name, method)
    return (f"verified={rep.verified} worst_margin={rep.worst_margin:.9f} "
            f"i={rep.worst_case['i']} lps={lps}")


def _pruned(system, partition, T):
    plant = qs.builtin_system(system)
    ds = qs.generate_dataset(plant, qs.builtin_partition(partition), T, 1)
    return qs.prune_redundant(qs.build_polytope(ds)), plant


def _dense_polytope(plant, seed=0):
    """A fixed random polytope around the plant whose every face touches
    every column, so the whole set is one component."""
    rng = np.random.default_rng(seed)
    z = qs.plant_vec(plant.A, plant.B)
    G = rng.normal(size=(DENSE_FACES, z.size))
    return qs.Polytope(G=G, h=G @ z + rng.uniform(0.01, 0.05, DENSE_FACES))


def _cli(argv):
    """Run one CLI command; returns its exit code and summary line."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    return f"exit {code}: {printed.getvalue().strip()}"


def calls():
    """(label, thunk) for every call whose LPs are hashed, and (label,
    thunk) for the unhashed checks run after them; a check's thunk takes
    the hashed calls' results by label."""
    poly1, sys1 = _pruned("sys1", "p1", 100)
    poly2, _ = _pruned("sys2", "p2", 60)
    spec = qs.QuantizerSpec.uniform(RHO, sys1.m)
    spec2 = qs.QuantizerSpec.uniform(RHO, 3)
    out = []
    for method, synth, mode, objective in (
            ("sign", qs.synthesize_sign, "ess", "min-lambda"),
            ("sign", qs.synthesize_sign, "ss", "min-lambda"),
            ("aarc", qs.synthesize_aarc, "ess", "feasibility"),
            ("aarc", qs.synthesize_aarc, "ess", "min-lambda"),
            ("aarc", qs.synthesize_aarc, "ss", "min-lambda")):
        out.append((f"sys1 {method} {mode} {objective}",
                    lambda s=synth, mo=mode, ob=objective:
                    s(poly1, spec, mode=mo, objective=ob)))
    dense = _dense_polytope(sys1)
    out.append(("sys1 dense aarc ess feasibility",
                lambda: qs.synthesize_aarc(dense, spec, mode="ess")))
    out.append(("sys2 sign ess feasibility",
                lambda: qs.synthesize_sign(poly2, spec2, mode="ess")))
    z1 = qs.plant_vec(sys1.A, sys1.B)
    for form, synth in (("sign", qs.synthesize_sign),
                        ("mform", qs.synthesize_aarc)):
        for mode in ("ss", "ess"):
            for objective in ("feasibility", "min-lambda"):
                out.append((f"nominal {form} {mode} {objective}",
                            lambda s=synth, mo=mode, ob=objective:
                            s(z1, spec, mode=mo, objective=ob)))
    for method in ("sign", "aarc"):
        out.append((f"cli minrho sys1 {method} ss",
                    lambda mt=method: _cli(["minrho", "--system", "sys1",
                                            "--method", mt, "--mode", "ss"])))
    checks = [("sys1 prune T=100", lambda results: _faces(poly1)),
              ("sys2 prune T=60", lambda results: _faces(poly2)),
              ("sys2 audit", lambda results: _audit(
                  poly2, results["sys2 sign ess feasibility"], spec2))]
    return out, checks


def main():
    todo, checks = calls()
    results = {}
    original = lp_core.LinprogBackend.solve
    label, count = None, 0
    out = sys.stdout             # the CLI calls redirect sys.stdout

    def hashed(self, c, A_ub, b_ub, A_eq, b_eq, bounds):
        nonlocal count
        print(f"{label} #{count} "
              f"{fingerprint(c, A_ub, b_ub, A_eq, b_eq, bounds)}",
              file=out, flush=True)
        count += 1
        return original(self, c, A_ub, b_ub, A_eq, b_eq, bounds)

    warm = []           # [base hash, verdicts] of each warm model of a call
    warm_lp = getattr(lp_core, "_WarmLP", None)
    if warm_lp is not None:
        warm_init, warm_run = warm_lp.__init__, warm_lp.run

        def hashed_init(self, c, A_ub, b_ub, A_eq, b_eq, bounds):
            warm_init(self, c, A_ub, b_ub, A_eq, b_eq, bounds)
            self.fingerprint = [fingerprint(c, A_ub, b_ub, A_eq, b_eq,
                                            bounds), ""]
            warm.append(self.fingerprint)

        def recorded_run(self):
            status, x, obj = warm_run(self)
            self.fingerprint[1] += VERDICT.get(status, "!")
            return status, x, obj

        warm_lp.__init__, warm_lp.run = hashed_init, recorded_run
    engine = []         # one line per cut-engine solve of a call
    cut_loop = getattr(lp_core, "_CutLoop", None)
    if cut_loop is not None:
        cut_call = cut_loop.__call__

        def recorded_call(self, value=None):
            sol = cut_call(self, value)
            engine.append(f"lam={value!r} {VERDICT.get(sol.status, '!')} "
                          f"cuts={self.cuts} rounds={self.rounds}")
            return sol

        cut_loop.__call__ = recorded_call
    lp_core.LinprogBackend.solve = hashed
    try:
        for label, thunk in todo:
            count = 0
            warm.clear()
            engine.clear()
            res = results[label] = thunk()
            if not isinstance(res, str):
                lam = res.certificate.lam if res.feasible else float("nan")
                res = (f"{res.status} lambda={lam:.9f} "
                       f"sha256 {_result_digest(res)}")
            print(f"{label} result {res}", file=out, flush=True)
            for k, (digest, verdicts) in enumerate(warm):
                print(f"{label} warm #{k} base {digest} probes {verdicts}",
                      file=out, flush=True)
            for k, line in enumerate(engine):
                print(f"{label} cuts #{k} {line}", file=out, flush=True)
    finally:
        lp_core.LinprogBackend.solve = original
        if warm_lp is not None:
            warm_lp.__init__, warm_lp.run = warm_init, warm_run
        if cut_loop is not None:
            cut_loop.__call__ = cut_call
    for label, thunk in checks:
        print(f"{label} result {thunk(results)}", flush=True)


if __name__ == "__main__":
    main()
