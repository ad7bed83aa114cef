"""Exact data-driven synthesis by sign enumeration and Farkas containment.

For each sign pattern alpha in {-1,1}^n and sector vertex beta, the robust
stability requirement, with the strict margin eta = ETA,

    sum_j alpha_j (A_ij v_j + sum_k beta_k B_ik S_kj) <= v_i - eta
        for every (A, B) in the consistency polytope P

says that P is contained in the polytope

    P_{alpha,beta} = {z : G_{alpha,beta}(v, S) z <= v - eta 1},
    G_{alpha,beta} = [(diag(v) alpha)^T kron I_n, (diag(beta) S alpha)^T kron I_n],

over z = [vec(A); vec(B)].  Containment of one polytope in another is an
LP-representable condition (extended Farkas): there must exist Z >= 0 with
Z G_D = G_{alpha,beta} and Z h_D <= h_{alpha,beta}.  A robust counterpart
is built row by row, so the n 2^(n+m) robust rows of every (alpha, beta)
pair are stacked into one G(v, S), rows ordered (pair, i), and certified
by one multiplier block Z.  G is affine in the search variables (v, S), so
this is a single finite LP that is feasible exactly when some controller
K = S diag(1/v) superstabilizes every plant consistent with the data,
with no conservatism beyond the finite enumeration.  On a single plant z0
each row is substituted instead, G z0 <= h, with no multipliers: the
known-plant sign form.

That Farkas LP is exact but large (41,748 variables and 0.40M nonzeros on
sys2 with 60 samples), so lp_core.solver solves it on a polytope by
vertex cuts, as it does every synthesis LP: the robust row
(alpha, beta, i) holds over the data polytope iff it holds at every
vertex of the component its columns touch, so a master over (v, S)
alone takes the rows at the vertices it violates until none is
violated, and the dual of each row's best vertex gives the multipliers
Z.  The feasible set, the verdicts and the meaning of extras["Z"] are
those of the Farkas LP, which is solved fresh, as the reference, wherever
the rows cannot be cut and without scipy's HiGHS module (see lp_core).
"""

import logging

import numpy as np
import scipy.sparse as sp

from .lp_core import (AffExpr, LPModel, Polytope, _require_nonempty,
                      add_robust_rows, solver)
from .quantizer import cube_vertices
from .sysmodel import ENUM_GUARD, StabCertificate, SynthResult

__all__ = [
    "synthesize_sign",
    "count_constraints_sign",
    "min_feasible_rho",
]

logger = logging.getLogger(__name__)

# The strict margin of the feasibility LPs: v_i - ETA on every row.
ETA = 1e-6
LAMBDA_BISECT_TOL = 1e-4


def _signed_rows(alpha, beta):
    """Expression of the stacked G_{alpha,beta} of P pairs over the
    search blocks v (n entries) and S (m*n entries, vec of the m x n
    matrix S in column order) of _search_blocks.

    Pair p is the sign vector alpha[p] (alpha is P x n, entries in
    {-1, 0, 1}) and the sector vertex beta[p] (beta is P x m), and a 1-D
    alpha and beta are one pair.  Returns the Pn x n(n+m) stack of the
    G_{alpha_p,beta_p}, rows ordered (p, i), flattened row by row.
    Numeric (v, S) in it times [vec(A); vec(B)] gives the signed row sums
    of A diag(v) + B diag(beta_p) S; a unit alpha_p = +/-e_j leaves the
    signed entries (i, j), the envelope rows of synth_aarc.
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    n = alpha.shape[1]
    P, m = beta.shape
    if alpha.shape != (P, n) or not np.all(np.isin(alpha, (-1.0, 0.0, 1.0))):
        raise ValueError("alpha must hold one length-n row of entries in "
                         "{-1, 0, 1} per beta")
    if np.any(beta <= 0):
        raise ValueError("beta entries must be positive sector gains")
    d = n * (n + m)

    def matrix(vals, flat, col, width):
        vals, flat, col = np.broadcast_arrays(vals, flat, col)
        return sp.csr_matrix((vals.ravel(), (flat.ravel(), col.ravel())),
                             shape=(P * n * d, width))

    # Flat row-major index of entry (p*n + i, c) of G is (p*n + i)*d + c.
    # Each nonzero alpha_pj puts alpha_pj v_j on the vec(A) column j*n+i
    # of row (p, i), and beta_pk alpha_pj S_kj on its vec(B) column
    # n^2 + k*n + i.  Axes: nonzero (p, j), then i, then k.
    p, j = (a[:, None, None] for a in np.nonzero(alpha))
    i, k = np.arange(n)[:, None], np.arange(m)
    a, row = alpha[p, j], (p * n + i) * d
    return AffExpr(P * n * d, {
        "v": matrix(a, row + j * n + i, j, n),
        "S": matrix(a * beta[p, k], row + n * n + k * n + i, j * m + k,
                    n * m)})


def _tile(expr, reps):
    """expr stacked reps times, its rows picked by index."""
    at = np.tile(np.arange(expr.rows), reps)
    return AffExpr(at.size, {k: v[at] for k, v in expr.terms.items()},
                   expr.const[at])


def _infer_state_dim(poly, m):
    """n from dim = n(n+m)."""
    dim = poly.dim if isinstance(poly, Polytope) else np.size(poly)
    n = int(round((-m + np.sqrt(m * m + 4 * dim)) / 2))
    if n <= 0 or n * (n + m) != dim:
        raise ValueError("polytope dimension is not n(n+m) for any n")
    return n


def _search_blocks(model, n, m, mode):
    """Add the search blocks v and S, and return the expression of v.  In
    'ess' the rows are homogeneous in every block, so v >= 1 is a pure
    normalization that keeps the LP away from degenerate tiny-v
    solutions; 'ss' pins v = 1 by its upper bound."""
    model.add_block("v", n, lb=1.0, ub=1.0 if mode == "ss" else None)
    model.add_block("S", m * n)
    return model.identity_expr("v")


def _gain_rhs(model, v_expr, mode, objective):
    """Right-hand side of the gain rows, one of three.  Feasibility:
    v - ETA.  ESS min-lambda: a free block u with the model's own rows
    u <= lam * v, lam the model parameter "lam" (LPModel.param_expr),
    set to 1 here and per probe by the solver; the robust rows are only
    looser for a larger u, so u = lam * v loses nothing, and lam stays
    out of the robust rows (lp_core.add_robust_rows refuses it there).
    SS min-lambda: the minimized block lam, times the pinned v = 1."""
    if objective == "feasibility":
        return v_expr - ETA
    if mode == "ess":
        model.add_block("u", v_expr.rows)
        u_expr = model.identity_expr("u")
        model.add_ineq(u_expr - model.param_expr("lam", "v", 1.0))
        return u_expr
    model.add_block("lam", 1)
    model.set_objective(AffExpr(1, {"lam": np.ones((1, 1))}))
    return AffExpr(v_expr.rows, {"lam": np.ones((v_expr.rows, 1))})


def _sign_model(poly, spec, n, mode, objective):
    if n + spec.m > ENUM_GUARD:
        raise ValueError(f"sign enumeration limited to n + m <= {ENUM_GUARD}")
    model = LPModel()
    v_expr = _search_blocks(model, n, spec.m, mode)
    h_expr = _gain_rhs(model, v_expr, mode, objective)
    # Every (alpha, beta) pair, alpha outer and beta inner.
    pairs = cube_vertices(np.concatenate([-np.ones(n), 1.0 - spec.delta]),
                          np.concatenate([np.ones(n), 1.0 + spec.delta]))
    G_expr = _signed_rows(pairs[:, :n], pairs[:, n:])
    add_robust_rows(model, poly, G_expr, _tile(h_expr, len(pairs)), "Z")
    return model


def _extract_sign(model, values, poly, n, v, scale):
    """Certified gain max (sup G z)_(p,i) / v_i over all rows: by weak
    duality Z h_D on a polytope, the exact signed row sum on a point.
    The sign form carries no envelope and no payload."""
    sups = model.row_sups["Z"](values).reshape(-1, n)
    return max(0.0, float(np.max(sups / v))), None, {}


def _built_sizes(model):
    """The count_constraints_sign / count_constraints_aarc record of a
    model on a polytope.  The search variables are the model's own blocks
    but the gain helpers u and lam; every other count is read from
    model.robust, whose h rows are the inequality rows (the model's own
    rows, such as the u rows of a fixed lam, are not counted) and whose
    Farkas blocks hold the multipliers and the equality rows."""
    families = model.robust.values()
    robust = sum(f.h_expr.rows for f in families)
    return {
        "robust_inequalities": robust,
        "farkas_variables": sum(f.size for f in families),
        "equality_rows": sum(f.eq_rows.size for f in families),
        "inequality_rows": robust,
        "search_variables": sum(size for name, (size, _, _)
                                in model.blocks.items()
                                if name not in ("u", "lam")),
    }


def bisect_least(probe, ok, tol):
    """Least x in (0, 1] with ok(probe(x)), to within tol, for a monotone
    probe.  Probes 1 first; then the midpoint of (lo, hi] while
    hi - lo > tol.  Returns (x, result) for the least passing probe, or
    (None, result at 1) when 1 fails.  tol must be positive: once lo and
    hi are adjacent floats their midpoint is one of them, so a bracket
    that must shrink to zero width never closes."""
    if not tol > 0:
        raise ValueError("bisection tolerance must be positive")
    hi = 1.0
    res = probe(hi)
    if not ok(res):
        return None, res
    lo, best = 0.0, (hi, res)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        r = probe(mid)
        if ok(r):
            hi, best = mid, (mid, r)
        else:
            lo = mid
    return best


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
            logger.warning("solver failure at rho=%.6f, counted infeasible",
                           r)
        return res

    rho, res = bisect_least(logged, lambda res: res.feasible, tol)
    return (None, None) if rho is None else (rho, res)


def _synthesize(build, extract, poly, spec, mode, objective):
    """The objective dispatch and the result of every synthesizer.

    build(poly, spec, n, mode, objective) returns an LPModel, and
    lp_core.solver solves it.  extract(model, values, poly,
    n, v, scale) reads the form's part of a solution: (lam, M, payload),
    the certified gain, the envelope matrix of the certificate (or None)
    and the form's extras, M and payload scaled by scale.  The rest is
    read here for both forms: v (pinned to ones in 'ss'), the
    scale that lifts min(v) to 1 (certificates are scale invariant, and
    the bound v >= 1 holds only to solver tolerance), S, and on a
    polytope extras["Z"], each family's multipliers scaled likewise, and
    extras["counts"] (_built_sizes); on a point the result carries no
    multipliers and no size record.  Every certificate records eta = ETA.
    'min-lambda' is one LP in 'ss'; in 'ess' the bound lam * v_i is
    bilinear, so lam is bisected over (0, 1] with fixed-lam feasibility
    LPs: one model built with lam as its parameter, and one solver for
    every probe of the call.  Only the feasibility LPs carry the margin
    ETA: the min-lambda rows are bounded by lam * v, so a min-lambda
    certificate's margin on row i is at least (1 - lam) v_i - ETA, and
    one whose lam is within ETA / v_i of 1 fails its audit (the CLI's
    audit then refuses to write it).  Every mode and objective shares one
    verdict: 'feasible' only when the certified lam < 1.  An optimum with
    lam >= 1 is 'infeasible', with no certificate; extras["lam"] holds its
    lam and extras["optimum"] its (v, S) as a StabCertificate.  The 'ess'
    bisection counts a lam probe whose LP ends in a numerical failure as
    infeasible and lists its lam in extras["failed_lam"], on whatever
    result it returns."""
    if mode not in ("ss", "ess"):
        raise ValueError("mode must be 'ss' or 'ess'")
    if objective not in ("feasibility", "min-lambda"):
        raise ValueError("objective must be 'feasibility' or 'min-lambda'")
    n = _infer_state_dim(poly, spec.m)
    if isinstance(poly, Polytope):
        _require_nonempty(poly)
    else:
        poly = np.asarray(poly, dtype=float).ravel()
    model = build(poly, spec, n, mode, objective)
    probes = {}
    if objective == "min-lambda" and mode == "ess":
        solve_at = solver(model, "lam")
        failed = probes["failed_lam"] = []

        def probe(lam):
            sol = solve_at(lam)
            if sol.status == "numerical-failure":
                failed.append(lam)
            return sol

        _, sol = bisect_least(probe, lambda s: s.optimal, LAMBDA_BISECT_TOL)
    else:
        sol = solver(model)()
    if not sol.optimal:
        return SynthResult("infeasible" if sol.status == "infeasible"
                           else "numerical-failure", None, probes)
    values = sol.values
    v = values["v"]
    scale = 1.0 / float(np.min(v)) if np.min(v) < 1.0 else 1.0
    lam, M, extras = extract(model, values, poly, n, v, scale)
    S = values["S"].reshape(n, -1).T
    cert = StabCertificate(v=v * scale, S=S * scale, lam=lam, eta=ETA,
                           mode=mode, M=M)
    if isinstance(poly, Polytope):
        extras["Z"] = {name: family.dense(values[name] * scale)
                       for name, family in model.robust.items()}
        extras["counts"] = _built_sizes(model)
    extras.update(probes)
    if cert.lam >= 1.0:
        # A gain of 1 or more certifies no stability: the optimum stays in
        # the extras, for plots and comparisons, but no certificate.
        return SynthResult("infeasible", None,
                           {**extras, "lam": cert.lam, "optimum": cert})
    return SynthResult("feasible", cert, extras)


def synthesize_sign(poly, spec, mode="ess", objective="feasibility"):
    """Controller synthesis over every plant in a consistency polytope.

    poly is the data polytope over [vec(A); vec(B)], or one plant vector
    plant_vec(A, B), whose rows are then substituted (the known-plant
    case).  spec fixes the sector vertices.  mode 'ss' pins v = 1, 'ess'
    searches v > 0.  objective 'min-lambda' minimizes the certified gain
    (direct LP for 'ss', bisection to 1e-4 for 'ess', which lists the gain
    of every probe that failed numerically in extras["failed_lam"]).  The
    status is 'feasible' only when the certified gain is below 1; an
    optimum at or above 1 is 'infeasible' and keeps its gain in
    extras["lam"].  The feasibility LPs hold every row to the strict
    margin ETA, which every certificate records as eta; the min-lambda
    LPs bound the rows by lam v instead (see _synthesize).  Returns a
    SynthResult whose extras["Z"] carries the Farkas multipliers for
    audit, {"Z": array of shape (n 2^(n+m), L)} with rows ordered as in
    _signed_rows (none on a point), and extras["counts"] the size of the
    Farkas LP.  On a polytope the
    LPs are solved by vertex cuts, or fresh as the Farkas LP where the
    rows cannot be cut (see the module docstring); the known-plant LPs by
    the same warm master.  The cut pool persists across calls: a call
    starts from the cuts that earlier calls on the same Polytope object
    kept, and keeps its own after each optimal answer, not after an
    infeasible or failed one (lp_core._CutLoop), so the probes of a rho
    bisection over one polytope build on each other; a new Polytope of
    the same G and h starts cold.
    An empty polytope raises ValueError, and a failed nonemptiness LP
    SolverError.
    """
    return _synthesize(_sign_model, _extract_sign, poly, spec, mode,
                       objective)


def count_constraints_sign(n, m, L):
    """Size record of the sign-enumerated Farkas LP before assembly.

    One RHS inequality row per robust row, n for each of the 2^(n+m)
    (alpha, beta) pairs; nonnegativity lives in variable bounds, not rows.  L
    is the face count of a polytope whose faces all share one component
    (a dense G): each robust row then carries L multipliers and n(n+m)
    equality rows.  L may instead be the length-n sequence of per-row face
    counts L_i of a row-separable polytope (a data polytope, one component
    per row of [A B]): robust row i then carries L_i multipliers and n + m
    equality rows.
    """
    blocks = 2 ** (n + m)
    if np.ndim(L):
        L = np.asarray(L)
        if L.shape != (n,):
            raise ValueError("per-row face counts must have length n")
        farkas, equalities = int(L.sum()), n * (n + m)
    else:
        farkas, equalities = n * L, n * n * (n + m)
    return {
        "robust_inequalities": n * blocks,
        "farkas_variables": farkas * blocks,
        "equality_rows": equalities * blocks,
        "inequality_rows": n * blocks,
        "search_variables": n + n * m,
    }
