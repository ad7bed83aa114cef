"""Independent certificate audit by direct support-function evaluation.

Given a certificate (v, S, eta) and a consistency polytope P, each robust
stability inequality

    max_{(A,B) in P} sum_j alpha_j (A_ij v_j + sum_k beta_k B_ik S_kj)
        <= v_i - eta

is checked by maximizing the fixed linear functional on the left over P
with one LP per (i, alpha, beta).  No Farkas multipliers, no shared
assembly code with the synthesizers: a bug in their Kronecker bookkeeping
cannot cancel out here.

The functional of state row i touches only the n + m columns of row i of
[A B].  When every face with a nonzero in those columns has all its
nonzeros there, P is the product of that block's set and the rest, and
on a nonempty P the sup over P is the sup over the block.  The audit
checks this structure itself, from G's nonzero pattern, rather than
through Polytope.components, and ranges over the whole P for a row that
fails the check.  Nonemptiness, which the reduction needs, is settled by
an LP of its own, whose point also fills the columns outside the block
in the reported worst-case plant.  The only code shared with the rest of
the package is the LP session wrapper lp_core._SupportSession: one warm
HiGHS model per row, re-solved with new costs for every (alpha, beta).

Most rows need no LP.  2(n + m) support LPs in row i's session box the
n + m columns its functional c touches, and
v_i - eta - sum_j max(c_j lo_j, c_j hi_j) bounds that row's margin from
below; a non-finite bound (an unbounded box, or 0 * inf) bounds nothing.
The margins at the nonemptiness LP's point bound the worst margin from
above, at no LP cost.  The rows are gone through in the order alpha,
then beta, then i, and a row is skipped when its lower bound exceeds
that upper bound, or the running worst margin, by _SKIP_GUARD.  Its
margin then exceeds the final worst one by more than _TIE_TOL, so the
verdict, the worst margin and the reported row, the first in that order
whose margin is within _TIE_TOL of the worst, are those of solving every
row, and rows that tie to rounding report the same row on any
description of the same set (pruned or not, warm or fresh).
On sys2/T = 60 (pruned, rho = 0.7, dataset seed 1) a feasibility
certificate takes 1 + 80 + 284 LPs instead of 1 + 1,280; an ESS
min-lambda one on sys1/T = 100, 1 + 30 + 13 instead of 1 + 96.
"""

from dataclasses import dataclass, field

import numpy as np

from .lp_core import _SupportSession
from .sysmodel import ENUM_GUARD, sign_vectors

__all__ = ["VerificationReport", "robust_verify", "MARGIN_TOL"]

MARGIN_TOL = 1e-7
# Far above the box LPs' rounding (about 1e-14), far below MARGIN_TOL.
_SKIP_GUARD = 1e-9
# Rows whose margins differ by less tie: the first of them is reported.
_TIE_TOL = 1e-12


@dataclass
class VerificationReport:
    """Outcome of a robust audit.

    worst_margin is the least v_i - eta - (support value) over all robust
    inequalities; verified exactly when it clears -1e-7 (solver tolerance
    stacking).  worst_case records the tightest inequality, the first in
    the audit's order of those within 1e-12 of the least margin (rows
    that tie to rounding), and the plant achieving it; diagnostic is set
    when the polytope is unbounded in a direction that matters, which
    forces unverified.
    """

    verified: bool
    worst_margin: float
    worst_case: dict = field(default_factory=dict)
    diagnostic: str = ""

    def to_json_dict(self):
        """The report as JSON values: a number that is not finite (the
        -inf margin and NaN plant of an unbounded direction) is None."""
        out = {"verified": bool(self.verified),
               "worst_margin": _finite(self.worst_margin),
               "worst_case": {}}
        wc = self.worst_case
        if wc:
            out["worst_case"] = {"i": int(wc["i"]),
                                 **{key: _finite(wc[key])
                                    for key in ("alpha", "beta", "A", "B")}}
        if self.diagnostic:
            out["diagnostic"] = self.diagnostic
        return out


def _finite(x):
    """A number or array as floats in nested lists, None where it is not
    finite: JSON has no infinity and no NaN."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isfinite(x), x, None).tolist()


def _row_columns(n, m, i):
    """Columns of row i of [A B] in z = [vec(A); vec(B)] (column-major)."""
    return np.concatenate([np.arange(n) * n + i, n * n + np.arange(m) * n + i])


def _row_block(poly, n, m, i):
    """(faces, columns) of P that the support LPs of row i range over:
    the faces with a nonzero in row i's columns and those columns, when
    none of those faces reaches outside them, and otherwise every face
    and every column."""
    inside = np.zeros(poly.dim, dtype=bool)
    inside[_row_columns(n, m, i)] = True
    nonzero = poly.G != 0
    faces = np.flatnonzero(nonzero[:, inside].any(axis=1))
    if nonzero[np.ix_(faces, ~inside)].any():
        return np.arange(poly.num_faces), np.arange(poly.dim)
    return faces, np.flatnonzero(inside)


def _box(session, pos, width):
    """Bounds (lo, hi) of the coordinates pos over the set of session,
    whose points have width coordinates, by 2 len(pos) support LPs: -inf
    and +inf where the set is unbounded."""
    unit = np.eye(width)[pos]
    hi = np.array([session.maximize(e)[0] for e in unit])
    lo = np.array([-session.maximize(-e)[0] for e in unit])
    return lo, hi


def robust_verify(poly, certificate, spec):
    """Audit a StabCertificate against every plant consistent with P.

    The inequalities are those of the certificate's v, S and margin eta.
    Runs one nonemptiness LP, 2(n+m) box LPs per state row and one
    support LP for each of the n * 2^(n+m) robust rows that the box bound
    cannot skip, each over its row's block of P (see the module
    docstring), and aggregates the margins; never consults the synthesis
    code path.  The verdict, worst margin and worst row are those of
    solving every row.  An empty P, or a certificate whose shape does not
    fit spec and P, raises ValueError.  The LPs are warm unless scipy
    lacks its HiGHS module (see lp_core).
    """
    v, S, eta = certificate.v, certificate.S, certificate.eta
    n = v.size
    m = S.shape[0]
    shape = f"the certificate has n = {n}, m = {m}, but"
    if spec.m != m:
        raise ValueError(f"{shape} the quantizer has {spec.m} channels")
    if n + m > ENUM_GUARD:
        raise ValueError(f"sign enumeration limited to n + m <= {ENUM_GUARD}")
    if poly.dim != n * (n + m):
        raise ValueError(f"{shape} the polytope has dimension {poly.dim}, "
                         f"not n(n+m) = {n * (n + m)}")

    # Raises ValueError on an empty polytope, as every support LP would.
    _, point = _SupportSession(poly.G, poly.h).maximize(np.zeros(poly.dim))
    # Row k of costs is the functional of every state row at the k-th
    # (alpha, beta), alpha outer and beta inner, over that row's columns.
    alphas, betas = sign_vectors(n), spec.beta_vertices()
    alpha = np.repeat(alphas, len(betas), axis=0)
    beta = np.tile(betas, (len(alphas), 1))
    costs = np.hstack([alpha * v, beta * (alpha @ S.T)])
    row_cols = np.array([_row_columns(n, m, i) for i in range(n)])
    # The margins at the nonemptiness point bound the worst one above.
    upper = np.min(v - eta - costs @ point[row_cols].T)
    blocks = [_row_block(poly, n, m, i) for i in range(n)]
    sessions, row_costs, lower = [], [], np.empty((n, len(costs)))
    for i, (faces, cols) in enumerate(blocks):
        sessions.append(_SupportSession(poly.G[np.ix_(faces, cols)],
                                        poly.h[faces]))
        pos = np.searchsorted(cols, row_cols[i])
        row_costs.append(np.zeros((len(costs), cols.size)))
        row_costs[i][:, pos] = costs
        lo, hi = _box(sessions[i], pos, cols.size)
        with np.errstate(invalid="ignore"):
            lower[i] = v[i] - eta - np.maximum(costs * lo,
                                               costs * hi).sum(axis=1)
    # A non-finite bound (an unbounded box, or 0 * inf) bounds nothing.
    lower[~np.isfinite(lower)] = -np.inf
    skip = lower > upper + _SKIP_GUARD

    def case(i, k, z):
        a, b = divmod(k, len(betas))
        return {"i": i, "alpha": alphas[a].copy(), "beta": betas[b].copy(),
                "A": z[:n * n].reshape(n, n, order="F"),
                "B": z[n * n:].reshape(n, m, order="F")}

    worst = np.inf
    near = []       # (margin, i, k, x) of each row near the running worst
    for k in range(len(costs)):
        for i in range(n):
            # A skipped row's margin exceeds the final worst one by more
            # than _TIE_TOL, so it cannot be the reported row.
            if skip[i, k] or lower[i, k] >= worst + _SKIP_GUARD:
                continue
            val, x = sessions[i].maximize(row_costs[i][k])
            if np.isinf(val):
                return VerificationReport(
                    False, -np.inf, case(i, k, np.full(poly.dim, np.nan)),
                    diagnostic="consistency polytope unbounded along a "
                               "robust constraint direction")
            margin = v[i] - eta - val
            if margin <= worst + _TIE_TOL:
                near.append((margin, i, k, x))
                worst = min(worst, margin)
    worst_case = {}
    for margin, i, k, x in near:
        if margin <= worst + _TIE_TOL:
            z = point.copy()
            z[blocks[i][1]] = x
            worst_case = case(i, k, z)
            break
    return VerificationReport(worst >= -MARGIN_TOL, float(worst), worst_case)
