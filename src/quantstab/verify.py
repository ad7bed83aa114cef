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
"""

from dataclasses import dataclass, field

import numpy as np

from .lp_core import _SupportSession
from .synth_sign import ENUM_GUARD
from .sysmodel import sign_vectors

__all__ = ["VerificationReport", "robust_verify", "MARGIN_TOL"]

MARGIN_TOL = 1e-7


@dataclass
class VerificationReport:
    """Outcome of a robust audit.

    worst_margin is the least v_i - eta - (support value) over all robust
    inequalities; verified exactly when it clears -1e-7 (solver tolerance
    stacking).  worst_case records which inequality was tightest and the
    plant achieving it; diagnostic is set when the polytope is unbounded in
    a direction that matters, which forces unverified.
    """

    verified: bool
    worst_margin: float
    worst_case: dict = field(default_factory=dict)
    diagnostic: str = ""

    def to_json_dict(self):
        out = {"verified": bool(self.verified),
               "worst_margin": float(self.worst_margin),
               "worst_case": {}}
        wc = self.worst_case
        if wc:
            out["worst_case"] = {
                "i": int(wc["i"]),
                "alpha": [float(a) for a in wc["alpha"]],
                "beta": [float(b) for b in wc["beta"]],
                "A": np.asarray(wc["A"]).tolist(),
                "B": np.asarray(wc["B"]).tolist(),
            }
        if self.diagnostic:
            out["diagnostic"] = self.diagnostic
        return out


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


def robust_verify(poly, certificate, spec):
    """Audit a StabCertificate against every plant consistent with P.

    The inequalities are those of the certificate's v, S and margin eta.
    Runs one nonemptiness LP and n * 2^(n+m) support LPs, each over its
    row's block of P (see the module docstring), and aggregates the
    margins; never consults the synthesis code path.  An empty P, or a
    certificate whose shape does not fit spec and P, raises ValueError.
    The LPs are warm unless scipy lacks its HiGHS module (see lp_core).
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
    blocks = [_row_block(poly, n, m, i) for i in range(n)]
    sessions = [_SupportSession(poly.G[np.ix_(faces, cols)], poly.h[faces])
                for faces, cols in blocks]
    worst = np.inf
    worst_case = {}
    betas = spec.beta_vertices()
    for alpha in sign_vectors(n):
        Sa = S @ alpha
        for beta in betas:
            bsa = beta * Sa
            for i in range(n):
                c = np.zeros(poly.dim)
                c[_row_columns(n, m, i)] = np.concatenate([alpha * v, bsa])
                cols = blocks[i][1]
                val, x = sessions[i].maximize(c[cols])
                if np.isinf(val):
                    return VerificationReport(
                        False, -np.inf,
                        {"i": i, "alpha": alpha.copy(), "beta": beta.copy(),
                         "A": np.full((n, n), np.nan),
                         "B": np.full((n, m), np.nan)},
                        diagnostic="consistency polytope unbounded along a "
                                   "robust constraint direction")
                margin = v[i] - eta - val
                if margin < worst:
                    worst = margin
                    z = point.copy()
                    z[cols] = x
                    worst_case = {
                        "i": i, "alpha": alpha.copy(), "beta": beta.copy(),
                        "A": z[:n * n].reshape(n, n, order="F"),
                        "B": z[n * n:].reshape(n, m, order="F"),
                    }
    return VerificationReport(worst >= -MARGIN_TOL, float(worst), worst_case)
