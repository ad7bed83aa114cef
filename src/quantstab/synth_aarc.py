"""Affinely-adjustable robust synthesis: polynomial in n, exponential in m.

The exact robust condition asks, for every plant (A, B) in the consistency
polytope, for an envelope matrix M(A, B) with

    |A diag(v) + B diag(beta) S| <= M(A, B)  at every sector vertex beta,
    sum_j M(A, B)_ij <= v_i - eta.

Restricting M to an affine function of the plant,

    vec(M(A, B)) = m0 + ma vec(A) + mb vec(B),

turns both requirements into polytope containments over z = [vec(A); vec(B)]
that are affine in the search variables (v, S, m0, ma, mb).  With M_G the
plant part of M, M_G z = ma vec(A) + mb vec(B) (_envelope_plant_part):

  * a row-sum containment with G_M = (1^T kron I_n) M_G and
    h_M = v - eta 1 - (1^T kron I_n) m0, certified by Z_M >= 0;
  * a two-sided envelope containment whose row (beta, -/+, j*n + i) is
    the sign row of the unit sign vector -/+ e_j at the sector vertex
    beta (synth_sign._signed_rows) minus row j*n + i of M_G, with
    right-hand side entry j*n + i of m0.  The rows of all 2^m vertices
    are stacked into one G_b and certified by one Z_b >= 0.

Row-local rule: M_ij depends only on the columns of the components
(Polytope.components) that row i of [A B] touches, so ma/mb exist only on
those entries.  On a data polytope that is row i of [A B] alone; on a
polytope whose faces couple every column it is the whole plant, the full
n^4 + n^3 m entries.  The rule loses nothing.  The polytope is the
product of its components' sets, and the constraints of row i (its row
sum and its envelope entries) see the plant only through the components
row i touches and through M_i.  Given any feasible affine M, fix the other
components at a point zbar of their sets: M'_ij(z) = M_ij(z_i, zbar_-i) is
affine, depends on row i's components only, and meets every constraint of
row i at z because M does at (z_i, zbar_-i), a member of the product.
Robust counterparts are built constraint by constraint, which is why a
rule per row is enough (Ben-Tal, Goryashko, Guslitzer and Nemirovski,
Math. Program. 99, 2004).  With it no robust row touches another row's
columns, so lp_core gives each one multipliers on its own row's faces only.

Both containments are robust rows (lp_core.add_robust_rows), so on a
polytope lp_core.solver solves them by vertex cuts, as it does the sign
rows, with the Farkas LP as the reference (see lp_core).

Only the 2^m vertex count remains exponential.  The affine restriction is
a genuine restriction: feasibility here implies feasibility of the
sign-enumerated program, never the reverse.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lp_core import AffExpr, LPModel, Polytope, add_robust_rows
from .synth_sign import (_gain_rhs, _search_blocks, _signed_rows,
                         _synthesize, _tile)

__all__ = [
    "AffineMParam",
    "eval_affine_M",
    "synthesize_aarc",
    "count_constraints_aarc",
]

VERTEX_GUARD = 20


@dataclass(frozen=True)
class AffineMParam:
    """Coefficients of the affine envelope vec(M) = m0 + ma vec(A) + mb vec(B).

    Vectorization is column-major throughout: entry (i, j) sits at index
    j*n + i, and column c of ma holds the sensitivity of vec(M) to the c-th
    entry of vec(A) (likewise mb for vec(B)).
    """

    m0: np.ndarray
    ma: np.ndarray
    mb: np.ndarray

    def __post_init__(self):
        m0 = np.atleast_1d(np.asarray(self.m0, dtype=float))
        ma = np.atleast_2d(np.asarray(self.ma, dtype=float))
        mb = np.asarray(self.mb, dtype=float).reshape(m0.size, -1)
        n = int(round(np.sqrt(m0.size)))
        if n * n != m0.size:
            raise ValueError("m0 must have n^2 entries")
        if ma.shape != (n * n, n * n):
            raise ValueError("ma must be n^2 x n^2")
        if mb.shape[1] % n:
            raise ValueError("mb must be n^2 x (n*m)")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "ma", ma)
        object.__setattr__(self, "mb", mb)

    @property
    def n(self):
        return int(round(np.sqrt(self.m0.size)))

    @property
    def m(self):
        return self.mb.shape[1] // self.n

    def to_json_dict(self):
        return {"m0": self.m0.tolist(), "ma": self.ma.tolist(),
                "mb": self.mb.tolist()}


def eval_affine_M(param, A, B):
    """Envelope matrix at a concrete plant, un-vectorized column-major."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).reshape(param.n, param.m)
    n = param.n
    if A.shape != (n, n):
        raise ValueError("A must be n x n")
    vecM = param.m0 + param.ma @ A.flatten(order="F") \
        + param.mb @ B.flatten(order="F")
    return vecM.reshape(n, n, order="F")


def _rowsum_selector(n, d=1):
    """(1^T kron I_n) kron I_d as sparse n d x n^2 d: sums the d-row
    blocks r = j*n + i of a stack into block i, which for d = 1 picks
    row i of a vec'd matrix."""
    f = np.arange(n * n * d)
    return sp.csr_matrix((np.ones(f.size), ((f // d % n) * d + f % d, f)),
                         shape=(n * d, f.size))


def _envelope_pattern(poly, n):
    """(n^2, d) mask of the plant columns each envelope entry may depend
    on: entry r = j*n + i (row i of M) gets the columns of every component
    (Polytope.components) that row i of [A B], the columns c with
    c % n == i, touches."""
    _, col_comp = poly.components
    touched = np.zeros((n, col_comp.max() + 1), dtype=bool)
    touched[np.arange(col_comp.size) % n, col_comp] = True
    return touched[:, col_comp][np.arange(n * n) % n]


def _pattern_entries(pattern):
    """Row and column indices of the entries the (n^2, d) pattern allows,
    in the order of the block mz: the vec(A) columns first, then the
    vec(B) ones, each part row-major, so entry k is mz's LP variable k."""
    r, c = np.nonzero(pattern)
    order = np.argsort(c >= len(pattern), kind="stable")
    return r[order], c[order]


def _envelope_plant_part(pattern, n, d):
    """M_G, the plant part of the envelope: G of n^2 d rows, flattened
    row-major, whose row r*d + c carries the mz variable of pattern
    entry (r, c), so that M_G z = ma vec(A) + mb vec(B).  On a point
    (pattern None) it has no terms."""
    if pattern is None:
        return AffExpr(n * n * d, {})
    r, c = _pattern_entries(pattern)
    return AffExpr(n * n * d, {"mz": sp.csr_matrix(
        (np.ones(r.size), (r * d + c, np.arange(r.size))),
        shape=(n * n * d, r.size))})


def _envelope_rows(m0_expr, betas, M_G):
    """(G_b, h_b) expressions of the envelope rows of every sector vertex,
    over the search blocks v and S (synth_sign._search_blocks).

    m0_expr is the constant part m0 of the envelope (n^2 rows), betas the
    2^m x m array of vertices and M_G the plant part of the envelope
    (_envelope_plant_part).  Row (beta, -/+, r = j*n + i) reads
    -/+ (A diag(v) + B diag(beta) S)_ij - M(A, B)_ij <= 0 as
    G_b z <= h_b, G_b flattened row-major: it is the sign row of the
    unit sign vector -/+ e_j at beta (synth_sign._signed_rows), minus the
    row r of M_G, and h_b is entry r of m0.  Rows are ordered vertex,
    then lower before upper, then r.
    """
    n = math.isqrt(m0_expr.rows)
    halves = 2 * len(betas)
    alpha = np.tile(np.vstack([-np.eye(n), np.eye(n)]), (len(betas), 1))
    G_expr = _signed_rows(alpha, np.repeat(betas, 2 * n, axis=0))
    return G_expr - _tile(M_G, halves), _tile(m0_expr, halves)


def _aarc_model(poly, spec, n, mode, objective):
    """The affine-envelope LP.  On a polytope the plant part of the
    envelope is one block mz, allocated only on the entries of
    _envelope_pattern, in the order of _pattern_entries; on a point (not
    a Polytope) the envelope is the constant m0, with no mz block."""
    m = spec.m
    if m > VERTEX_GUARD:
        raise ValueError(f"vertex enumeration limited to m <= {VERTEX_GUARD}")
    d = n * (n + m)
    pattern = _envelope_pattern(poly, n) \
        if isinstance(poly, Polytope) else None
    model = LPModel()
    v_expr = _search_blocks(model, n, m, mode)
    model.add_block("m0", n * n)
    if pattern is not None:
        model.add_block("mz", np.count_nonzero(pattern))
    M_G = _envelope_plant_part(pattern, n, d)
    m0_expr = model.identity_expr("m0")
    h_M = _gain_rhs(model, v_expr, mode, objective) \
        - m0_expr.premul(_rowsum_selector(n))
    add_robust_rows(model, poly, M_G.premul(_rowsum_selector(n, d)), h_M,
                    "ZM")
    G_b, h_b = _envelope_rows(m0_expr, spec.beta_vertices(), M_G)
    add_robust_rows(model, poly, G_b, h_b, "Zb")
    return model


def _extract_aarc(model, values, poly, n, v, scale):
    """Certified gain max_i (sup_z (G_M z)_i + (R m0)_i) / v_i: the row sums
    of the envelope.  On a point the certificate carries M = m0 (n x n,
    column-major); on a polytope the extras carry the AffineMParam, zero
    off the pattern."""
    m0 = values["m0"]
    rowsum_bound = model.row_sups["ZM"](values) + _rowsum_selector(n) @ m0
    lam = float(np.max(rowsum_bound / v))
    if not isinstance(poly, Polytope):
        return lam, m0.reshape(n, n, order="F") * scale, {}
    full = np.zeros((n * n, poly.dim))
    full[_pattern_entries(_envelope_pattern(poly, n))] = values["mz"] * scale
    param = AffineMParam(m0=m0 * scale, ma=full[:, :n * n],
                         mb=full[:, n * n:])
    return lam, None, {"m_param": param}


def synthesize_aarc(poly, spec, mode="ess", objective="feasibility"):
    """Affine-envelope robust synthesis over a consistency polytope.

    Same calling convention and certificate semantics as the sign-based
    synthesizer; extras["Z"] holds {"ZM": (n, L), "Zb": (2n^2 2^m, L)}
    multipliers, rows ordered as in _envelope_rows, and extras["m_param"]
    the AffineMParam.  On a plant vector the envelope is a constant matrix
    M, returned in the certificate (the known-plant envelope form).
    Conservative by construction: an infeasible result here does not
    preclude sign-based feasibility.  Even on a point, M bounds each entry
    by its own worst sector vertex before the row sum, so it can be strictly
    more conservative than the sign form whenever different vertices
    maximize different entries of one row.
    """
    return _synthesize(_aarc_model, _extract_aarc, poly, spec, mode,
                       objective)


def count_constraints_aarc(n, m, L):
    """Size record of the affine-counterpart LP before assembly.

    n row-sum rows plus 2n^2 envelope rows at each of the 2^m vertices,
    certified by Z_M and Z_b.  L is the face count of a polytope whose
    faces all share one component (a dense G): M then depends on the
    whole plant, ma/mb have n^4 + n^3 m entries, and every robust row
    carries L multipliers and n(n+m) equality rows.  L may instead be
    the length-n sequence of per-row face counts L_i of a row-separable
    polytope (a data polytope, one component per row of [A B]): row i of
    M then depends on row i of [A B] alone (n^3 + n^2 m entries of
    ma/mb), and a robust row of state i carries L_i multipliers and
    n + m equality rows.
    """
    per_state = 1 + 2 * n * 2 ** m      # row sum and envelope rows of i
    if np.ndim(L):
        L = np.asarray(L)
        if L.shape != (n,):
            raise ValueError("per-row face counts must have length n")
        faces, width, pattern = int(L.sum()), n + m, n * n * (n + m)
    else:
        faces, width, pattern = n * L, n * (n + m), n ** 3 * (n + m)
    return {
        "robust_inequalities": n * per_state,
        "farkas_variables": faces * per_state,
        "equality_rows": width * n * per_state,
        "inequality_rows": n * per_state,
        "search_variables": n + n * m + n * n + pattern,
    }
