"""LP model assembly, the solver path, and polytope containment.

Every optimization problem in this package is assembled as an LPModel over
named variable blocks and solved fresh by DEFAULT_BACKEND, which wraps
scipy's HiGHS interface.  The module also provides the containment
machinery used by the synthesizers: add_farkas_block encodes the extended
Farkas condition

    {x | G1 x <= h1} subset of {x | G2 x <= h2}
        iff  exists Z >= 0 with Z G1 = G2 and Z h1 <= h2,

for a nonempty left-hand side.  The condition is imposed row by row, and a
row of G2 only meets the faces of G1 that share its columns:
Polytope.components splits the face-column pattern of G1 into connected
components, the set is the product of their sets, and each row gets
multipliers on, and equality rows for, only the components its own
columns touch.

How the LP scales on a data polytope: over z = [vec(A); vec(B)] each data
face constrains one row of [A B], so there is one component per row, and
a robust row of state i carries L_i ~ L/n multipliers and n + m equality
rows instead of L and n(n+m), and so does every robust row of synth_aarc,
whose row-local envelope keeps each row to its own columns.  A row
touching every component, as with a dense G1, gets the full L2 x L1
block.  Multipliers are laid out row after row, so a caller stacks every
robust row of a constraint family into one G2 and gets one block.

Sequences of LPs that differ in a few numbers run in one persistent
HiGHS model, a _WarmLP, whose costs, row bounds and single coefficients
change between warm re-solves and which can grow by rows.  The support
LPs of pruning and of the audit use it through _SupportSession (new
costs, one changed row bound), and the ESS min-lambda bisection through
param_solver: a model built with a scalar parameter (LPModel.param_expr)
is assembled once, and each probe rewrites only the entries the
parameter scales.

A model's robust rows can also be solved without assembling their Farkas
blocks, by vertex cuts (_CutLoop; synth_sign uses it for every sign
solve on a polytope).  Polytope.hulls gives each component, seen from its
Chebyshev centre, the convex hull of its dual points (qhull), whose
facets are the component's vertices: the same hull prunes faces
(consistency._hull_redundant).  A robust row holds over a bounded
component iff it holds at every vertex, so a small master over the
model's other blocks takes the rows at the vertices that its solution
violates most, one product of the rows with the vertex set per round,
until none is violated; each row's support is then certified by the dual
of its best vertex's active faces, which fills the Farkas block.  The
Farkas LP answers wherever the cuts cannot: a component without a
bounded, full-dimensional vertex set, or a master that ends neither
optimal nor infeasible.

This module alone picks the path: without scipy's private HiGHS module
(_highs None) every LP is a fresh solve through DEFAULT_BACKEND and every
robust row gets its Farkas block, the reference path.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, QhullError

try:    # HiGHS's own model object: private to scipy, so optional
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    _highs = None

__all__ = [
    "Polytope",
    "AffExpr",
    "LPModel",
    "LPSolution",
    "LinprogBackend",
    "SolverError",
    "solve",
    "add_farkas_block",
    "add_robust_rows",
    "max_linear_over_polytope",
    "param_solver",
]

# A component whose Chebyshev radius is at most FLAT_TOL is flat: it has no
# dual hull.
FLAT_TOL = 1e-8
# Nor has one of more than HULL_MAX_COLS columns: a polytope's vertex count
# can grow like its face count to the power d/2 (McMullen's upper bound
# theorem), and qhull's time with it.  A random 40-face polytope over the
# 15 columns of sys1 has 1,030,030 vertices, which took qhull 24 s; a data
# polytope's components have n + m columns.
HULL_MAX_COLS = 10
# A vertex cut is added when it is violated by more than CUT_TOL (1 + |h|).
CUT_TOL = 1e-9
# Multipliers from a vertex's active faces are accepted when no entry is
# below -CERT_TOL and Z G matches the row within CERT_TOL, each scaled by
# 1 + max |row|; the rare rest are certified by a support LP.
CERT_TOL = 1e-11
# A cut loop that has not closed after MAX_ROUNDS master solves gives up.
MAX_ROUNDS = 200
# Rows are scored against a vertex set in blocks of about SCORE_BLOCK
# scores (512 KB), which stay in cache for the argmax: scoring sys2's
# 256-row blocks whole wrote and re-read 4 MB per component and took 38 ms
# per call on one BLAS thread (94 ms on two), in blocks 10 ms (12 ms).
SCORE_BLOCK = 1 << 16


@dataclass(frozen=True)
class Polytope:
    """Inequality description {x in R^d : G x <= h}."""

    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if G.shape[0] != h.size:
            raise ValueError("face count mismatch between G and h")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(h))):
            raise ValueError("polytope data must be finite")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)

    @property
    def num_faces(self):
        return self.G.shape[0]

    @property
    def dim(self):
        return self.G.shape[1]

    @cached_property
    def components(self):
        """(face_comp, col_comp): the connected component of every face
        and every column in the bipartite graph joining face f to column
        c where G[f, c] != 0.  Components are numbered 0..K-1 by their
        columns; the polytope is the product of the components' sets.  A
        column no face touches is a component of its own, and an all-zero
        face belongs to none (label -1)."""
        L, d = self.G.shape
        f, c = np.nonzero(self.G)
        graph = sp.csr_matrix((np.ones(f.size), (f, L + c)),
                              shape=(L + d, L + d))
        _, labels = connected_components(graph, directed=False)
        cols, col_comp = np.unique(labels[L:], return_inverse=True)
        number = np.full(L + d, -1)
        number[cols] = np.arange(cols.size)
        return number[labels[:L]], col_comp.ravel()

    @cached_property
    def hulls(self):
        """One _DualHull per component (components), or None for a
        component with under two or over HULL_MAX_COLS columns, a flat one
        (Chebyshev radius at most FLAT_TOL), or one where qhull or the
        Chebyshev LP fails.  Pruning drops faces by them
        (consistency._hull_redundant), and the cut engine (_CutLoop) takes
        its vertex sets from the bounded ones.  Needs a nonempty
        polytope."""
        face_comp, col_comp = self.components
        return [_dual_hull(self, np.flatnonzero(face_comp == k),
                           np.flatnonzero(col_comp == k))
                for k in range(col_comp.max(initial=-1) + 1)]

    def contains(self, x, tol=1e-9):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(self.G @ x <= self.h + tol))

    def to_json_dict(self):
        return {"G": self.G.tolist(), "h": self.h.tolist()}

    @classmethod
    def from_json_dict(cls, d):
        return cls(G=np.asarray(d["G"], dtype=float),
                   h=np.asarray(d["h"], dtype=float))


def _as_csr(mat):
    if sp.issparse(mat):
        return mat.tocsr()
    return sp.csr_matrix(np.atleast_2d(np.asarray(mat, dtype=float)))


class AffExpr:
    """Vector of affine expressions over named variable blocks.

    terms maps a block name to an (rows x block_size) coefficient matrix;
    const is the constant part.  Supports +, -, scaling and left
    multiplication by a constant matrix, which is all the assembly code
    needs.
    """

    def __init__(self, rows, terms=None, const=None):
        self.rows = int(rows)
        self.terms = {}
        if terms:
            for name, coeff in terms.items():
                coeff = _as_csr(coeff)
                if coeff.shape[0] != self.rows:
                    raise ValueError(f"coefficient rows mismatch for {name}")
                self.terms[name] = coeff
        if const is None:
            self.const = np.zeros(self.rows)
        else:
            self.const = np.atleast_1d(np.asarray(const, dtype=float)).copy()
            if self.const.size != self.rows:
                raise ValueError("constant length mismatch")

    def copy(self):
        return AffExpr(self.rows, {k: v.copy() for k, v in self.terms.items()},
                       self.const.copy())

    def __add__(self, other):
        if np.isscalar(other) or isinstance(other, np.ndarray):
            out = self.copy()
            out.const = out.const + other
            return out
        if other.rows != self.rows:
            raise ValueError("row mismatch in expression addition")
        out = self.copy()
        for name, coeff in other.terms.items():
            if name in out.terms:
                out.terms[name] = out.terms[name] + coeff
            else:
                out.terms[name] = coeff.copy()
        out.const = out.const + other.const
        return out

    __radd__ = __add__

    def __neg__(self):
        return AffExpr(self.rows, {k: -v for k, v in self.terms.items()},
                       -self.const)

    def __sub__(self, other):
        if np.isscalar(other) or isinstance(other, np.ndarray):
            out = self.copy()
            out.const = out.const - other
            return out
        return self + (-other)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            raise TypeError("only scalar multiplication is supported")
        return AffExpr(self.rows,
                       {k: v * float(scalar) for k, v in self.terms.items()},
                       self.const * float(scalar))

    __rmul__ = __mul__

    def premul(self, P):
        """Left-multiply by a constant matrix: rows become P @ self."""
        P = _as_csr(P)
        if P.shape[1] != self.rows:
            raise ValueError("column count of P must match expression rows")
        return AffExpr(P.shape[0],
                       {k: P @ v for k, v in self.terms.items()},
                       P @ self.const)

    def value(self, assignment):
        """Evaluate at a dict of block values."""
        out = self.const.copy()
        for name, coeff in self.terms.items():
            out = out + coeff @ np.asarray(assignment[name], dtype=float)
        return out


@dataclass
class LPSolution:
    status: str                # optimal | infeasible | unbounded | numerical-failure
    values: dict               # block name -> ndarray, present iff optimal
    objective: float           # objective value, present iff optimal

    @property
    def optimal(self):
        return self.status == "optimal"


class LPModel:
    """Linear program over named, bounded variable blocks."""

    def __init__(self):
        self.blocks = {}           # name -> (size, lb array, ub array)
        self._order = []
        self._eqs = []             # AffExpr == 0
        self._ineqs = []           # AffExpr <= 0
        self._objective = None     # scalar AffExpr, minimized
        self.farkas_blocks = []    # (zname, L2, L1, rows, faces) bookkeeping
        self.row_sups = {}         # robust row name -> values -> sup_z G z
        self.robust = {}           # robust row name -> (poly, G_expr, h_expr)
        self.params = {}           # parameter name -> value (param_expr)

    def add_block(self, name, size, lb=None, ub=None):
        if name in self.blocks:
            raise ValueError(f"duplicate block {name}")
        size = int(size)
        lbv = np.full(size, -np.inf if lb is None else lb, dtype=float) \
            if np.isscalar(lb) or lb is None else np.asarray(lb, dtype=float)
        ubv = np.full(size, np.inf if ub is None else ub, dtype=float) \
            if np.isscalar(ub) or ub is None else np.asarray(ub, dtype=float)
        self.blocks[name] = (size, lbv, ubv)
        self._order.append(name)
        return name

    def identity_expr(self, name):
        size = self.blocks[name][0]
        return AffExpr(size, {name: sp.eye(size, format="csr")})

    def param_expr(self, param, block, value):
        """The AffExpr param * block for a scalar parameter param, set to
        value.  Its terms are keyed (param, block): assemble() multiplies
        them by the current self.params[param], and param_entries(param)
        lists the matrix entries they reach, so the parameter can change
        without a rebuild."""
        self.params[param] = float(value)
        size = self.blocks[block][0]
        return AffExpr(size, {(param, block): sp.eye(size, format="csr")})

    def add_eq(self, expr):
        self._eqs.append(expr)

    def add_ineq(self, expr):
        self._ineqs.append(expr)

    def set_objective(self, expr):
        if expr.rows != 1:
            raise ValueError("objective must be scalar")
        self._objective = expr

    @property
    def num_variables(self):
        return sum(sz for sz, _, _ in self.blocks.values())

    @property
    def num_eq_rows(self):
        return sum(e.rows for e in self._eqs)

    @property
    def num_ineq_rows(self):
        return sum(e.rows for e in self._ineqs)

    def _offsets(self):
        offsets, at = {}, 0
        for name in self._order:
            offsets[name] = at
            at += self.blocks[name][0]
        return offsets, at

    @staticmethod
    def _terms(exprs, offsets):
        """(rows, cols, vals, param) of every term of exprs as COO
        triplets, shifted to its expression's first row and its block's
        first column; param is the parameter scaling it, or None."""
        at = 0
        for e in exprs:
            for key, coeff in e.terms.items():
                param, block = key if isinstance(key, tuple) else (None, key)
                coo = coeff.tocoo()
                yield coo.row + at, coo.col + offsets[block], coo.data, param
            at += e.rows

    def _csr(self, terms, shape):
        """One CSR matrix summing the triplets of terms, each scaled by
        the current value of its parameter."""
        rows, cols = [np.zeros(0, int)], [np.zeros(0, int)]
        vals = [np.zeros(0)]
        for r, c, v, param in terms:
            rows.append(r)
            cols.append(c)
            vals.append(v if param is None else v * self.params[param])
        return sp.csr_matrix((np.concatenate(vals),
                              (np.concatenate(rows), np.concatenate(cols))),
                             shape=shape)

    def _stack(self, exprs, nvar, offsets):
        """One CSR matrix of every expression's terms, plus the stacked
        constants."""
        nrows = sum(e.rows for e in exprs)
        if nrows == 0:
            return None, None
        A = self._csr(self._terms(exprs, offsets), (nrows, nvar))
        return A, np.concatenate([e.const for e in exprs])

    def assemble(self):
        """Return (c, A_ub, b_ub, A_eq, b_eq, bounds) in linprog convention."""
        offsets, nvar = self._offsets()
        c = np.zeros(nvar)
        if self._objective is not None:
            for name, coeff in self._objective.terms.items():
                dense = np.asarray(coeff.todense()).ravel()
                c[offsets[name]:offsets[name] + dense.size] += dense
        A_ub, ub_const = self._stack(self._ineqs, nvar, offsets)
        b_ub = None if A_ub is None else -ub_const
        A_eq, eq_const = self._stack(self._eqs, nvar, offsets)
        b_eq = None if A_eq is None else -eq_const
        bounds = np.empty((nvar, 2))
        for name in self._order:
            size, lbv, ubv = self.blocks[name]
            bounds[offsets[name]:offsets[name] + size, 0] = lbv
            bounds[offsets[name]:offsets[name] + size, 1] = ubv
        return c, A_ub, b_ub, A_eq, b_eq, bounds

    def param_entries(self, param, exprs=None):
        """(rows, cols, base, slope) of every constraint matrix entry that
        parameter param scales: at parameter value p the entry is
        base + slope * p, base being the sum of its other terms.  Rows
        count the A_ub rows of assemble() first, then its A_eq rows, or
        the rows of exprs, stacked, when given."""
        offsets, nvar = self._offsets()
        if exprs is None:
            exprs = self._ineqs + self._eqs
        shape = (sum(e.rows for e in exprs), nvar)
        terms = list(self._terms(exprs, offsets))
        slope = self._csr([(r, c, v, None) for r, c, v, p in terms
                           if p == param], shape)
        base = self._csr([t for t in terms if t[3] != param], shape)
        rows, cols = slope.nonzero()
        return (rows, cols, np.asarray(base[rows, cols]).ravel(),
                np.asarray(slope[rows, cols]).ravel())

    def split(self, x):
        offsets, _ = self._offsets()
        return {name: x[offsets[name]:offsets[name] + self.blocks[name][0]]
                for name in self._order}

    def value(self, expr, values):
        """expr at the block values, its parameters at their current
        values."""
        out = expr.const.copy()
        for key, coeff in expr.terms.items():
            param, block = key if isinstance(key, tuple) else (None, key)
            x = np.asarray(values[block], dtype=float)
            out += coeff @ (x if param is None else self.params[param] * x)
        return out


class LinprogBackend:
    """The fresh solve of one LP: scipy.optimize.linprog with HiGHS."""

    def solve(self, c, A_ub, b_ub, A_eq, b_eq, bounds):
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
            res.status, "numerical-failure")
        x = res.x if status == "optimal" else None
        obj = float(res.fun) if status == "optimal" else None
        return status, x, obj


DEFAULT_BACKEND = LinprogBackend()


class SolverError(RuntimeError):
    """An LP whose status (a numerical failure, say) gives no answer."""


def solve(model):
    """Solve an LPModel fresh, returning an LPSolution.  Solver trouble
    arrives as DEFAULT_BACKEND's status ('numerical-failure' and so on);
    an exception it raises is a fault and propagates."""
    status, x, obj = DEFAULT_BACKEND.solve(*model.assemble())
    if status != "optimal":
        return LPSolution(status, None, None)
    return LPSolution("optimal", model.split(x), obj)


def _row_support(expr):
    """Mask of the expression rows that are not structurally zero: a
    stored coefficient in some block, or a nonzero constant."""
    mask = expr.const != 0
    for coeff in expr.terms.values():
        mask |= np.diff(coeff.tocsr().indptr) > 0
    return mask


def _touched(poly, G2_expr, L2):
    """(touched, col_of, face_of): which components (Polytope.components)
    the structural columns of each of the L2 rows of G2_expr touch, an
    L2 x K mask, and the K x d and K x L1 masks of each component's columns
    and faces."""
    face_comp, col_comp = poly.components
    comps = np.arange(col_comp.max(initial=-1) + 1)[:, None]
    col_of, face_of = col_comp == comps, face_comp == comps
    touched = _row_support(G2_expr).reshape(L2, poly.dim) @ col_of.T
    return touched, col_of, face_of


def _farkas_rows(model, poly, G2_expr, h2_expr, name):
    """The multiplier block of add_farkas_block; returns the (L2 x size)
    matrix mapping it to the certified sups Z h1 of the rows."""
    L1, d = poly.G.shape
    L2 = h2_expr.rows
    if G2_expr.rows != L2 * d:
        raise ValueError("G2 expression must have L2 * d rows (row-major)")
    touched, col_of, face_of = _touched(poly, G2_expr, L2)
    rows, faces = np.nonzero(touched @ face_of)
    eq_rows, eq_cols = np.nonzero(touched @ col_of)
    eq_index = np.full((L2, d), -1)
    eq_index[eq_rows, eq_cols] = np.arange(eq_rows.size)
    size = rows.size
    model.add_block(name, size, lb=0.0)
    # Multiplier k (row rows[k], face faces[k]) enters the equality row of
    # (rows[k], c) with coefficient G1[faces[k], c].
    G1 = sp.csr_matrix(poly.G)[faces].tocoo()
    ZG = sp.csr_matrix((G1.data, (eq_index[rows[G1.row], G1.col], G1.row)),
                       shape=(eq_rows.size, size))
    pick = sp.csr_matrix((np.ones(eq_rows.size),
                          (np.arange(eq_rows.size), eq_rows * d + eq_cols)),
                         shape=(eq_rows.size, L2 * d))
    model.add_eq(AffExpr(eq_rows.size, {name: ZG}) - G2_expr.premul(pick))
    Zh = sp.csr_matrix((poly.h[faces], (rows, np.arange(size))),
                       shape=(L2, size))
    Zh.eliminate_zeros()
    model.add_ineq(AffExpr(L2, {name: Zh}) - h2_expr)
    model.farkas_blocks.append((name, L2, L1, rows, faces))
    return Zh


def add_farkas_block(model, G1, h1, G2_expr, h2_expr, name=None):
    """Add multipliers certifying {G1 x <= h1} subset of {G2 x <= h2}.

    G2_expr holds the L2 x d left-hand side flattened row-major into an
    AffExpr of L2*d rows (entries may be affine in model variables);
    h2_expr is an AffExpr of L2 rows.  Adds one nonnegative block Z with

        Z G1 = G2   (equality rows)
        Z h1 <= h2  (L2 inequality rows)

    and returns the Z block name.  Row r of Z ranges over the faces of the
    components (Polytope.components) that the structural columns of row r
    of G2 touch, laid out row after row in face order, with equality rows
    for the columns of those components only.  A row touching every
    component gets all L1 faces and d equality rows (Z is a full L2 x L1
    block flattened row-major); a row with no structural column gets
    none.  This is exact when {G1 x <= h1} is nonempty, which the caller
    must ensure: on a product of nonempty sets a row's sup is its sup over
    the components it touches.  model.farkas_blocks records
    (name, L2, L1, rows, faces), the row and face of each multiplier.
    """
    if not isinstance(G2_expr, AffExpr):
        arr = np.atleast_2d(np.asarray(G2_expr, dtype=float))
        G2_expr = AffExpr(arr.size, const=arr.reshape(-1))
    if not isinstance(h2_expr, AffExpr):
        arr = np.atleast_1d(np.asarray(h2_expr, dtype=float))
        h2_expr = AffExpr(arr.size, const=arr)
    if name is None:
        name = f"Z{len(model.farkas_blocks)}"
    _farkas_rows(model, Polytope(G1, h1), G2_expr, h2_expr, name)
    return name


def add_robust_rows(model, unc, G_expr, h_expr, name):
    """Require G z <= h rowwise for every z in the uncertainty set unc.

    G_expr and h_expr are as in add_farkas_block.  unc is either a nonempty
    Polytope, which gets a Farkas multiplier block named name (see
    add_farkas_block for its layout), or one point z0, whose rows are
    substituted (G z0 <= h) with no multipliers: a robust counterpart is
    built row by row, so a point needs none.  Records model.row_sups[name],
    a function of the solved block values returning the certified sup of
    G z over unc (Z h1 for a polytope, G z0 for a point), and on a polytope
    model.robust[name], the rows themselves, from which _CutLoop solves
    the model without its Farkas block.
    """
    if isinstance(unc, Polytope):
        Zh = _farkas_rows(model, unc, G_expr, h_expr, name)
        model.row_sups[name] = lambda values: Zh @ values[name]
        model.robust[name] = (unc, G_expr, h_expr)
    else:
        Gz = G_expr.premul(sp.kron(sp.eye(h_expr.rows), unc[None, :]))
        model.add_ineq(Gz - h_expr)
        model.row_sups[name] = Gz.value


def _free(d):
    """linprog bounds of d free variables."""
    return np.column_stack([np.full(d, -np.inf), np.full(d, np.inf)])


def _require_nonempty(poly):
    """Check {G x <= h} nonempty, as the Farkas rule needs, by one
    zero-cost LP over free x: ValueError when empty, SolverError on any
    other non-optimal status, so a solver failure never passes."""
    status, _, _ = DEFAULT_BACKEND.solve(
        np.zeros(poly.dim), poly.G, poly.h, None, None, _free(poly.dim))
    if status == "infeasible":
        raise ValueError("polytope is empty")
    if status != "optimal":
        raise SolverError(f"nonemptiness LP failed with status {status}")


def _support(status, x, obj):
    """(value, maximizer) of a solved min -c^T x support LP."""
    if status == "optimal":
        return -obj, x
    if status == "unbounded":
        return np.inf, None
    if status == "infeasible":
        raise ValueError("support function of an empty polytope")
    raise SolverError(f"support LP failed with status {status}")


def max_linear_over_polytope(c, poly, return_point=False):
    """Support value max c^T x over the polytope.

    Returns +inf when the maximization is unbounded; raises ValueError on an
    infeasible (empty) polytope and SolverError on any other failure.  With
    return_point the maximizer is returned alongside the value (None when
    unbounded).
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    value, x = _support(*DEFAULT_BACKEND.solve(
        -c, poly.G, poly.h, None, None, _free(poly.dim)))
    return (value, x) if return_point else value


class _WarmLP:
    """One assembled LP in a persistent HiGHS model, re-solved warm.

    Built from linprog's arrays (c, A_ub, b_ub, A_eq, b_eq, bounds) and
    held as the A_ub rows, bounded above by b_ub, followed by the A_eq
    rows, fixed at b_eq.  set_costs, set_row_bounds and set_coeffs change
    the model in place; run() re-solves it from the last basis and
    returns (status, x, objective) as LinprogBackend.solve does, x a
    copy.  A call costs a few simplex iterations instead of a fresh
    linprog setup.  Needs scipy's HiGHS module (_highs not None).
    """

    def __init__(self, c, A_ub, b_ub, A_eq, b_eq, bounds):
        nvar = len(c)
        mats = [sp.csc_matrix((0, nvar))]
        lower, upper = [np.zeros(0)], [np.zeros(0)]
        if A_ub is not None:
            mats.append(sp.csc_matrix(A_ub))
            lower.append(np.full(len(b_ub), -np.inf))
            upper.append(b_ub)
        if A_eq is not None:
            mats.append(sp.csc_matrix(A_eq))
            lower.append(b_eq)
            upper.append(b_eq)
        A = sp.vstack(mats, format="csc")
        bounds = np.asarray(bounds, dtype=float)
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = nvar
        lp.num_row_ = lp.a_matrix_.num_row_ = A.shape[0]
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        lp.col_cost_ = np.asarray(c, dtype=float)
        lp.col_lower_ = bounds[:, 0]
        lp.col_upper_ = bounds[:, 1]
        lp.row_lower_ = np.concatenate(lower)
        lp.row_upper_ = np.concatenate(upper)
        self._highs = _highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        if self._highs.passModel(lp) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the model")

    def set_costs(self, cols, values):
        self._highs.changeColsCost(len(cols), cols, values)

    def set_row_bounds(self, r, lower, upper):
        self._highs.changeRowBounds(int(r), float(lower), float(upper))

    def set_coeffs(self, rows, cols, values):
        for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
            self._highs.changeCoeff(r, c, v)

    def add_rows(self, A, upper):
        """Append the rows of the CSR matrix A, bounded above by upper."""
        A = sp.csr_matrix(A)
        self._highs.addRows(A.shape[0], np.full(A.shape[0], -np.inf),
                            np.asarray(upper, dtype=float), A.nnz,
                            A.indptr.astype(np.int32),
                            A.indices.astype(np.int32), A.data)

    def row_duals(self):
        """The row duals of the last solve (HiGHS's sign convention: <= 0
        on an active upper bound of a minimization)."""
        return np.array(self._highs.getSolution().row_dual)

    def run(self):
        highs = self._highs
        highs.run()
        status = highs.getModelStatus()
        if status == _highs.HighsModelStatus.kOptimal:
            return ("optimal", np.array(highs.getSolution().col_value),
                    highs.getInfo().objective_function_value)
        if status == _highs.HighsModelStatus.kInfeasible:
            return "infeasible", None, None
        if status == _highs.HighsModelStatus.kUnbounded:
            return "unbounded", None, None
        return "numerical-failure", None, None


class _SupportSession:
    """Repeated support LPs max c^T x over {G x <= h, x free}, built once.

    The LP is one _WarmLP: maximize(c) changes only the costs and
    re-solves from the last basis, and set_upper(r, value) changes the
    bound of row r (+inf frees it).  maximize follows
    max_linear_over_polytope: (value, point) when optimal, (+inf, None)
    when unbounded, ValueError when infeasible and SolverError on any
    other status.  Without scipy's HiGHS module every maximize is that
    function on the current rows, a fresh solve: the reference path.
    """

    def __init__(self, G, h):
        self._G = np.atleast_2d(np.asarray(G, dtype=float))
        self._upper = np.array(h, dtype=float)
        self._lp = None
        if _highs is not None:
            d = self._G.shape[1]
            self._cols = np.arange(d, dtype=np.int32)
            self._lp = _WarmLP(np.zeros(d), self._G, self._upper, None, None,
                               _free(d))

    def set_upper(self, r, value):
        self._upper[r] = value
        if self._lp is not None:
            self._lp.set_row_bounds(r, -np.inf, value)

    def maximize(self, c):
        c = np.asarray(c, dtype=float)
        if self._lp is None:
            rows = np.isfinite(self._upper)
            return max_linear_over_polytope(
                c, Polytope(self._G[rows], self._upper[rows]),
                return_point=True)
        self._lp.set_costs(self._cols, -c)
        return _support(*self._lp.run())

    def multipliers(self):
        """Z >= 0 with Z G = c and Z h = the support value, for the c of
        the last maximize that was optimal: the LP's row duals.  Needs
        scipy's HiGHS module."""
        return np.maximum(-self._lp.row_duals(), 0.0)


class _DualHull:
    """One component {x : G x <= h} of a polytope, seen from its Chebyshev
    centre x0 (Barber, Dobkin & Huhdanpaa, ACM TOMS 22, 1996).

    With slack s = h - G x0 > 0 the set is x0 + {u : (G_r / s_r) u <= 1}.
    Its vertices are the facets a y = 1 of the convex hull of the origin
    and the dual points G_r / s_r that miss the origin: the vertex is
    x0 + a (vertices, with a in weights), and the faces active there are
    the points spanning the facet (simplices, component-local; qhull's
    facets are simplices, d points each).  A facet through the origin is a recession
    direction, so the set is bounded exactly when none is (bounded).
    faces and cols place the component in its polytope.
    """

    def __init__(self, G, h, faces, cols, x0, slack, hull):
        d = cols.size
        self.G, self.h, self.faces, self.cols = G, h, faces, cols
        self.x0, self.slack = x0, slack
        misses = hull.equations[:, d] < 0
        self.weights = hull.equations[misses, :d] / -hull.equations[misses, d:]
        self.simplices = hull.simplices[misses] - 1
        self.bounded = bool(misses.all()) and 0 not in hull.vertices

    @cached_property
    def vertices(self):
        # Column-major, so that vertices.T is C-contiguous for the products
        # of _best_vertices: with C-ordered vertices one round of sys2
        # scoring took 7.7 ms instead of 3.9 ms (caches swept in between).
        return np.asfortranarray(self.x0 + self.weights)


def _dual_hull(poly, faces, cols):
    """The _DualHull of the component of poly on faces and cols, or None
    for under two or over HULL_MAX_COLS columns, a flat set, a QhullError
    or a failed Chebyshev LP.  The Chebyshev centre maximizes the radius
    t <= 1 of a ball inside the set, by one support LP (warm when scipy's
    HiGHS module is present)."""
    d = cols.size
    if not 2 <= d <= HULL_MAX_COLS:
        return None
    G, h = poly.G[np.ix_(faces, cols)], poly.h[faces]
    lifted = np.block([[G, np.linalg.norm(G, axis=1)[:, None]],
                       [np.zeros(d), 1.0]])
    try:
        _, x = _SupportSession(lifted, np.append(h, 1.0)).maximize(
            np.eye(d + 1)[d])
    except SolverError:
        return None
    x0 = x[:d]
    slack = h - G @ x0
    if slack.min() <= FLAT_TOL:
        return None
    try:
        hull = ConvexHull(np.vstack([np.zeros(d), G / slack[:, None]]))
    except QhullError:
        return None
    return _DualHull(G, h, faces, cols, x0, slack, hull)


def param_solver(model, param):
    """solve(model) as a function of the value of parameter param
    (LPModel.param_expr).

    The model is assembled once into a _WarmLP, and a call rewrites the
    entries param scales (LPModel.param_entries) and re-solves from the
    last basis.  A warm solve that ends neither optimal nor infeasible is
    solved once more fresh (the reference path, and without scipy's HiGHS
    module every call): set model.params[param], then solve(model).
    """

    def fresh(value):
        model.params[param] = value
        return solve(model)

    if _highs is None:
        return fresh
    lp = _WarmLP(*model.assemble())
    rows, cols, base, slope = model.param_entries(param)

    def warm(value):
        lp.set_coeffs(rows, cols, base + slope * value)
        status, x, obj = lp.run()
        if status == "optimal":
            return LPSolution(status, model.split(x), obj)
        if status == "infeasible":
            return LPSolution(status, None, None)
        return fresh(value)

    return warm


class _NoCuts(Exception):
    """The cut engine cannot answer this model: its Farkas LP must."""


def _best_vertices(C, vertices):
    """(index, score) of the best vertex for every row of C, by the
    products C @ vertices.T taken SCORE_BLOCK scores at a time."""
    best, top = np.empty(len(C), dtype=int), np.empty(len(C))
    step = max(1, SCORE_BLOCK // len(vertices))
    for at in range(0, len(C), step):
        scores = C[at:at + step] @ vertices.T
        best[at:at + step] = scores.argmax(axis=1)
        top[at:at + step] = scores[np.arange(len(scores)),
                                   best[at:at + step]]
    return best, top


class _CutRows:
    """The cut state of one robust row family (LPModel.robust): the
    components its rows touch with their vertex sets, its cut pool, and
    the layout of its Farkas block, into which certify writes the
    multipliers."""

    def __init__(self, model, name, poly, G_expr, h_expr):
        self.name, self.G_expr, self.h_expr = name, G_expr, h_expr
        self.L2, self.d = h_expr.rows, poly.dim
        touched, _, _ = _touched(poly, G_expr, self.L2)
        self.comps = []
        for k in np.flatnonzero(touched.any(axis=0)):
            hull = poly.hulls[k]
            if hull is None or not hull.bounded:
                raise _NoCuts(f"component {k} has no vertex set")
            self.comps.append((np.flatnonzero(touched[:, k]), hull))
        _, _, L1, rows, faces = next(b for b in model.farkas_blocks
                                     if b[0] == name)
        self.size = rows.size
        self.slot = np.full((self.L2, L1), -1)
        self.slot[rows, faces] = np.arange(rows.size)
        self.sessions = {}
        self.pool = set()

    def cuts(self, rows, points):
        """The rows G_r(x) z_r - h_r(x) <= 0 at the points z_r (one
        length-d row per robust row r)."""
        K, d = len(rows), self.d
        at = sp.csr_matrix((points.ravel(), (np.repeat(np.arange(K), d),
                            (rows[:, None] * d + np.arange(d)).ravel())),
                           shape=(K, self.L2 * d))
        at.eliminate_zeros()
        pick = sp.csr_matrix((np.ones(K), (np.arange(K), rows)),
                             shape=(K, self.L2))
        return self.G_expr.premul(at) - self.h_expr.premul(pick)

    def centre_cuts(self):
        """The point-substitution rows at every component's Chebyshev
        centre."""
        points = np.zeros((self.L2, self.d))
        for rows, hull in self.comps:
            points[np.ix_(rows, hull.cols)] = hull.x0
        return self.cuts(np.arange(self.L2), points)

    def separate(self, master, values):
        """The most violated vertex cut of every row that is violated by
        more than CUT_TOL and not yet in the pool (None when there is
        none).  Scores every row against its components' vertex sets
        (_best_vertices), and keeps the rows' coefficients and best
        vertices for certify."""
        g = master.value(self.G_expr, values).reshape(self.L2, self.d)
        h = master.value(self.h_expr, values)
        sup = np.zeros(self.L2)
        points = np.zeros((self.L2, self.d))
        best = np.zeros((self.L2, len(self.comps)), dtype=int)
        for j, (rows, hull) in enumerate(self.comps):
            best[rows, j], top = _best_vertices(g[np.ix_(rows, hull.cols)],
                                                hull.vertices)
            sup[rows] += top
            points[np.ix_(rows, hull.cols)] = hull.vertices[best[rows, j]]
        self.g, self.best = g, best
        new = [r for r in np.flatnonzero(sup - h > CUT_TOL * (1 + np.abs(h)))
               if (r, best[r].tobytes()) not in self.pool]
        if not new:
            return None
        self.pool.update((r, best[r].tobytes()) for r in new)
        new = np.array(new)
        return self.cuts(new, points[new])

    def certify(self):
        """The Farkas multipliers of the last separated point, in the
        layout of the Farkas block: per row and component, the dual
        z = G_act^{-T} c of the best vertex's active faces, or the row
        duals of a support LP where that z is not a certificate.  Raises
        _NoCuts when a support LP beats every vertex."""
        Z = np.zeros(self.size)
        for j, (rows, hull) in enumerate(self.comps):
            c = self.g[np.ix_(rows, hull.cols)]
            act = hull.simplices[self.best[rows, j]]
            A = hull.G[act]
            scale = CERT_TOL * (1.0 + np.abs(c).max(axis=1))
            try:
                z = np.linalg.solve(A.transpose(0, 2, 1), c[..., None])[..., 0]
            except np.linalg.LinAlgError:     # a singular active set
                z = np.full(c.shape, np.nan)
            good = ((z.min(axis=1) >= -scale)
                    & (np.abs(np.einsum("rfd,rf->rd", A, z) - c).max(axis=1)
                       <= scale))
            Z[self.slot[rows[good, None], hull.faces[act[good]]]] = \
                np.maximum(z[good], 0.0)
            for r, row in zip(rows[~good], c[~good]):
                Z[self.slot[r, hull.faces]] = self._support(j, hull, row)
        return Z

    def _support(self, j, hull, c):
        """Multipliers over every face of component j for direction c, by
        a warm support LP."""
        session = self.sessions.get(j)
        if session is None:
            session = self.sessions[j] = _SupportSession(hull.G, hull.h)
        value, _ = session.maximize(c)
        if value > (hull.vertices @ c).max() + CUT_TOL * (1 + abs(value)):
            raise _NoCuts("a support LP beat every vertex")
        return session.multipliers()


def _master(model):
    """The model without the Farkas blocks of its robust rows and the rows
    over them: the same blocks, bounds, objective, parameters (one dict)
    and other rows, and no robust row."""
    def over_farkas(expr):
        return any((key[1] if isinstance(key, tuple) else key) in model.robust
                   for key in expr.terms)

    out = LPModel()
    out._order = [name for name in model._order if name not in model.robust]
    out.blocks = {name: model.blocks[name] for name in out._order}
    out._eqs = [e for e in model._eqs if not over_farkas(e)]
    out._ineqs = [e for e in model._ineqs if not over_farkas(e)]
    out._objective = model._objective
    out.params = model.params
    return out


class _CutLoop:
    """solve(model) by vertex cuts, as a function of the value of the
    parameter param (LPModel.param_expr), or of nothing when param is None.

    A robust row holds over a component P_k iff it holds at every vertex of
    P_k (Mutapcic & Boyd, Optim. Methods Softw. 24, 2009), so the model's
    robust rows (model.robust) are replaced by cuts at vertices of their
    components (Polytope.hulls).  The master keeps the model's other
    blocks, bounds, objective and rows, and starts from the rows at each
    component's Chebyshev centre.  It is one _WarmLP: every round adds the
    most violated vertex cut of each violated row (addRows), and a call
    rewrites the entries param scales, as param_solver does, so the probes
    of one loop share its cut pool.  Once no cut is violated, every row's
    support is certified by Farkas multipliers (_CutRows.certify), which
    fill the model's Farkas block in the returned LPSolution: its values
    are a solution of the model itself.

    Raises _NoCuts, for the caller to solve the Farkas LP instead, without
    scipy's HiGHS module (the reference path), when a component a robust
    row touches has no bounded, full-dimensional vertex set, and from a
    call whose master ends neither optimal nor infeasible or that needs
    over MAX_ROUNDS master solves.  cuts counts the vertex cuts added and
    rounds the master solves of the last call.
    """

    def __init__(self, model, param=None):
        if _highs is None:
            raise _NoCuts("no HiGHS module")
        if not model.robust:
            raise _NoCuts("no robust rows")
        self.param = param
        self.families = [_CutRows(model, name, *rows)
                         for name, rows in model.robust.items()]
        self.master = _master(model)
        for family in self.families:
            self.master.add_ineq(family.centre_cuts())
        self.lp = _WarmLP(*self.master.assemble())
        self.nrows = self.master.num_ineq_rows + self.master.num_eq_rows
        self.entries = (self.master.param_entries(param) if param is not None
                        else None)
        self.cuts, self.rounds = 0, 0

    def _add(self, exprs):
        offsets, nvar = self.master._offsets()
        A, const = self.master._stack(exprs, nvar, offsets)
        self.lp.add_rows(A, -const)
        if self.param is not None:
            rows, cols, base, slope = self.master.param_entries(self.param,
                                                                exprs)
            self.entries = tuple(np.concatenate([old, new]) for old, new in
                                 zip(self.entries,
                                     (rows + self.nrows, cols, base, slope)))
        self.nrows += A.shape[0]
        self.cuts += A.shape[0]

    def __call__(self, value=None):
        if self.param is not None:
            self.master.params[self.param] = value
            rows, cols, base, slope = self.entries
            self.lp.set_coeffs(rows, cols, base + slope * value)
        for self.rounds in range(1, MAX_ROUNDS + 1):
            status, x, obj = self.lp.run()
            if status == "infeasible":
                return LPSolution(status, None, None)
            if status != "optimal":
                raise _NoCuts(f"a master LP ended {status}")
            values = self.master.split(x)
            new = [cut for cut in (f.separate(self.master, values)
                                   for f in self.families) if cut is not None]
            if not new:
                values.update((f.name, f.certify()) for f in self.families)
                return LPSolution("optimal", values, obj)
            self._add(new)
        raise _NoCuts(f"no answer after {MAX_ROUNDS} master solves")
