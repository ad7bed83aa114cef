"""LP model assembly, the solver path, and polytope containment.

Every optimization problem in this package is assembled as an LPModel over
named variable blocks.  Synthesis solves it through solver, below; a
fresh solve goes through DEFAULT_BACKEND, which wraps scipy's HiGHS
interface (solve).  The module also provides the containment
machinery used by the synthesizers: add_robust_rows imposes the extended
Farkas condition

    {x | G1 x <= h1} subset of {x | G2 x <= h2}
        iff  exists Z >= 0 with Z G1 = G2 and Z h1 <= h2,

for a nonempty left-hand side (_require_nonempty checks it, by one LP
per Polytope object).  The condition is imposed row by row, and a row of
G2 only meets the faces of G1 that share its columns:
Polytope.components splits the face-column pattern of G1 into connected
components, the set is the product of their sets, and each row gets
multipliers on, and equality rows for, only the components its own
columns touch.  add_robust_rows keeps a family of such rows apart from
the rest of the model (LPModel.robust, one _RobustRows per family), and
only this module reads the layout of its block; the block and its rows
join the model's LP when it is assembled.

How the LP scales on a data polytope: over z = [vec(A); vec(B)] each data
face constrains one row of [A B], so there is one component per row, and
a robust row of state i carries L_i ~ L/n multipliers and n + m equality
rows instead of L and n(n+m), and so does every robust row of synth_aarc,
whose row-local envelope keeps each row to its own columns.  A row
touching every component, as with a dense G1, gets the full L2 x L1
block.  Multipliers are laid out row after row, so a caller stacks every
robust row of a constraint family into one G2 and gets one block.

Sequences of LPs that differ in a few numbers run in one persistent
HiGHS model, a _WarmLP, an LP of inequality rows only, whose costs, row
bounds and single coefficients change between warm re-solves and which
can grow by rows.  The support LPs of pruning and of the audit use it
through _SupportSession (new costs, one changed row bound), and the cut
loop of solver as its master: a model built with a scalar parameter
(LPModel.param_expr), as for the ESS min-lambda bisection, is assembled
once, and each probe rewrites only the entries the parameter scales.
The parameter stays in the model's own rows (add_robust_rows refuses a
robust row that holds one): the ESS models give lambda v its own rows
u - lambda v <= 0 and bound the robust rows by u, so the robust rows,
their compiled form and every cut are free of it.

solver solves a model's robust rows without their Farkas blocks, by
vertex cuts (_CutLoop), for the sign and the envelope forms alike.
Polytope.hulls gives each component, seen from its Chebyshev
centre, the convex hull of its dual points (qhull), whose facets are the
component's vertices.  One hull serves a data set three ways: it decides
which faces pruning drops and keeps (consistency._hull_verdicts), and the
pruned polytope, the same set, inherits it as its own (_pruned), with
the nonemptiness check.  A robust row holds over a bounded
component iff it holds at every vertex, so a small master, the model's
own LP without the robust families, takes the rows at the vertices that
its solution violates most until none is violated.  Each family is
compiled once into dense arrays over the master's columns (_CutRows), so
a round costs a product with the master's point, one product of the
rows with each vertex set, and one contraction for the new rows; each
row's support is then certified by the dual of its best vertex's active
faces, which fills the Farkas block's values.  No Farkas block is built
on this path, and a model without robust rows (a plant point) is its own
master.  A call that the loop cannot answer is a numerical failure.

A cut is a robust row taken at one vertex, which the robust row implies
in every model, at every density: so the cuts outlive the call that
found them.  Each family's cut pool, its (row, vertex) pairs, is kept on
its Polytope (Polytope.cut_pools), and the next loop on that polytope, at
another density of a rho bisection say, starts from the Chebyshev-centre
rows plus the rows of every pooled pair.  The master stays a
relaxation, and an optimal answer is still certified vertex by vertex, so
the verdicts are those of a cold start, which is a loop on a new Polytope
and its empty pool.  A loop writes a pool back only after an optimal
answer (see _CutLoop).

This module alone picks the path, once per model: where a family cannot
be cut (a component without a bounded, full-dimensional vertex set), and
without scipy's private HiGHS module (_highs None), every call is a fresh
solve of the Farkas LP through DEFAULT_BACKEND, the reference path.
"""

import copy
import logging
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

logger = logging.getLogger(__name__)

__all__ = [
    "Polytope",
    "AffExpr",
    "LPModel",
    "LPSolution",
    "LinprogBackend",
    "SolverError",
    "solve",
    "add_robust_rows",
    "max_linear_over_polytope",
    "solver",
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
# A warm master solve stops after MASTER_ITERATION_LIMIT simplex
# iterations and is solved once more cold, uncapped.  Warm from the last
# probe's basis, sys2's (T = 60, rho = 0.7) AARC ESS min-lambda master at
# lambda = 0.97900390625 ran past 230 s (40,163 iterations in 15 s);
# cold, it answers in under a second.  The warm solves of the benchmark
# workloads take at most 161 iterations.
MASTER_ITERATION_LIMIT = 2000
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
        Chebyshev LP fails.  Pruning drops and keeps faces by them
        (consistency._hull_verdicts), the pruned polytope inherits them
        where they carry over (_pruned), and the cut engine (_CutLoop)
        takes its vertex sets from the bounded ones.  Needs a nonempty
        polytope."""
        face_comp, col_comp = self.components
        return [_dual_hull(self, np.flatnonzero(face_comp == k),
                           np.flatnonzero(col_comp == k))
                for k in range(col_comp.max(initial=-1) + 1)]

    @cached_property
    def cut_pools(self):
        """The vertex cuts that cut loops (_CutLoop) on this polytope kept
        for the next loop: per robust row family, keyed by its name, row
        count and the components its rows touch, the (rows, vertex index
        per component) of each cut (_CutRows).  A loop writes a family's
        pool back only after an optimal answer.  A new Polytope has none,
        so its first loop starts from the Chebyshev centres alone."""
        return {}

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
    const is the constant part.  Supports the sum and difference of two
    expressions, subtracting a constant, negation and left multiplication
    by a constant matrix, which is all the assembly code needs.
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

    def __neg__(self):
        return AffExpr(self.rows, {k: -v for k, v in self.terms.items()},
                       -self.const)

    def __sub__(self, other):
        if np.isscalar(other) or isinstance(other, np.ndarray):
            out = self.copy()
            out.const = out.const - other
            return out
        return self + (-other)

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

    @property
    def optimal(self):
        return self.status == "optimal"


class LPModel:
    """Linear program over named, bounded variable blocks.

    The model's own rows are inequalities (add_ineq).  Robust rows
    (add_robust_rows) are kept apart in robust, one _RobustRows per
    family, and the model's LP is its own blocks and rows followed, family
    by family, by each Farkas block and its rows, which hold every
    equality row of the LP: the sizes, assemble() and split() are those of
    that LP, whose Farkas rows are built at the first assemble()."""

    def __init__(self):
        self.blocks = {}           # name -> (size, lb array, ub array)
        self._order = []
        self._ineqs = []           # AffExpr <= 0
        self._objective = AffExpr(1)   # scalar AffExpr, minimized
        self.row_sups = {}         # robust row name -> values -> sup_z G z
        self.robust = {}           # robust row name -> _RobustRows
        self.params = {}           # parameter name -> value (param_expr)

    def add_block(self, name, size, lb=None, ub=None):
        if name in self.blocks:
            raise ValueError(f"duplicate block {name}")
        size = int(size)
        self.blocks[name] = (
            size, np.full(size, -np.inf if lb is None else lb, dtype=float),
            np.full(size, np.inf if ub is None else ub, dtype=float))
        self._order.append(name)
        return name

    def identity_expr(self, name):
        size = self.blocks[name][0]
        return AffExpr(size, {name: sp.eye(size, format="csr")})

    def param_expr(self, param, block, value):
        """The AffExpr param * block for a scalar parameter param, set to
        value.  Its terms are keyed (param, block): assemble() multiplies
        them by the current self.params[param], so the parameter can
        change without a rebuild, and solver(model, param) finds the
        matrix entries they reach."""
        self.params[param] = float(value)
        size = self.blocks[block][0]
        return AffExpr(size, {(param, block): sp.eye(size, format="csr")})

    def add_ineq(self, expr):
        self._ineqs.append(expr)

    def set_objective(self, expr):
        if expr.rows != 1:
            raise ValueError("objective must be scalar")
        self._objective = expr

    def _columns(self):
        """(name, size, lb, ub) of every block of the LP, in column order:
        the model's own blocks, then each robust family's multipliers."""
        for name in self._order:
            yield (name, *self.blocks[name])
        for family in self.robust.values():
            yield (family.name, family.size, np.zeros(family.size),
                   np.full(family.size, np.inf))

    @property
    def num_ineq_rows(self):
        return (sum(e.rows for e in self._ineqs)
                + sum(f.h_expr.rows for f in self.robust.values()))

    def _offsets(self):
        offsets, at = {}, 0
        for name, size, _, _ in self._columns():
            offsets[name] = at
            at += size
        return offsets, at

    def _stack(self, exprs):
        """One CSR matrix of every expression's terms over the LP's
        columns, plus the stacked constants; (None, None) for no rows."""
        nrows = sum(e.rows for e in exprs)
        if nrows == 0:
            return None, None
        rows, cols, vals, _ = self._entries(exprs, None)
        A = sp.csr_matrix((vals, (rows, cols)),
                          shape=(nrows, self._offsets()[1]))
        return A, np.concatenate([e.const for e in exprs])

    def assemble(self):
        """Return (c, A_ub, b_ub, A_eq, b_eq, bounds) in linprog convention."""
        offsets, nvar = self._offsets()
        _, cols, vals, _ = self._entries([self._objective], None)
        c = _summed(cols, vals, nvar)
        farkas = [family.farkas for family in self.robust.values()]
        A_ub, ub_const = self._stack(self._ineqs
                                     + [ineq for _, ineq in farkas])
        b_ub = None if A_ub is None else -ub_const
        A_eq, eq_const = self._stack([eq for eq, _ in farkas])
        b_eq = None if A_eq is None else -eq_const
        bounds = np.empty((nvar, 2))
        for name, size, lbv, ubv in self._columns():
            bounds[offsets[name]:offsets[name] + size, 0] = lbv
            bounds[offsets[name]:offsets[name] + size, 1] = ubv
        return c, A_ub, b_ub, A_eq, b_eq, bounds

    def _entries(self, exprs, param):
        """(rows, cols, base, slope): the entries of the terms of exprs,
        stacked, over the LP's columns, duplicates unsummed, each
        base + p * slope at value p of parameter param (None for none),
        other parameters at their current values."""
        offsets, _ = self._offsets()
        rows, cols, base, slope = ([np.zeros(0, int)], [np.zeros(0, int)],
                                   [np.zeros(0)], [np.zeros(0)])
        at = 0
        for e in exprs:
            for key, coeff in e.terms.items():
                p, block = key if isinstance(key, tuple) else (None, key)
                coo = coeff.tocoo()
                rows.append(coo.row + at)
                cols.append(coo.col + offsets[block])
                v, sloped = coo.data, p is not None and p == param
                base.append(0.0 * v if sloped
                            else v if p is None else v * self.params[p])
                slope.append(v if sloped else 0.0 * v)
            at += e.rows
        return tuple(map(np.concatenate, (rows, cols, base, slope)))

    def split(self, x):
        offsets, _ = self._offsets()
        return {name: x[offsets[name]:offsets[name] + size]
                for name, size, _, _ in self._columns()}


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
    status, x, _ = DEFAULT_BACKEND.solve(*model.assemble())
    if status != "optimal":
        return LPSolution(status, None)
    return LPSolution("optimal", model.split(x))


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


class _RobustRows:
    """Robust rows G2 z <= h2 for every z of a nonempty polytope, and the
    layout of their Farkas block (add_robust_rows): multiplier k sits on
    row rows[k] and face faces[k], and the equality rows are those of the
    row eq_rows and column eq_cols pairs; touched is the L2 x K mask of
    the components (Polytope.components) each row touches.  The block's
    rows are built only when asked for (farkas): the cut engine needs the
    layout alone, and dense lays solved block values out as Z."""

    def __init__(self, name, poly, G2_expr, h2_expr):
        L1, d = poly.G.shape
        L2 = h2_expr.rows
        if G2_expr.rows != L2 * d:
            raise ValueError(
                "G2 expression must have L2 * d rows (row-major)")
        self.name, self.poly = name, poly
        self.G_expr, self.h_expr = G2_expr, h2_expr
        self.touched, col_of, face_of = _touched(poly, G2_expr, L2)
        self.rows, self.faces = np.nonzero(self.touched @ face_of)
        self.eq_rows, self.eq_cols = np.nonzero(self.touched @ col_of)
        self.size = self.rows.size
        # The (L2 x size) matrix mapping the block to the certified sups
        # Z h1 of the rows.
        self.Zh = sp.csr_matrix((poly.h[self.faces],
                                 (self.rows, np.arange(self.size))),
                                shape=(L2, self.size))
        self.Zh.eliminate_zeros()

    @cached_property
    def farkas(self):
        """(eq, ineq): the rows Z G1 - G2 = 0 and Z h1 - h2 <= 0 over the
        block."""
        L2, d = self.h_expr.rows, self.poly.dim
        eq_index = np.full((L2, d), -1)
        eq_index[self.eq_rows, self.eq_cols] = np.arange(self.eq_rows.size)
        # Multiplier k (row rows[k], face faces[k]) enters the equality row
        # of (rows[k], c) with coefficient G1[faces[k], c].
        G1 = sp.csr_matrix(self.poly.G)[self.faces].tocoo()
        ZG = sp.csr_matrix((G1.data, (eq_index[self.rows[G1.row], G1.col],
                                      G1.row)),
                           shape=(self.eq_rows.size, self.size))
        pick = sp.csr_matrix((np.ones(self.eq_rows.size),
                              (np.arange(self.eq_rows.size),
                               self.eq_rows * d + self.eq_cols)),
                             shape=(self.eq_rows.size, L2 * d))
        return (AffExpr(self.eq_rows.size, {self.name: ZG})
                - self.G_expr.premul(pick),
                AffExpr(L2, {self.name: self.Zh}) - self.h_expr)

    def dense(self, z):
        """The block's values z as the full L2 x L1 multiplier matrix,
        zero off the layout."""
        Z = np.zeros((self.h_expr.rows, self.poly.num_faces))
        Z[self.rows, self.faces] = z
        return Z


def add_robust_rows(model, unc, G_expr, h_expr, name):
    """Require G z <= h rowwise for every z in the uncertainty set unc.

    G_expr holds the L2 x d left-hand side flattened row-major into an
    AffExpr of L2*d rows, and h_expr is an AffExpr of L2 rows; entries of
    both may be affine in model variables.  unc is either a nonempty
    Polytope {G1 z <= h1} or one point z0.

    On a polytope the rows get one nonnegative Farkas multiplier block Z,
    named name, with

        Z G1 = G   (equality rows)
        Z h1 <= h  (L2 inequality rows).

    Row r of Z ranges over the faces of the components
    (Polytope.components) that the structural columns of row r of G
    touch, laid out row after row in face order, with equality rows for
    the columns of those components only.  A row touching every component
    gets all L1 faces and d equality rows (Z is a full L2 x L1 block
    flattened row-major); a row with no structural column gets none.  This
    is exact when unc is nonempty, which the caller must ensure: on a
    product of nonempty sets a row's sup is its sup over the components it
    touches.  The rows are kept apart, in model.robust[name] (a
    _RobustRows, whose dense() gives Z as an L2 x L1 matrix): the model's
    LP gets the block and its rows (LPModel), and _CutLoop solves the
    model without them.

    On a polytope no term of G or h may carry a parameter
    (LPModel.param_expr): a parameter stays in the model's own rows, and
    a robust row that holds one raises ValueError.  On a point the rows
    are substituted (G z0 <= h) with no multipliers, into the model's own
    rows: a robust counterpart is built row by row, so a point needs none.

    Records model.row_sups[name], a function of the solved block values
    returning the certified sup of G z over unc (Z h1 for a polytope, G z0
    for a point).
    """
    if isinstance(unc, Polytope):
        if name in model.blocks or name in model.robust:
            raise ValueError(f"duplicate block {name}")
        if any(isinstance(key, tuple)
               for expr in (G_expr, h_expr) for key in expr.terms):
            raise ValueError("a parameter must stay in the model's own "
                             "rows, not in a robust row")
        family = model.robust[name] = _RobustRows(name, unc, G_expr, h_expr)
        model.row_sups[name] = lambda values: family.Zh @ values[name]
    else:
        Gz = G_expr.premul(sp.kron(sp.eye(h_expr.rows), unc[None, :]))
        model.add_ineq(Gz - h_expr)
        model.row_sups[name] = Gz.value


def _free(d):
    """linprog bounds of d free variables."""
    return np.column_stack([np.full(d, -np.inf), np.full(d, np.inf)])


def _pruned(poly, keep):
    """The Polytope of the faces of poly where keep holds, for a keep that
    drops only redundant faces, so that both describe one set.  It
    inherits poly's nonemptiness check (_require_nonempty) and, when
    every component of it keeps the columns of one of poly's and each of
    those has a hull that carries over (_DualHull.kept), poly's computed
    dual hulls; otherwise Polytope.hulls builds its own when asked."""
    pruned = Polytope(G=poly.G[keep], h=poly.h[keep])
    if getattr(poly, "_nonempty", False):
        object.__setattr__(pruned, "_nonempty", True)
    hulls = vars(poly).get("hulls")
    if hulls is None:
        return pruned
    old_comp = poly.components[1]
    face_comp, col_comp = pruned.components
    inherited = []
    for k in range(col_comp.max(initial=-1) + 1):
        # components are numbered in face order, so they are matched by
        # their columns
        cols = np.flatnonzero(col_comp == k)
        hull = hulls[old_comp[cols[0]]]
        if hull is None or not np.array_equal(hull.cols, cols):
            return pruned
        hull = hull.kept(keep[hull.faces], np.flatnonzero(face_comp == k))
        if hull is None:
            return pruned
        inherited.append(hull)
    vars(pruned)["hulls"] = inherited
    return pruned


def _require_nonempty(poly):
    """Check {G x <= h} nonempty, as the Farkas rule needs, by one
    zero-cost LP over free x: ValueError when empty, SolverError on any
    other non-optimal status, so a solver failure never passes.  A
    Polytope is immutable, so it remembers a success and is checked by
    one LP however often it is asked; an empty or failed check raises at
    every call."""
    if getattr(poly, "_nonempty", False):
        return
    status, _, _ = DEFAULT_BACKEND.solve(
        np.zeros(poly.dim), poly.G, poly.h, None, None, _free(poly.dim))
    if status == "infeasible":
        raise ValueError("polytope is empty")
    if status != "optimal":
        raise SolverError(f"nonemptiness LP failed with status {status}")
    object.__setattr__(poly, "_nonempty", True)


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

    Built from linprog's arrays (c, A_ub, b_ub, A_eq, b_eq, bounds), as
    LPModel.assemble() returns them, of an LP without equality rows (a
    cut master or a support LP; a non-None A_eq raises ValueError), and
    held as the A_ub rows, bounded above by b_ub.  set_costs,
    set_row_bounds and set_coeffs change the model in place and add_rows
    grows it; run() re-solves it from the last basis and returns
    (status, x, objective) as LinprogBackend.solve does, x a copy.  A
    call costs a few simplex iterations instead of a fresh linprog setup.
    Needs scipy's HiGHS module (_highs not None).
    """

    def __init__(self, c, A_ub, b_ub, A_eq, b_eq, bounds):
        if A_eq is not None:
            raise ValueError("a warm LP takes no equality rows")
        nvar = len(c)
        if A_ub is None:
            A_ub, b_ub = sp.csc_matrix((0, nvar)), np.zeros(0)
        A = sp.csc_matrix(A_ub)
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
        lp.row_lower_ = np.full(A.shape[0], -np.inf)
        lp.row_upper_ = np.array(b_ub, dtype=float)
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

    def add_rows(self, indptr, indices, values, upper):
        """Append rows given as CSR arrays, bounded above by upper."""
        self._highs.addRows(len(upper), np.full(len(upper), -np.inf),
                            np.asarray(upper, dtype=float), len(values),
                            indptr.astype(np.int32),
                            indices.astype(np.int32), values)

    def forget_basis(self):
        """Make the next run() a cold solve, from no basis."""
        self._highs.clearSolver()

    def cap_iterations(self, limit=None):
        """Stop each later run() after limit simplex iterations, as a
        "numerical-failure"; None lifts the cap."""
        self._highs.setOptionValue("simplex_iteration_limit",
                                   _highs.kHighsIInf if limit is None
                                   else limit)

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
    x0 + a (vertices), and the faces active there are the points spanning
    the facet (simplices, component-local; qhull's facets are simplices,
    d points each).  A facet through the origin is a recession direction,
    so the set is bounded exactly when none is (bounded).  faces and cols
    place the component in its polytope.  The cut engine (_CutLoop) takes
    its vertex sets from the bounded hulls, pruning settles faces by the
    vertices and the dual points (consistency._hull_verdicts), and a
    pruned polytope inherits the hull (kept).
    """

    def __init__(self, G, h, faces, cols, x0, hull):
        d = cols.size
        self.G, self.h, self.faces, self.cols, self.x0 = G, h, faces, cols, x0
        misses = hull.equations[:, d] < 0
        # Column-major, so that vertices.T is C-contiguous for the products
        # of _best_vertices: with C-ordered vertices one round of sys2
        # scoring took 7.7 ms instead of 3.9 ms (caches swept in between).
        self.vertices = np.asfortranarray(
            x0 + hull.equations[misses, :d] / -hull.equations[misses, d:])
        self.simplices = hull.simplices[misses] - 1
        self.bounded = bool(misses.all()) and 0 not in hull.vertices

    def kept(self, keep, faces):
        """This hull for the component's faces where keep holds, placed at
        faces in their polytope, when they describe the same set: x0, the
        vertices and bounded carry over as they are.  None when a face
        active at a vertex is dropped, as a duplicate face can be."""
        if not keep[self.simplices].all():
            return None
        hull = copy.copy(self)
        hull.G, hull.h, hull.faces = self.G[keep], self.h[keep], faces
        hull.simplices = (np.cumsum(keep) - 1)[self.simplices]
        return hull


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
    return _DualHull(G, h, faces, cols, x0, hull)


class _NoCuts(Exception):
    """The cut engine cannot cut a robust row family (solver solves its
    model fresh), or cannot answer a call (a numerical failure)."""


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


def _summed(flat, values, shape):
    """The dense array of the given shape whose entries sum the values at
    their flat indices."""
    # bincount returns integers when given no index at all
    return np.bincount(flat, values, int(np.prod(shape))).astype(
        float, copy=False).reshape(shape)


class _Component:
    """The rows of one robust family (_RobustRows) that touch a bounded
    component, compiled over the master's columns.  rows are their
    indices in the family, hull the component's _DualHull, and at maps a
    family row to its position in rows (-1 for a row not touching it).
    Their entries on the component's columns, a (len(rows), d_k) array at
    the master's point x, are G @ x[cols] + c, G being a dense
    (len(rows), d_k, len(cols)) array over the master columns cols that
    the entries use."""

    def __init__(self, rows, hull, L2, d, entries, const):
        r, c, v, values = entries
        self.rows, self.hull = rows, hull
        self.at = np.full(L2, -1)
        self.at[rows] = np.arange(rows.size)
        pos = np.full(d, -1)
        pos[hull.cols] = np.arange(hull.cols.size)
        self.cols, col = np.unique(v, return_inverse=True)
        shape = (rows.size, hull.cols.size, self.cols.size)
        self.G = _summed(np.ravel_multi_index((self.at[r], pos[c], col),
                                              shape), values, shape)
        self.c = const[rows[:, None] * d + hull.cols]

    def entries(self, x):
        return self.G @ x[self.cols] + self.c


class _CutRows:
    """The cut state of one robust row family (_RobustRows) in a master:
    its rows compiled once over the master's columns (a _Component for
    their part on each component they touch, dense arrays for h), its cut
    pool, and the layout of its Farkas block, into which certify writes
    the multipliers.  Every cut row is a contraction of the compiled
    arrays with its point (rows_at): no expression is built per round.
    The rows carry no parameter (add_robust_rows refuses one).

    A cut is a pair (row r, vertex index of r's point on each component),
    and pool holds the pairs in the master.  Row r of any model's family
    of the same name, row count and components implies its row at those
    vertices, so a pair stays a valid cut of every later master: the pool
    starts from the polytope's (Polytope.cut_pools), whose rows start_cuts
    rebuilds for this master, and keep() writes it back."""

    def __init__(self, family, master):
        poly, d = family.poly, family.poly.dim
        self.name, self.L2 = family.name, family.h_expr.rows
        (r, v, base, _), (hr, hv, h, _) = (
            master._entries([expr], None)
            for expr in (family.G_expr, family.h_expr))
        _, nvar = master._offsets()
        self.h = _summed(hr * nvar + hv, h, (self.L2, nvar))
        r, c = np.divmod(r, d)
        comp_of = poly.components[1][c]
        self.comps = []
        touched = np.flatnonzero(family.touched.any(axis=0))
        for k in touched:
            hull = poly.hulls[k]
            if hull is None or not hull.bounded:
                raise _NoCuts(f"component {k} has no vertex set")
            on = comp_of == k
            self.comps.append(_Component(
                np.flatnonzero(family.touched[:, k]), hull, self.L2, d,
                (r[on], c[on], v[on], base[on]),
                family.G_expr.const))
        self.h_const = family.h_expr.const
        self.slot = np.full((self.L2, poly.num_faces), -1)
        self.slot[family.rows, family.faces] = np.arange(family.size)
        self.size = family.size
        self.sessions = {}
        self.poly, self.key = poly, (self.name, self.L2, tuple(touched))
        # the pool's pairs as rows [r, vertex index per component]: the
        # polytope's pool, then each round's cuts
        self.pairs = [poly.cut_pools.get(
            self.key, np.zeros((0, 1 + touched.size), dtype=int))]
        self.pool = {(p[0], p[1:].tobytes()) for p in self.pairs[0]}

    def rows_at(self, rows, points):
        """(base, const) of the rows G_r(x) z_r - h_r(x) <= 0 at the points
        z_r, points[j] holding their coordinates on component j (ignored
        for a row not touching it): the row of rows[k] is
        base[k] x + const[k] over the master's columns."""
        base, const = -self.h[rows], -self.h_const[rows]
        for comp, z in zip(self.comps, points):
            k = np.flatnonzero(comp.at[rows] >= 0)
            at, z = comp.at[rows[k]], z[k]
            base[k[:, None], comp.cols] += np.einsum("kc,kcv->kv", z,
                                                     comp.G[at])
            const[k] += np.einsum("kc,kc->k", z, comp.c[at])
        return base, const

    def start_cuts(self):
        """The master's first rows: every row at its components' Chebyshev
        centres, then the cuts of the pool it started from."""
        pairs = self.pairs[0]
        points = [np.vstack([np.broadcast_to(c.hull.x0,
                                             (self.L2, c.hull.x0.size)),
                             c.hull.vertices[pairs[:, 1 + j]]])
                  for j, c in enumerate(self.comps)]
        return self.rows_at(np.append(np.arange(self.L2), pairs[:, 0]),
                            points)

    def keep(self):
        """Write the pool back to the polytope (Polytope.cut_pools), for
        the next loop on a family like this one, its pairs sorted by row,
        then by vertex index."""
        # Sorted, not in the order found: HiGHS's answer on a master can
        # hang on its row order.  With the pool in the order found, sys2's
        # (T = 60) ESS feasibility master at rho = 0.375 ended unsolved,
        # warm and cold, and so did 9 of 20 random orders of its pool.
        if len(self.pairs) > 1:
            pairs = np.vstack(self.pairs)
            self.pairs = [pairs[np.lexsort(pairs.T[::-1])]]
            self.poly.cut_pools[self.key] = self.pairs[0]

    def separate(self, x):
        """The most violated vertex cut of every row that is violated by
        more than CUT_TOL at the master's point x and not yet in the pool,
        as rows_at gives them (None when there is none).  Scores every
        row against its components' vertex sets (_best_vertices), and
        keeps the rows' entries and best vertices for certify."""
        h = self.h @ x + self.h_const
        sup = np.zeros(self.L2)
        self.g = [comp.entries(x) for comp in self.comps]
        self.best = np.zeros((self.L2, len(self.comps)), dtype=int)
        for j, (comp, g) in enumerate(zip(self.comps, self.g)):
            self.best[comp.rows, j], top = _best_vertices(
                g, comp.hull.vertices)
            sup[comp.rows] += top
        new = [r for r in np.flatnonzero(sup - h > CUT_TOL * (1 + np.abs(h)))
               if (r, self.best[r].tobytes()) not in self.pool]
        if not new:
            return None
        self.pool.update((r, self.best[r].tobytes()) for r in new)
        new = np.array(new)
        self.pairs.append(np.column_stack([new, self.best[new]]))
        return self.rows_at(new, [c.hull.vertices[self.best[new, j]]
                                  for j, c in enumerate(self.comps)])

    def certify(self):
        """The Farkas multipliers of the last separated point, in the
        layout of the Farkas block: per row and component, the dual
        z = G_act^{-T} c of the best vertex's active faces, or the row
        duals of a support LP where that z is not a certificate.  Raises
        _NoCuts when a support LP beats every vertex."""
        Z = np.zeros(self.size)
        for j, (comp, c) in enumerate(zip(self.comps, self.g)):
            rows, hull = comp.rows, comp.hull
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


class _CutLoop:
    """solve(model) in one warm master, as a function of the value of the
    parameter param (LPModel.param_expr), or of nothing when param is None.

    A robust row holds over a component P_k iff it holds at every vertex of
    P_k (Mutapcic & Boyd, Optim. Methods Softw. 24, 2009), so the model's
    robust rows (model.robust) are replaced by cuts at vertices of their
    components (Polytope.hulls).  The master is the model's own LP, its
    blocks, bounds, objective and rows without the robust families, and
    each family is compiled once into arrays over the master's columns
    (_CutRows).  The master is one _WarmLP, which first gets the rows at
    each component's Chebyshev centre and the cuts pooled on the polytope
    by earlier loops (Polytope.cut_pools); every round adds the most
    violated vertex cut of each violated row (addRows), and a call
    rewrites the entries param scales, so the probes of one loop share its
    basis and its cut pool.  Those entries lie in the master's own rows
    alone, as in the ESS models' rows u - lambda v <= 0, and are found
    once, when the master is built: entries holds their (rows, cols,
    base, slope), base + p * slope at value p.  Once no cut is violated,
    every row's support is certified by Farkas multipliers
    (_CutRows.certify), which fill the model's Farkas block in the
    returned LPSolution: its values are a solution of the model itself.
    Then every family writes its pool back to the polytope
    (_CutRows.keep), for the next loop there.  An infeasible or failed
    call writes nothing back: with the cuts of infeasible calls pooled
    too, sys2's (T = 60) ESS feasibility master at rho = 0.4453125 of a
    rho bisection ended unsolved, warm and cold.

    The loop raises _NoCuts when built on a family it cannot cut (a
    component the family touches has no bounded, full-dimensional vertex
    set).  A model without robust rows (a point) is its own master: one
    master solve answers a call.  A call answers "numerical-failure", and
    logs a warning, when its master ends neither optimal nor infeasible,
    warm and then once more cold (from no basis), when it needs over
    MAX_ROUNDS master solves, or when a support LP beats every vertex.  A
    warm master run stops after MASTER_ITERATION_LIMIT simplex
    iterations, so a warm solve that wanders reaches the cold one, which
    runs uncapped.  cuts counts the vertex cuts the loop's rounds added
    (not those it started from) and rounds the master solves of the last
    call.  Needs scipy's HiGHS module.
    """

    def __init__(self, model, param=None):
        self.param = param
        self.master = copy.copy(model)
        self.master.robust = {}
        self.families = [_CutRows(family, self.master)
                         for family in model.robust.values()]
        self.lp = _WarmLP(*self.master.assemble())
        self.lp.cap_iterations(MASTER_ITERATION_LIMIT)
        if param is not None:
            rows, cols, base, slope = self.master._entries(
                self.master._ineqs, param)
            shape = (self.master.num_ineq_rows, self.master._offsets()[1])
            flat = rows * shape[1] + cols
            base, slope = (_summed(flat, a, shape) for a in (base, slope))
            rows, cols = np.nonzero(slope)
            self.entries = rows, cols, base[rows, cols], slope[rows, cols]
        if self.families:
            self._add([family.start_cuts() for family in self.families])
        self.cuts, self.rounds = 0, 0

    def _add(self, blocks):
        """Append the rows of the rows_at blocks; returns their count."""
        base, const = (np.concatenate(part) for part in zip(*blocks))
        rows, cols = np.nonzero(base)
        indptr = np.append(0, np.cumsum(np.count_nonzero(base, axis=1)))
        self.lp.add_rows(indptr, cols, base[rows, cols], -const)
        return len(base)

    def __call__(self, value=None):
        if self.param is not None:
            rows, cols, base, slope = self.entries
            self.lp.set_coeffs(rows, cols, base + slope * value)
        try:
            for self.rounds in range(1, MAX_ROUNDS + 1):
                status, x, _ = self.lp.run()
                if status not in ("optimal", "infeasible"):
                    # A warm start can fail, or hit its iteration cap,
                    # where a cold solve answers: sys2's ESS min-lambda
                    # probe at 0.966796875 (rho = 0.7, T = 60).
                    self.lp.forget_basis()
                    self.lp.cap_iterations()
                    status, x, _ = self.lp.run()
                    self.lp.cap_iterations(MASTER_ITERATION_LIMIT)
                if status == "infeasible":
                    return LPSolution(status, None)
                if status != "optimal":
                    raise _NoCuts(f"a master LP ended {status}")
                new = [cut for cut in (f.separate(x) for f in self.families)
                       if cut is not None]
                if not new:
                    values = self.master.split(x)
                    values.update((f.name, f.certify())
                                  for f in self.families)
                    for f in self.families:
                        f.keep()
                    return LPSolution("optimal", values)
                self.cuts += self._add(new)
            raise _NoCuts(f"no answer after {MAX_ROUNDS} master solves")
        except _NoCuts as why:
            logger.warning("no answer at %s=%r: %s", self.param, value, why)
            return LPSolution("numerical-failure", None)


def solver(model, param=None):
    """solve(model) as a function of the value of parameter param
    (LPModel.param_expr), or of nothing when param is None.

    The path is picked here, once: one _CutLoop, whose probes rewrite only
    the entries param scales in the model's own rows, when every robust
    row family can be cut; else, its reason logged, a fresh solve at
    every call (set model.params[param], then solve(model)).  That is the
    reference path, which every call takes without scipy's HiGHS module.
    """

    def fresh(value=None):
        if param is not None:
            model.params[param] = value
        return solve(model)

    if _highs is None:
        return fresh
    try:
        return _CutLoop(model, param)
    except _NoCuts as why:
        logger.info("solving fresh: %s", why)
        return fresh
