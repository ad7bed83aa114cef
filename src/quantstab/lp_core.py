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
change between warm re-solves.  The support LPs of pruning and of the
audit use it through _SupportSession (new costs, one changed row bound),
and the ESS min-lambda bisection through param_solver: a model built
with a scalar parameter (LPModel.param_expr) is assembled once, and each
probe rewrites only the entries the parameter scales.  This module alone
picks the path: without scipy's private HiGHS module (_highs None) every
LP is a fresh solve through DEFAULT_BACKEND, the reference path.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

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

    def param_entries(self, param):
        """(rows, cols, base, slope) of every constraint matrix entry that
        parameter param scales: at parameter value p the entry is
        base + slope * p, base being the sum of its other terms.  Rows
        count the A_ub rows of assemble() first, then its A_eq rows."""
        offsets, nvar = self._offsets()
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


def _farkas_rows(model, poly, G2_expr, h2_expr, name):
    """The multiplier block of add_farkas_block; returns the (L2 x size)
    matrix mapping it to the certified sups Z h1 of the rows."""
    L1, d = poly.G.shape
    L2 = h2_expr.rows
    if G2_expr.rows != L2 * d:
        raise ValueError("G2 expression must have L2 * d rows (row-major)")
    face_comp, col_comp = poly.components
    comps = np.arange(col_comp.max(initial=-1) + 1)[:, None]
    col_of, face_of = col_comp == comps, face_comp == comps
    touched = _row_support(G2_expr).reshape(L2, d) @ col_of.T
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
    G z over unc (Z h1 for a polytope, G z0 for a point).
    """
    if isinstance(unc, Polytope):
        Zh = _farkas_rows(model, unc, G_expr, h_expr, name)
        model.row_sups[name] = lambda values: Zh @ values[name]
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
