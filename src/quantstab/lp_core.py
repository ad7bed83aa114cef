"""LP model assembly, solver backend contract, and polytope oracles.

Every optimization problem in this package is assembled as an LPModel over
named variable blocks and handed to a pluggable backend (the default wraps
scipy's HiGHS interface).  The module also provides the containment
machinery used by the synthesizers: add_farkas_block encodes the extended
Farkas condition

    {x | G1 x <= h1} subset of {x | G2 x <= h2}
        iff  exists Z >= 0 with Z G1 = G2 and Z h1 <= h2,

and enumerate_vertices / check_containment_bruteforce give an independent
brute-force oracle for small dimensions.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

ABS_TOL = 1e-7
VERTEX_DEDUP_TOL = 1e-7
MAX_VERTEX_DIM = 6

__all__ = [
    "Polytope",
    "AffExpr",
    "LPModel",
    "LPSolution",
    "LinprogBackend",
    "solve",
    "add_farkas_block",
    "add_robust_rows",
    "enumerate_vertices",
    "check_containment_bruteforce",
    "max_linear_over_polytope",
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
        self.farkas_blocks = []    # (zname, L2, L1) bookkeeping
        self.row_sups = {}         # robust row name -> values -> sup_z G z

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

    def _stack(self, exprs, nvar, offsets):
        """One CSR matrix from every expression's COO triplets, each term
        shifted to its expression's first row and its block's first
        column, plus the stacked constants."""
        nrows = sum(e.rows for e in exprs)
        if nrows == 0:
            return None, None
        rows, cols = [np.zeros(0, int)], [np.zeros(0, int)]
        vals = [np.zeros(0)]
        at = 0
        for e in exprs:
            for name, coeff in e.terms.items():
                coo = coeff.tocoo()
                rows.append(coo.row + at)
                cols.append(coo.col + offsets[name])
                vals.append(coo.data)
            at += e.rows
        A = sp.csr_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(nrows, nvar))
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

    def split(self, x):
        offsets, _ = self._offsets()
        return {name: x[offsets[name]:offsets[name] + self.blocks[name][0]]
                for name in self._order}


class LinprogBackend:
    """Default backend: scipy.optimize.linprog with the HiGHS solver."""

    def __init__(self, method="highs"):
        self.method = method

    def solve(self, c, A_ub, b_ub, A_eq, b_eq, bounds):
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method=self.method)
        status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
            res.status, "numerical-failure")
        x = res.x if status == "optimal" else None
        obj = float(res.fun) if status == "optimal" else None
        return status, x, obj


DEFAULT_BACKEND = LinprogBackend()


def solve(model, backend=None):
    """Solve an LPModel, returning an LPSolution.  Solver trouble arrives
    as the backend's status ('numerical-failure' and so on); an exception
    the backend raises is a fault and propagates."""
    backend = backend or DEFAULT_BACKEND
    c, A_ub, b_ub, A_eq, b_eq, bounds = model.assemble()
    status, x, obj = backend.solve(c, A_ub, b_ub, A_eq, b_eq, bounds)
    if status != "optimal":
        return LPSolution(status, None, None)
    return LPSolution("optimal", model.split(x), obj)


def add_farkas_block(model, G1, h1, G2_expr, h2_expr, name=None):
    """Add multipliers certifying {G1 x <= h1} subset of {G2 x <= h2}.

    G2_expr holds the L2 x d left-hand side flattened row-major into an
    AffExpr of L2*d rows (entries may be affine in model variables);
    h2_expr is an AffExpr of L2 rows.  Adds a nonnegative block Z of shape
    L2 x L1 (flattened row-major) with

        Z G1 = G2   (L2 * d equality rows)
        Z h1 <= h2  (L2 inequality rows)

    and returns the Z block name.
    """
    G1 = np.atleast_2d(np.asarray(G1, dtype=float))
    h1 = np.atleast_1d(np.asarray(h1, dtype=float))
    L1, d = G1.shape
    if h1.size != L1:
        raise ValueError("G1 and h1 face counts differ")
    if not isinstance(G2_expr, AffExpr):
        arr = np.atleast_2d(np.asarray(G2_expr, dtype=float))
        G2_expr = AffExpr(arr.size, const=arr.reshape(-1))
    if not isinstance(h2_expr, AffExpr):
        arr = np.atleast_1d(np.asarray(h2_expr, dtype=float))
        h2_expr = AffExpr(arr.size, const=arr)
    L2 = h2_expr.rows
    if G2_expr.rows != L2 * d:
        raise ValueError("G2 expression must have L2 * d rows (row-major)")
    if name is None:
        name = f"Z{len(model.farkas_blocks)}"
    model.add_block(name, L2 * L1, lb=0.0)
    # Row-major flattening of Z G1 is (I_{L2} kron G1^T) vec_rm(Z).
    prod = sp.kron(sp.eye(L2), sp.csr_matrix(G1.T), format="csr")
    model.add_eq(AffExpr(L2 * d, {name: prod}) - G2_expr)
    zh = sp.kron(sp.eye(L2), sp.csr_matrix(h1.reshape(1, L1)), format="csr")
    model.add_ineq(AffExpr(L2, {name: zh}) - h2_expr)
    model.farkas_blocks.append((name, L2, L1))
    return name


def add_robust_rows(model, unc, G_expr, h_expr, name):
    """Require G z <= h rowwise for every z in the uncertainty set unc.

    G_expr and h_expr are as in add_farkas_block.  unc is either a Polytope,
    which gets a Farkas multiplier block named name, or one point z0, whose
    rows are substituted (G z0 <= h) with no multipliers: a robust
    counterpart is built row by row, so a point needs none.  Records
    model.row_sups[name], a function of the solved block values returning
    the certified sup of G z over unc (Z h1 for a polytope, G z0 for a
    point).
    """
    if isinstance(unc, Polytope):
        add_farkas_block(model, unc.G, unc.h, G_expr, h_expr, name=name)
        shape = (h_expr.rows, unc.num_faces)
        model.row_sups[name] = \
            lambda values: values[name].reshape(shape) @ unc.h
    else:
        Gz = G_expr.premul(sp.kron(sp.eye(h_expr.rows), unc[None, :]))
        model.add_ineq(Gz - h_expr)
        model.row_sups[name] = Gz.value


def max_linear_over_polytope(c, poly, backend=None, return_point=False):
    """Support value max c^T x over the polytope.

    Returns +inf when the maximization is unbounded; raises ValueError on an
    infeasible (empty) polytope.  With return_point the maximizer is
    returned alongside the value (None when unbounded).
    """
    backend = backend or DEFAULT_BACKEND
    c = np.atleast_1d(np.asarray(c, dtype=float))
    bounds = np.column_stack([np.full(poly.dim, -np.inf),
                              np.full(poly.dim, np.inf)])
    status, x, obj = backend.solve(-c, poly.G, poly.h, None, None, bounds)
    if status == "optimal":
        return (-obj, x) if return_point else -obj
    if status == "unbounded":
        return (np.inf, None) if return_point else np.inf
    if status == "infeasible":
        raise ValueError("support function of an empty polytope")
    raise RuntimeError(f"support LP failed with status {status}")


def _recession_unbounded(poly, tol=1e-9):
    """True when the recession cone {G y <= 0} contains a nonzero ray."""
    d = poly.dim
    box = np.column_stack([-np.ones(d), np.ones(d)])
    for j in range(d):
        for sgn in (1.0, -1.0):
            c = np.zeros(d)
            c[j] = -sgn
            status, x, obj = DEFAULT_BACKEND.solve(
                c, poly.G, np.zeros(poly.num_faces), None, None, box)
            if status == "optimal" and -obj > tol:
                return True
    return False


def enumerate_vertices(poly, tol=ABS_TOL):
    """All vertices of a bounded polytope in dimension at most 6.

    Brute force over d-subsets of faces: solve each square subsystem, keep
    solutions feasible for every face, and deduplicate.  Intended as a test
    oracle, not for production-size polytopes.
    """
    d = poly.dim
    if d > MAX_VERTEX_DIM:
        raise ValueError(f"vertex enumeration limited to dimension {MAX_VERTEX_DIM}")
    if _recession_unbounded(poly):
        raise ValueError("polytope is unbounded")
    G, h = poly.G, poly.h
    verts = []
    for rows in itertools.combinations(range(poly.num_faces), d):
        Gsub = G[list(rows)]
        if np.linalg.matrix_rank(Gsub, tol=1e-10) < d:
            continue
        x = np.linalg.solve(Gsub, h[list(rows)])
        if np.all(G @ x <= h + tol):
            if not any(np.max(np.abs(x - w)) <= VERTEX_DEDUP_TOL for w in verts):
                verts.append(x)
    return verts


def check_containment_bruteforce(P1, P2, tol=ABS_TOL):
    """True when every vertex of bounded P1 satisfies P2's inequalities."""
    for x in enumerate_vertices(P1):
        if not np.all(P2.G @ x <= P2.h + tol):
            return False
    return True
