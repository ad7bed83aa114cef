"""Interval-quantized transition data and the plant-consistency polytope.

A data sample records a state x_hat, an applied input u_hat, and interval
bounds [p, q] on the resulting next state (entries may be infinite when the
transition landed in an unbounded partition bin).  The set of plants (A, B)
consistent with all samples,

    P = {(A, B) : p_s <= A x_hat_s + B u_hat_s <= q_s  for all s},

is a polytope in z = [vec(A); vec(B)] via the identity
vec(P X Q) = (Q^T kron P) vec(X); vectorization is column-major throughout.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .lp_core import (Polytope, _best_vertices, _pruned, _require_nonempty,
                      _SupportSession)
from .quantizer import interval_quantize

logger = logging.getLogger(__name__)

PRUNE_TOL = 1e-8
# The dual hull drops a face only this far below its bound, far above
# PRUNE_TOL, so that qhull's rounding never decides a face the LPs keep.
HULL_MARGIN = 1e-6
CONTAIN_TOL = 1e-9
# generate_dataset draws states and inputs uniformly from [-HALFWIDTH,
# HALFWIDTH].
HALFWIDTH = 2.0

__all__ = [
    "DataSample",
    "Dataset",
    "generate_dataset",
    "build_polytope",
    "plant_vec",
    "singleton_polytope",
    "contains_plant",
    "prune_redundant",
]


@dataclass(frozen=True)
class DataSample:
    """One observed transition: bounds p <= A x_hat + B u_hat <= q."""

    x_hat: np.ndarray
    u_hat: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x_hat, dtype=float))
        u = np.atleast_1d(np.asarray(self.u_hat, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if p.shape != x.shape or q.shape != x.shape:
            raise ValueError("p, q must have state dimension")
        both = np.isfinite(p) & np.isfinite(q)
        if np.any(p[both] > q[both]):
            raise ValueError("lower bounds exceed upper bounds")
        for name, arr in (("x_hat", x), ("u_hat", u)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "u_hat", u)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class Dataset:
    """Collection of transition samples plus a declared noise radius.

    epsilon is the L-infinity bound on process noise during collection;
    build_polytope widens every finite interval bound by epsilon so that the
    generating plant is always a member of the consistency set.
    """

    samples: tuple
    epsilon: float = 0.0
    meta: dict = field(default=None, compare=False)

    def __post_init__(self):
        samples = tuple(self.samples)
        if self.epsilon < 0:
            raise ValueError("noise radius must be nonnegative")
        if samples:
            n, m = samples[0].x_hat.size, samples[0].u_hat.size
            for s in samples:
                if s.x_hat.size != n or s.u_hat.size != m:
                    raise ValueError("samples must share dimensions")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    def __len__(self):
        return len(self.samples)

    @property
    def n(self):
        return self.samples[0].x_hat.size

    @property
    def m(self):
        return self.samples[0].u_hat.size

    def to_json_dict(self):
        def clean(vec):
            return [None if not np.isfinite(x) else float(x) for x in vec]
        d = {
            "epsilon": self.epsilon,
            "samples": [{"x": s.x_hat.tolist(), "u": s.u_hat.tolist(),
                         "p": clean(s.p), "q": clean(s.q)}
                        for s in self.samples],
        }
        if self.meta is not None:
            d["meta"] = self.meta
        return d

    @classmethod
    def from_json_dict(cls, d):
        def unclean(vals, sign):
            return np.array([sign * np.inf if v is None else float(v)
                             for v in vals])
        samples = [DataSample(x_hat=np.asarray(s["x"], dtype=float),
                              u_hat=np.asarray(s["u"], dtype=float),
                              p=unclean(s["p"], -1.0),
                              q=unclean(s["q"], +1.0))
                   for s in d["samples"]]
        return cls(samples, float(d.get("epsilon", 0.0)), d.get("meta"))


def generate_dataset(sys, partition, T, seed, noise=0.0):
    """Draw T random transitions of sys and bin the next states.

    States and inputs are i.i.d. uniform on [-HALFWIDTH, HALFWIDTH] from a
    seeded generator, so the same seed reproduces the same dataset.  With
    noise > 0 a uniform disturbance w, |w|_inf <= noise, is added to each
    transition and recorded as the dataset's epsilon.
    """
    if T < 0:
        raise ValueError("sample count must be nonnegative")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(int(T)):
        x = rng.uniform(-HALFWIDTH, HALFWIDTH, sys.n)
        u = rng.uniform(-HALFWIDTH, HALFWIDTH, sys.m)
        xplus = sys.A @ x + sys.B @ u
        if noise > 0:
            xplus = xplus + rng.uniform(-noise, noise, sys.n)
        bounds = [interval_quantize(val, partition) for val in xplus]
        p = np.array([b[0] for b in bounds])
        q = np.array([b[1] for b in bounds])
        samples.append(DataSample(x, u, p, q))
    meta = {"seed": int(seed), "T": int(T), "noise": float(noise),
            "excitation": {"x_halfwidth": HALFWIDTH,
                           "u_halfwidth": HALFWIDTH},
            "partition": partition.to_json_dict()}
    return Dataset(samples, epsilon=float(noise), meta=meta)


def build_polytope(dataset):
    """Consistency polytope over z = [vec(A); vec(B)] in R^{n(n+m)}.

    Each sample contributes the rows

        +(x_hat^T kron I_n | u_hat^T kron I_n) z <= q + epsilon
        -(x_hat^T kron I_n | u_hat^T kron I_n) z <= -(p - epsilon)

    with rows carrying an infinite bound omitted, so the face count L is at
    most 2 n N_s.
    """
    if len(dataset) == 0:
        raise ValueError("cannot build a polytope from an empty dataset")
    n, eps, samples = dataset.n, dataset.epsilon, dataset.samples
    w = np.array([np.concatenate([s.x_hat, s.u_hat]) for s in samples])
    p = np.array([s.p for s in samples])
    q = np.array([s.q for s in samples])
    # block[s, i] is row i of (w_s^T kron I_n); each is followed by its
    # negation, as the bounds q and p of state i follow each other
    block = (w[:, None, :, None] * np.eye(n)[None, :, None, :]).reshape(
        len(w), n, -1)
    G = np.stack([block, -block], axis=2)
    h = np.stack([q + eps, -(p - eps)], axis=2)
    finite = np.stack([np.isfinite(q), np.isfinite(p)], axis=2)
    return Polytope(G=G[finite], h=h[finite])


def plant_vec(A, B):
    """Column-major stacked vector z = [vec(A); vec(B)]."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return np.concatenate([A.flatten(order="F"), B.flatten(order="F")])


def singleton_polytope(sys):
    """Equality-tight polytope pinning exactly one plant."""
    z = plant_vec(sys.A, sys.B)
    eye = np.eye(z.size)
    return Polytope(G=np.vstack([eye, -eye]), h=np.concatenate([z, -z]))


def contains_plant(poly, A, B):
    """Membership test of a plant in the consistency polytope, to within
    CONTAIN_TOL on every face."""
    z = plant_vec(A, B)
    if z.size != poly.dim:
        raise ValueError("plant dimensions do not match the polytope")
    return bool(np.all(poly.G @ z <= poly.h + CONTAIN_TOL))


def _hull_verdicts(hull):
    """(drop, keep): masks of the faces of a component that its dual hull
    (lp_core._DualHull, from Polytope.hulls) settles by more than
    HULL_MARGIN, so that the LP test of prune_redundant would drop,
    respectively keep, each of them whatever faces it has dropped before.

    A face is dropped when its support over the vertices is below h_r by
    more than HULL_MARGIN.  The faces are scored by the cut engine's
    blocked scorer (lp_core._best_vertices), whose blocks of SCORE_BLOCK
    scores keep the whole faces-by-vertices product (29 MB on sys2/T=350)
    out of memory.

    A face is kept when a witness point violates it by more than
    HULL_MARGIN while it satisfies every other face of the component: the
    LP test's feasible set, its retained faces with r's bound raised to
    h_r + 1, contains every such point with G_r y <= h_r + 1.  With dual
    points p = G / s, s = h - G x0, take for face r one facet a y = 1 whose
    simplex holds it, M the facet's points and r the j-th of them, and
    w = 2 (M^-1)[:, j] - a, so that p_r w = 1 and the facet's other points
    give p w = -1.  Then y = x0 + a + (delta / 2) w, with delta the least
    (1 - p a) / (p w) over the other points where p w > 0, capped at
    1 / s_r, violates face r by s_r delta / 2 and satisfies every other
    face.  Exact, scaled and near duplicates and faces within PRUNE_TOL of
    another give delta near 0, so the LP test decides those near-ties,
    and which of two equal faces stays; a singular M sends every face of
    the component that is not dropped to the LP test.
    """
    drop = hull.h - _best_vertices(hull.G, hull.vertices)[1] > HULL_MARGIN
    keep = np.zeros_like(drop)
    s = hull.h - hull.G @ hull.x0
    P = hull.G / s[:, None]
    # the first facet of each face spanning a vertex: a dense facets x
    # faces array would take tens of MB on sys2/T=350, and np.unique's
    # sort of the simplices took 67 ms on a 56,000-facet hull
    flat = hull.simplices.ravel()
    first = np.full(s.size, flat.size)
    np.minimum.at(first, flat, np.arange(flat.size))
    faces = np.flatnonzero(first < flat.size)
    facet, j = np.divmod(first[faces], hull.simplices.shape[1])
    a = hull.vertices[facet] - hull.x0
    try:
        inv = np.linalg.solve(P[hull.simplices[facet]],
                              np.eye(hull.cols.size)[j][..., None])[..., 0]
    except np.linalg.LinAlgError:
        return drop, keep
    w = 2.0 * inv - a
    pw, pa = P @ w.T, P @ a.T
    ratio = np.full(pw.shape, np.inf)
    np.divide(1.0 - pa, pw, out=ratio, where=pw > 0)
    own = faces, np.arange(faces.size)
    ratio[own] = np.inf
    delta = np.minimum(ratio.min(axis=0, initial=np.inf), 1.0 / s[faces])
    # G_r y - h_r at the witness, from the computed products, so that an
    # inaccurate or non-finite M^-1 keeps nothing
    keep[faces] = s[faces] * (pa[own] - 1.0 + delta / 2 * pw[own]) \
        > HULL_MARGIN
    return drop, keep


def prune_redundant(poly):
    """Drop rows implied by the others, keeping the same feasible set.

    Sequential support-function test inside each component of the
    face-column pattern (Polytope.components), over that component's faces
    and columns only: row r is redundant when maximizing G_r x over the
    component's remaining retained rows cannot exceed h_r + PRUNE_TOL.  The
    polytope is the product of its components' sets, so on a nonempty
    polytope this is the test over all retained rows; an all-zero face
    (0 <= h_r) is always redundant.  Where a component has a dual hull
    (Polytope.hulls), the hull settles the clear cases both ways first,
    without an LP (_hull_verdicts): it drops the faces whose support is
    below h_r, and keeps those a witness point violates, each by more than
    HULL_MARGIN.  Only the rest, the near-ties, go to the LP test.  Each
    component with such faces is one support session
    (lp_core._SupportSession): row r is tested with its bound raised to
    h_r + 1, which keeps the LP bounded without changing the verdict, and
    is then freed when redundant or restored otherwise.  Rows are tested
    in order, and the retained rows keep their original order, so the
    result is deterministic and the same as the LP test's alone.  The
    result is the same set, so it inherits the nonemptiness check and,
    where they carry over, the dual hulls (lp_core._pruned).  An empty
    polytope raises ValueError, and a failed nonemptiness LP SolverError.
    """
    L = poly.num_faces
    if L == 0:
        return poly
    # Pruning an empty polytope is a caller error.
    _require_nonempty(poly)
    face_comp, col_comp = poly.components
    keep = np.zeros(L, dtype=bool)
    for k, hull in enumerate(poly.hulls):
        faces = np.flatnonzero(face_comp == k)
        G, h = poly.G[np.ix_(faces, col_comp == k)], poly.h[faces]
        if hull is None:
            drop = kept = np.zeros(faces.size, dtype=bool)
        else:
            drop, kept = _hull_verdicts(hull)
        logger.debug("dual hull dropped %d and kept %d faces", drop.sum(),
                     kept.sum())
        faces, G, h, kept = faces[~drop], G[~drop], h[~drop], kept[~drop]
        keep[faces[kept]] = True
        if kept.all():
            continue
        session = _SupportSession(G, h)
        for r in np.flatnonzero(~kept):
            session.set_upper(r, h[r] + 1.0)
            support, _ = session.maximize(G[r])
            if support <= h[r] + PRUNE_TOL:
                session.set_upper(r, np.inf)
                logger.debug("pruned face %d (support %.3e <= %.3e)",
                             faces[r], support, h[r])
            else:
                session.set_upper(r, h[r])
                keep[faces[r]] = True
    return _pruned(poly, keep)
