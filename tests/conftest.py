"""Shared fixtures: the two built-in benchmark plants and small helpers."""

from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import linprog

from quantstab import (
    LinearSystem,
    Partition,
    Polytope,
    builtin_partition,
    builtin_system,
    lp_core,
)
from quantstab.lp_core import AffExpr, LPModel, add_robust_rows, solve


@pytest.fixture(scope="session")
def sys1():
    """3-state 2-input open-loop-unstable benchmark plant."""
    return builtin_system("sys1")


@pytest.fixture(scope="session")
def sys2():
    """5-state 3-input benchmark plant with a structured A."""
    return builtin_system("sys2")


@pytest.fixture(scope="session")
def part1():
    """Unit-step partition on [-4, 4]."""
    return builtin_partition("p1")


@pytest.fixture(scope="session")
def part2():
    """Half-step partition on [-6, 6]."""
    return builtin_partition("p2")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@contextmanager
def fresh_solves(backend=None):
    """Inside, every LP is a fresh solve through lp_core.DEFAULT_BACKEND,
    as on a scipy without its HiGHS module (lp_core._highs None): the
    reference path of the warm models.  A backend given is installed as
    DEFAULT_BACKEND, so that it sees every LP."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_core, "_highs", None)
        if backend is not None:
            patch.setattr(lp_core, "DEFAULT_BACKEND", backend)
        yield


def farkas_status(P1, P2):
    """Status of the Farkas LP certifying that the nonempty P1 lies in
    P2: P2's faces as constant robust rows over P1, solved fresh.
    "optimal" exactly when P1 is a subset of P2."""
    model = LPModel()
    add_robust_rows(model, P1, AffExpr(P2.G.size, const=P2.G.ravel()),
                    AffExpr(P2.num_faces, const=P2.h), "Z")
    return solve(model).status


class InteriorPoint(lp_core.LinprogBackend):
    """A fresh solve by HiGHS's interior-point method: a reference for LPs
    near a feasibility boundary, where the default simplex can end in a
    numerical failure."""

    def solve(self, c, A_ub, b_ub, A_eq, b_eq, bounds):
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method="highs-ipm")
        status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
            res.status, "numerical-failure")
        if status != "optimal":
            return status, None, None
        return status, res.x, float(res.fun)


def random_stabilizable_system(rng, n, m, scale=0.6):
    """A random plant whose open loop is already mildly contractive-ish.

    Drawn so that synthesis problems are usually (not always) feasible at
    moderate densities; used by cross-validation sweeps that only need
    agreement between two methods, not feasibility per se.
    """
    A = scale * rng.uniform(-1.0, 1.0, size=(n, n))
    B = rng.uniform(-1.0, 1.0, size=(n, m))
    return LinearSystem(A=A, B=B)


def box_polytope(center, halfwidth):
    """Axis-aligned box as a face representation."""
    center = np.asarray(center, dtype=float)
    halfwidth = np.asarray(halfwidth, dtype=float)
    d = center.size
    G = np.vstack([np.eye(d), -np.eye(d)])
    h = np.concatenate([center + halfwidth, -(center - halfwidth)])
    return Polytope(G=G, h=h)


def random_separable_polytope(rng, A, B, halfwidth=0.5):
    """A bounded polytope over z = [vec(A); vec(B)] that is a product of
    one set per row of [A B], like a data polytope, and contains (A, B).

    Row i gets a box of the given halfwidth around its entries and one to
    four random faces at a random margin from them; the faces of all rows
    are then shuffled together.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    z = np.concatenate([A.flatten(order="F"), B.flatten(order="F")])
    d = z.size
    G, h = [], []
    for i in range(n):
        cols = np.arange(i, d, n)          # row i of [A B], column-major
        k = cols.size
        extra = int(rng.integers(1, 5))
        local = np.vstack([np.eye(k), -np.eye(k), rng.normal(size=(extra, k))])
        margin = np.concatenate([np.full(2 * k, halfwidth),
                                 rng.uniform(0.1, 1.0, extra) * halfwidth])
        rows = np.zeros((local.shape[0], d))
        rows[:, cols] = local
        G.append(rows)
        h.append(local @ z[cols] + margin)
    order = rng.permutation(sum(g.shape[0] for g in G))
    return Polytope(G=np.vstack(G)[order], h=np.concatenate(h)[order])
