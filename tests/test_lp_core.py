"""LP layer: model assembly, solver paths, containment certificates."""

import numpy as np
import pytest

from quantstab import Polytope, lp_core, max_linear_over_polytope
from quantstab.lp_core import (AffExpr, LPModel, SolverError,
                               _require_nonempty, _SupportSession,
                               add_robust_rows, solve, solver)

from conftest import (box_polytope, farkas_status, fresh_solves,
                      random_separable_polytope)
from oracles import check_containment_bruteforce, enumerate_vertices


def _scalar_model(lb=None, ub=None, objective=None):
    model = LPModel()
    model.add_block("x", 1, lb=lb, ub=ub)
    if objective is not None:
        model.set_objective(AffExpr(1, {"x": [[objective]]}))
    return model


def test_solve_simple_minimum():
    model = _scalar_model(lb=1.0, objective=1.0)
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.values["x"][0] == pytest.approx(1.0)


def test_solve_detects_infeasible():
    model = _scalar_model(lb=1.0)
    # x <= 0 contradicts the bound x >= 1
    model.add_ineq(model.identity_expr("x"))
    sol = solve(model)
    assert sol.status == "infeasible"
    assert sol.values is None


def test_solve_detects_unbounded():
    model = _scalar_model(lb=0.0, objective=-1.0)
    sol = solve(model)
    assert sol.status == "unbounded"


def test_solve_deterministic():
    rng = np.random.default_rng(5)
    c = rng.normal(size=4)
    objectives = []
    for _ in range(2):
        model = LPModel()
        model.add_block("x", 4, lb=-1.0, ub=1.0)
        expr = model.identity_expr("x")
        model.set_objective(expr.premul(c.reshape(1, 4)))
        sol = solve(model)
        objectives.append(c @ sol.values["x"])
    assert abs(objectives[0] - objectives[1]) <= 1e-9


def test_affexpr_evaluation_matches_assembly():
    model = LPModel()
    model.add_block("x", 3)
    model.add_block("y", 2)
    ex = model.identity_expr("x")
    ey = model.identity_expr("y")
    P = np.arange(6.0).reshape(2, 3)
    combo = ex.premul(P) + ey.premul(2.0 * np.eye(2)) - np.array([1.0, 1.0])
    assignment = {"x": np.array([1.0, -2.0, 0.5]), "y": np.array([3.0, 4.0])}
    expect = P @ assignment["x"] + 2.0 * assignment["y"] - 1.0
    np.testing.assert_allclose(combo.value(assignment), expect)


def test_assembly_places_terms_at_block_offsets(rng):
    # expressions skip blocks and list their terms out of block order
    model = LPModel()
    for name, size in (("a", 2), ("b", 3), ("c", 1), ("d", 4)):
        model.add_block(name, size)
    exprs = [
        AffExpr(3, {"c": rng.normal(size=(3, 1)),
                    "a": rng.normal(size=(3, 2))}, rng.normal(size=3)),
        AffExpr(2, {"d": rng.normal(size=(2, 4))}, rng.normal(size=2)),
        AffExpr(1, {}, rng.normal(size=1)),
        AffExpr(4, {"b": rng.normal(size=(4, 3)),
                    "d": rng.normal(size=(4, 4))}),
    ]
    for e in exprs:
        model.add_ineq(e)
    c, A_ub, b_ub, A_eq, b_eq, bounds = model.assemble()
    assert A_ub.shape == (10, 10) and A_eq is None and b_eq is None
    x = rng.normal(size=10)
    values = model.split(x)
    np.testing.assert_allclose(
        A_ub @ x - b_ub, np.concatenate([e.value(values) for e in exprs]),
        atol=1e-12)


def test_backend_exceptions_propagate(monkeypatch):
    class Broken:
        def solve(self, c, A_ub, b_ub, A_eq, b_eq, bounds):
            raise TypeError("bad backend")

    monkeypatch.setattr(lp_core, "DEFAULT_BACKEND", Broken())
    with pytest.raises(TypeError):
        solve(_scalar_model(lb=1.0, objective=1.0))


# ---------------------------------------------------------------------------
# Farkas containment blocks


def test_farkas_block_interval_inclusion():
    # containment of {x <= 1} in {x <= 2}: constant data
    unit = Polytope(G=np.array([[1.0]]), h=np.array([1.0]))
    two = Polytope(G=np.array([[1.0]]), h=np.array([2.0]))
    assert farkas_status(unit, two) == "optimal"


def test_farkas_block_rejects_reversed_inclusion():
    unit = Polytope(G=np.array([[1.0]]), h=np.array([1.0]))
    two = Polytope(G=np.array([[1.0]]), h=np.array([2.0]))
    assert farkas_status(two, unit) == "infeasible"


def test_farkas_matches_bruteforce_oracle(rng):
    agree = 0
    for trial in range(30):
        d = int(rng.integers(1, 4))
        P1 = _random_bounded_polytope(rng, d)
        P2 = _random_bounded_polytope(rng, d)
        truth = check_containment_bruteforce(P1, P2)
        by_farkas = farkas_status(P1, P2) == "optimal"
        assert by_farkas == truth, f"trial {trial}: {by_farkas} vs {truth}"
        agree += 1
    assert agree == 30


def _random_bounded_polytope(rng, d, extra=3):
    center = rng.uniform(-1.0, 1.0, size=d)
    half = rng.uniform(0.5, 2.0, size=d)
    box = box_polytope(center, half)
    dirs = rng.normal(size=(extra, d))
    offs = dirs @ center + rng.uniform(0.3, 2.5, size=extra)
    return Polytope(G=np.vstack([box.G, dirs]),
                    h=np.concatenate([box.h, offs]))


# ---------------------------------------------------------------------------
# brute-force oracles


def test_vertex_enumeration_box_and_simplex():
    box = box_polytope(np.zeros(2), np.ones(2))
    verts = enumerate_vertices(box)
    assert len(verts) == 4
    simplex = Polytope(G=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                       h=np.array([0.0, 0.0, 1.0]))
    assert len(enumerate_vertices(simplex)) == 3


def test_vertex_enumeration_self_consistent(rng):
    for _ in range(10):
        P = _random_bounded_polytope(rng, 3)
        for vtx in enumerate_vertices(P):
            assert np.all(P.G @ vtx <= P.h + 1e-7)


def test_vertex_enumeration_guards():
    unbounded = Polytope(G=np.array([[1.0, 0.0]]), h=np.array([1.0]))
    with pytest.raises(ValueError):
        enumerate_vertices(unbounded)
    big = box_polytope(np.zeros(7), np.ones(7))
    with pytest.raises(ValueError):
        enumerate_vertices(big)


def test_bruteforce_containment_boxes():
    small = box_polytope(np.zeros(2), np.ones(2))
    big = box_polytope(np.zeros(2), 2.0 * np.ones(2))
    assert check_containment_bruteforce(small, big)
    assert not check_containment_bruteforce(big, small)


# ---------------------------------------------------------------------------
# support function


def test_support_on_interval():
    seg = box_polytope(np.zeros(1), np.ones(1))
    assert max_linear_over_polytope(np.array([1.0]), seg) == pytest.approx(1.0)
    assert max_linear_over_polytope(np.array([0.0]), seg) == pytest.approx(0.0)


def test_support_closed_form_on_boxes(rng):
    for _ in range(20):
        d = int(rng.integers(1, 5))
        center = rng.uniform(-2, 2, size=d)
        half = rng.uniform(0.1, 3, size=d)
        c = rng.normal(size=d)
        val = max_linear_over_polytope(c, box_polytope(center, half))
        assert val == pytest.approx(np.abs(c) @ half + c @ center, abs=1e-7)


def test_support_reports_unbounded_and_maximizer():
    halfplane = Polytope(G=np.array([[1.0, 0.0]]), h=np.array([1.0]))
    val = max_linear_over_polytope(np.array([0.0, 1.0]), halfplane)
    assert val == np.inf
    val, x = max_linear_over_polytope(np.array([1.0, 0.0]), halfplane,
                                      return_point=True)
    assert val == pytest.approx(1.0)
    assert x[0] == pytest.approx(1.0)
    val, x = max_linear_over_polytope(np.array([0.0, 1.0]), halfplane,
                                      return_point=True)
    assert val == np.inf and x is None


def test_support_dominates_vertices(rng):
    P = _random_bounded_polytope(rng, 3)
    for _ in range(5):
        c = rng.normal(size=3)
        val = max_linear_over_polytope(c, P)
        for vtx in enumerate_vertices(P):
            assert val >= c @ vtx - 1e-7


# ---------------------------------------------------------------------------
# polytope container


def test_polytope_validation_and_json():
    with pytest.raises(ValueError):
        Polytope(G=np.ones((2, 2)), h=np.ones(3))
    with pytest.raises(ValueError):
        Polytope(G=np.array([[np.inf, 0.0]]), h=np.array([1.0]))
    P = box_polytope(np.zeros(2), np.ones(2))
    Q = Polytope.from_json_dict(P.to_json_dict())
    np.testing.assert_allclose(Q.G, P.G)
    np.testing.assert_allclose(Q.h, P.h)
    assert Q.num_faces == 4 and Q.dim == 2
    assert np.all(Q.G @ np.zeros(2) <= Q.h)
    assert not np.all(Q.G @ np.array([2.0, 0.0]) <= Q.h)


def test_components_split_a_product_of_row_sets(rng):
    n, m = 3, 2
    P = random_separable_polytope(rng, rng.normal(size=(n, n)),
                                  rng.normal(size=(n, m)))
    zero_face = Polytope(G=np.vstack([P.G[:2], np.zeros((1, P.dim)), P.G[2:]]),
                         h=np.concatenate([P.h[:2], [1.0], P.h[2:]]))
    face_comp, col_comp = zero_face.components
    cols = np.arange(P.dim)
    # one component per row of [A B]: the columns c with c % n == i
    assert np.array_equal(col_comp[:, None] == col_comp[None, :],
                          cols[:, None] % n == cols[None, :] % n)
    assert face_comp[2] == -1
    for f in np.flatnonzero(face_comp >= 0):
        touched = np.flatnonzero(zero_face.G[f])
        assert np.all(col_comp[touched] == face_comp[f])
    # a column no face touches is a component without faces
    lone = Polytope(G=np.array([[1.0, 0.0], [-1.0, 0.0]]), h=np.ones(2))
    face_comp, col_comp = lone.components
    assert col_comp[0] != col_comp[1]
    assert np.all(face_comp == col_comp[0])


def test_robust_rows_range_over_their_own_components(rng):
    n, m = 2, 1
    P = random_separable_polytope(rng, rng.normal(size=(n, n)),
                                  rng.normal(size=(n, m)))
    d = P.dim
    face_comp, col_comp = P.components
    g = np.zeros((3, d))
    g[0, 0] = 1.0                       # row 0 of A only
    g[2] = rng.normal(size=d)           # every column; row 1 is empty
    sups = np.array([max_linear_over_polytope(r, P) for r in g])
    # exact: feasible just above every row's sup, infeasible just below any
    for tight, feasible in ((None, True), (0, False), (1, False), (2, False)):
        h = sups + 1e-3
        if tight is not None:
            h[tight] -= 2e-3
        model = LPModel()
        add_robust_rows(model, P, AffExpr(3 * d, const=g.ravel()),
                        AffExpr(3, const=h), "Z")
        assert solve(model).optimal == feasible
    family = model.robust["Z"]
    rows, faces = family.rows, family.faces
    assert family.dense(np.ones(family.size)).shape == (3, P.num_faces)
    own = np.flatnonzero(face_comp == col_comp[0])
    np.testing.assert_array_equal(faces[rows == 0], own)
    assert not np.any(rows == 1)
    np.testing.assert_array_equal(faces[rows == 2], np.arange(P.num_faces))
    assert model.assemble()[3].shape[0] \
        == np.count_nonzero(col_comp == col_comp[0]) + d


def test_warm_lp_refuses_equality_rows():
    # every equality row is a Farkas row, which only a fresh solve takes
    model = LPModel()
    add_robust_rows(model, box_polytope(np.zeros(1), np.ones(1)),
                    AffExpr(1, const=[1.0]), AffExpr(1, const=[2.0]), "Z")
    assert model.assemble()[3] is not None
    with pytest.raises(ValueError):
        lp_core._WarmLP(*model.assemble())


def test_require_nonempty_tells_empty_from_solver_failure(monkeypatch):
    box = Polytope(G=np.array([[1.0], [-1.0]]), h=np.array([1.0, 1.0]))
    assert _require_nonempty(box) is None
    with pytest.raises(ValueError):
        _require_nonempty(Polytope(G=box.G, h=np.array([-1.0, -1.0])))

    class Failing:
        def solve(self, *args):
            return "numerical-failure", None, None

    monkeypatch.setattr(lp_core, "DEFAULT_BACKEND", Failing())
    # a Polytope remembers a passed check, so the failing LP needs a new one
    with pytest.raises(RuntimeError):
        _require_nonempty(Polytope(G=box.G, h=box.h))


@pytest.mark.parametrize("fresh_path", [False, True],
                         ids=["warm", "linprog"])
def test_support_session_follows_the_support_function(monkeypatch,
                                                      fresh_path):
    if fresh_path:
        monkeypatch.setattr(lp_core, "_highs", None)
    # x1 <= 1, x2 <= 2, x1 + x2 >= 0: a triangle
    G = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    session = _SupportSession(G, np.array([1.0, 2.0, 0.0]))
    val, x = session.maximize([1.0, 1.0])
    assert val == pytest.approx(3.0) and x == pytest.approx([1.0, 2.0])
    assert session.maximize([1.0, -1.0])[0] == pytest.approx(2.0)
    session.set_upper(1, 5.0)
    assert session.maximize([0.0, 1.0])[0] == pytest.approx(5.0)
    session.set_upper(1, np.inf)
    assert session.maximize([0.0, 1.0]) == (np.inf, None)
    session.set_upper(2, -7.0)          # x1 + x2 >= 7 against x1 <= 1
    session.set_upper(1, 2.0)
    with pytest.raises(ValueError):
        session.maximize([1.0, 0.0])


def test_support_session_reports_solver_failure():
    class Failing:
        def solve(self, *args):
            return "numerical-failure", None, None

    with fresh_solves(Failing()):
        session = _SupportSession(np.eye(2), np.ones(2))
        with pytest.raises(SolverError):
            session.maximize([1.0, 0.0])


def _param_model(p):
    """min -x1 over 0 <= x <= 10 with x0 + x1 <= 1, x0 + x1 >= 1/2 and
    p x0 - x1 == 0 (as two inequalities), p a model parameter: x1 = p x0,
    so the optimum is -p / (1 + p) for p >= 0 and the LP is infeasible for
    p < 0."""
    model = LPModel()
    model.add_block("x", 2, lb=0.0, ub=10.0)
    total = AffExpr(1, {"x": np.ones((1, 2))})
    model.add_ineq(total - 1.0)
    model.add_ineq(-(total - 0.5))
    px = model.param_expr("p", "x", p)
    gap = px.premul(np.array([[1.0, 0.0]])) - AffExpr(1, {"x": [[0.0, 1.0]]})
    model.add_ineq(gap)
    model.add_ineq(-gap)
    model.set_objective(AffExpr(1, {"x": [[0.0, -1.0]]}))
    return model


def test_param_entries_locate_the_parameter_in_the_assembled_rows():
    model = _param_model(2.0)
    # the warm loop rewrites entry (row, col) to base + slope * p: the
    # two rows of p x0 - x1 == 0 follow the two rows of the sum
    rows, cols, base, slope = solver(model, "p").entries
    assert rows.tolist() == [2, 3] and cols.tolist() == [0, 0]
    assert base.tolist() == [0.0, 0.0] and slope.tolist() == [1.0, -1.0]
    for p in (2.0, -0.5, 3.25):
        model.params["p"] = p
        _, A_ub, _, A_eq, _, _ = model.assemble()
        assert A_eq is None
        assert A_ub.toarray().tolist() == [[1.0, 1.0], [-1.0, -1.0],
                                           [p, -1.0], [-p, 1.0]]


def test_param_entries_of_an_unused_parameter_are_empty_arrays():
    # a parameter that reaches no row: no entry to rewrite, and the warm
    # model takes the empty rewrite
    model = LPModel()
    model.add_block("x", 2, lb=0.0, ub=10.0)
    model.add_ineq(AffExpr(1, {"x": np.ones((1, 2))}) - 1.0)
    model.set_objective(AffExpr(1, {"x": [[0.0, -1.0]]}))
    model.param_expr("p", "x", 2.0)
    loop = solver(model, "p")
    for entries in loop.entries:
        assert isinstance(entries, np.ndarray) and entries.shape == (0,)
    assert loop.entries[0].dtype.kind == loop.entries[1].dtype.kind == "i"
    sol = loop(3.0)
    assert sol.status == "optimal" and sol.values["x"][1] == pytest.approx(1.0)


def _robust_param_model(unc):
    """min x0 over 0 <= x <= 10 with z0 + z1 <= p x0 for every z of unc,
    a Polytope or a point: the parameter p (set to 1) reaches the robust
    row's h."""
    model = LPModel()
    model.add_block("x", 2, lb=0.0, ub=10.0)
    px0 = model.param_expr("p", "x", 1.0).premul(np.array([[1.0, 0.0]]))
    add_robust_rows(model, unc, AffExpr(2, const=[1.0, 1.0]), px0, "Z")
    model.set_objective(AffExpr(1, {"x": [[1.0, 0.0]]}))
    return model


def test_a_parameter_in_a_robust_row_is_refused():
    # the cut engine compiles robust rows without the parameter, so a
    # robust row on a polytope that holds one, in h or in G, is refused
    # before it joins the model
    triangle = Polytope(G=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                        h=np.ones(3))
    with pytest.raises(ValueError, match="own rows"):
        _robust_param_model(triangle)
    model = LPModel()
    model.add_block("x", 2)
    with pytest.raises(ValueError, match="own rows"):
        add_robust_rows(model, triangle, model.param_expr("p", "x", 1.0),
                        AffExpr(1, const=[1.0]), "Z")
    assert model.robust == {} and model.row_sups == {}
    # on a point the rows are substituted into the model's own rows, where
    # the warm master rewrites the parameter: z0 + z1 = 1 at (1/2, 1/2),
    # so the optimum is x0 = 1 / p, and infeasible for p < 0
    solve_at = solver(_robust_param_model(np.array([0.5, 0.5])), "p")
    assert isinstance(solve_at, lp_core._CutLoop)
    for p in (1.0, 0.5, 4.0, -1.0):
        sol = solve_at(p)
        assert sol.status == ("infeasible" if p < 0 else "optimal")
        if p > 0:
            assert sol.values["x"][0] == pytest.approx(1 / p)


def test_solver_warm_matches_fresh_solves():
    # one warm model for every value of the parameter, and one for a model
    # solved at its own parameter values (param=None)
    warm = solver(_param_model(1.0), "p")
    with fresh_solves():
        fresh = solver(_param_model(1.0), "p")
    pairs = [(p, warm(p), fresh(p)) for p in (1.0, 3.0, -2.0, 1.5)]
    for p in (2.0, -0.5):
        at_p = solver(_param_model(p))()
        with fresh_solves():
            pairs.append((p, at_p, solver(_param_model(p))()))
    for p, a, b in pairs:
        assert a.status == b.status
        if p < 0:
            assert a.status == "infeasible"
        else:
            assert a.values["x"][1] == pytest.approx(p / (1 + p))
            assert b.values["x"][1] == pytest.approx(p / (1 + p))
            np.testing.assert_allclose(a.values["x"], b.values["x"],
                                       atol=1e-9)
