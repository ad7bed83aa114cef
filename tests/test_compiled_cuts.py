"""The cut engine's compiled rows and the nonemptiness LP of a polytope.

lp_core._CutLoop compiles every robust row family once into arrays over
its master's columns (lp_core._CutRows); a cut is then one contraction of
those arrays with its vertex, and must be the row that the family's
expressions give at that vertex.  The engine builds no Farkas block, and
a Polytope remembers a passed nonemptiness check, so a bisection over
one polytope makes one nonemptiness LP.  It also keeps the vertex cuts of
every call that answered optimal (Polytope.cut_pools), so that the next
call on it starts from them; a new Polytope starts from none, the cold
reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from quantstab import (Polytope, QuantizerSpec, build_polytope,
                       generate_dataset, min_feasible_rho, prune_redundant,
                       synthesize_aarc, synthesize_sign)
from quantstab import lp_core
from quantstab.lp_core import LinprogBackend, SolverError
from quantstab.synth_aarc import _aarc_model
from quantstab.synth_sign import _sign_model, bisect_least

from conftest import InteriorPoint, fresh_solves


@pytest.fixture(scope="module")
def pruned_sys1(sys1, part1):
    """The sys1/T=100, dataset seed 1 polytope, pruned to 48 faces."""
    return prune_redundant(build_polytope(generate_dataset(sys1, part1, 100,
                                                           seed=1)))


@pytest.fixture(scope="module")
def pruned_sys2(sys2, part2):
    """The sys2/T=60, dataset seed 1 polytope, pruned."""
    return prune_redundant(build_polytope(generate_dataset(sys2, part2, 60,
                                                           seed=1)))


def _expected_rows(master, family, rows, points):
    """(A, const) of the rows G_r(x) z_r - h_r(x) <= 0 at the points,
    assembled from the family's expressions at the master's parameter
    values: the rows the cut engine used to build per round."""
    K, d = len(rows), family.poly.dim
    at = sp.csr_matrix((points.ravel(), (np.repeat(np.arange(K), d),
                        (rows[:, None] * d + np.arange(d)).ravel())),
                       shape=(K, family.h_expr.rows * d))
    pick = sp.csr_matrix((np.ones(K), (np.arange(K), rows)),
                         shape=(K, family.h_expr.rows))
    expr = family.G_expr.premul(at) - family.h_expr.premul(pick)
    A, const = master._stack([expr])
    return A.toarray(), const


@pytest.mark.parametrize("case", ["sign sys1", "sign sys2", "aarc sys1",
                                  "sign sys1 ss"])
def test_compiled_cut_rows_equal_the_assembled_rows(case, pruned_sys1,
                                                    pruned_sys2, sys1, sys2):
    # ESS models at a fixed lambda, the loop's parameter, which reaches
    # only the model's own rows u <= lambda v: the compiled rows must
    # equal the assembled ones at every lambda.  The SS model has a
    # constant v and a lambda block instead, and no parameter
    method, system, *ss = case.split()
    plant, poly = {"sys1": (sys1, pruned_sys1),
                   "sys2": (sys2, pruned_sys2)}[system]
    build = {"sign": _sign_model, "aarc": _aarc_model}[method]
    spec = QuantizerSpec.uniform(0.7, plant.m)
    if ss:
        model = build(poly, spec, plant.n, "ss", "min-lambda")
        loop, lams = lp_core._CutLoop(model), [None]
    else:
        model = build(poly, spec, plant.n, "ess", "min-lambda")
        loop, lams = lp_core._CutLoop(model, "lam"), [1.0, 0.6]
    rng = np.random.default_rng(3)
    for cut_rows in loop.families:
        family = model.robust[cut_rows.name]
        rows = rng.choice(cut_rows.L2, size=min(40, cut_rows.L2),
                          replace=False)
        picks = [comp.hull.vertices[rng.integers(len(comp.hull.vertices),
                                                 size=rows.size)]
                 for comp in cut_rows.comps]
        points = np.zeros((rows.size, poly.dim))
        for comp, z in zip(cut_rows.comps, picks):
            touch = comp.at[rows] >= 0
            points[np.ix_(touch, comp.hull.cols)] = z[touch]
        base, const = cut_rows.rows_at(rows, picks)
        for lam in lams:
            if lam is not None:
                loop.master.params["lam"] = lam
            A, expected = _expected_rows(loop.master, family, rows, points)
            np.testing.assert_allclose(base, A, rtol=0, atol=1e-12)
            np.testing.assert_allclose(const, expected, rtol=0, atol=1e-12)
    # the engine solves without ever building a Farkas block
    assert loop(*lams[:1]).optimal
    assert all("farkas" not in family.__dict__
               for family in model.robust.values())


@pytest.mark.parametrize("build", [_sign_model, _aarc_model],
                         ids=["sign", "aarc"])
def test_lambda_reaches_only_the_u_rows_of_the_master(build, pruned_sys1,
                                                      sys1):
    # the ESS min-lambda models bound their robust rows by u and keep
    # lambda in their own rows u - lambda v <= 0, so a probe rewrites the
    # n entries -lambda on v of those rows, and no cut carries lambda
    n = sys1.n
    model = build(pruned_sys1, QuantizerSpec.uniform(0.7, sys1.m), n, "ess",
                  "min-lambda")
    loop = lp_core._CutLoop(model, "lam")
    rows, cols, base, slope = loop.entries
    offsets, _ = loop.master._offsets()
    A = loop.master.assemble()[1].toarray()
    assert A.shape[0] == n
    np.testing.assert_array_equal(A[:, offsets["u"]:offsets["u"] + n],
                                  np.eye(n))
    assert rows.tolist() == list(range(n))
    assert cols.tolist() == list(offsets["v"] + np.arange(n))
    assert base.tolist() == [0.0] * n and slope.tolist() == [-1.0] * n


def test_aarc_rows_on_vertex_cuts_give_the_fresh_probe_verdicts(pruned_sys1,
                                                                sys1):
    # the envelope rows carry no lambda, which the engine must accept; the
    # fresh Farkas LPs are the reference, by interior point, because the
    # default simplex ends the last probe, lambda = 0.58489990234375, in a
    # numerical failure
    spec = QuantizerSpec.uniform(0.7, sys1.m)

    def verdicts(solver):
        model = _aarc_model(pruned_sys1, spec, sys1.n, "ess", "min-lambda")
        solve_at, seen = solver(model, "lam"), []

        def probe(lam):
            sol = solve_at(lam)
            seen.append((lam, sol.status))
            return sol

        bisect_least(probe, lambda sol: sol.optimal, 1e-4)
        return seen

    cuts = verdicts(lp_core._CutLoop)
    with fresh_solves(InteriorPoint()):
        assert cuts == verdicts(lp_core.solver)
    assert {status for _, status in cuts} == {"optimal", "infeasible"}


def _counted_linprog(monkeypatch):
    """The list that gets one entry per LinprogBackend.solve call."""
    calls, solve = [], LinprogBackend.solve

    def counted(self, *args):
        calls.append(None)
        return solve(self, *args)

    monkeypatch.setattr(LinprogBackend, "solve", counted)
    return calls


def test_rho_bisection_on_one_polytope_makes_one_nonemptiness_lp(
        monkeypatch, pruned_sys1):
    poly = Polytope(G=pruned_sys1.G, h=pruned_sys1.h)
    calls = _counted_linprog(monkeypatch)
    probes = []

    def probe(rho):
        probes.append(rho)
        return synthesize_sign(poly, QuantizerSpec.uniform(rho, 2))

    rho, _ = min_feasible_rho(probe)
    assert rho == 0.06280517578125
    assert len(probes) > 10
    assert len(calls) == 1


def test_only_a_passed_nonemptiness_check_is_remembered(monkeypatch, sys1):
    d = sys1.n * (sys1.n + sys1.m)
    spec = QuantizerSpec.uniform(0.7, sys1.m)
    empty = Polytope(G=np.vstack([np.eye(d), -np.eye(d)]),
                     h=np.concatenate([np.full(d, -1.0), np.zeros(d)]))
    calls = _counted_linprog(monkeypatch)
    for k in range(3):
        with pytest.raises(ValueError):
            synthesize_sign(empty, spec)
        assert len(calls) == k + 1

    class Failing:
        def solve(self, *args):
            return "numerical-failure", None, None

    box = Polytope(G=np.vstack([np.eye(d), -np.eye(d)]), h=np.ones(2 * d))
    with monkeypatch.context() as patch:
        patch.setattr(lp_core, "DEFAULT_BACKEND", Failing())
        for _ in range(2):
            with pytest.raises(SolverError):
                lp_core._require_nonempty(box)
    lp_core._require_nonempty(box)
    lp_core._require_nonempty(box)
    assert len(calls) == 4


def _no_farkas_lp(monkeypatch):
    """Fail the test if any Farkas block is built."""
    def built(self):
        pytest.fail("the call fell back to the Farkas LP")

    monkeypatch.setattr(lp_core._RobustRows, "farkas", property(built))


def test_failed_warm_master_is_solved_again_cold(monkeypatch, pruned_sys1):
    # each call gets its own Polytope, so each starts from an empty cut
    # pool (Polytope.cut_pools) and makes the same master solves; the
    # second one's vertex sets are built first, so that only master solves
    # are counted
    spec = QuantizerSpec.uniform(0.7, 2)
    clean = synthesize_sign(Polytope(pruned_sys1.G, pruned_sys1.h), spec,
                            mode="ss", objective="min-lambda")
    cold = Polytope(pruned_sys1.G, pruned_sys1.h)
    cold.hulls
    runs, run = [], lp_core._WarmLP.run

    def second_run_fails(self):
        runs.append(None)
        out = run(self)
        return ("numerical-failure", None, None) if len(runs) == 2 else out

    _no_farkas_lp(monkeypatch)
    monkeypatch.setattr(lp_core._WarmLP, "run", second_run_fails)
    res = synthesize_sign(cold, spec, mode="ss", objective="min-lambda")
    assert len(runs) > 2
    assert res.status == clean.status
    assert res.certificate.lam == pytest.approx(clean.certificate.lam,
                                                abs=1e-9)


def test_sys2_ess_min_lambda_answers_on_vertex_cuts(monkeypatch,
                                                    pruned_sys2):
    # the warm master fails at the probe lambda = 0.966796875 and answers
    # cold; the Farkas LP, 30-40 s here, gives 0.9677124023437546
    _no_farkas_lp(monkeypatch)
    res = synthesize_sign(pruned_sys2, QuantizerSpec.uniform(0.7, 3),
                          objective="min-lambda")
    assert res.feasible and res.extras["failed_lam"] == []
    assert res.certificate.lam == pytest.approx(0.9677124023437546,
                                                abs=1e-6)


def _rho_bisection(monkeypatch, synth, poly, m, cold):
    """(rho*, [(rho, status)] of every probe, master solves of every cut
    loop in all) of the ESS feasibility min_feasible_rho of synth over
    poly: every probe on poly itself, or each on a new copy of it when
    cold."""
    verdicts, rounds, call = [], [], lp_core._CutLoop.__call__

    def counted(self, value=None):
        sol = call(self, value)
        rounds.append(self.rounds)
        return sol

    def probe(rho):
        target = Polytope(poly.G, poly.h) if cold else poly
        res = synth(target, QuantizerSpec.uniform(rho, m))
        verdicts.append((rho, res.status))
        return res

    with monkeypatch.context() as patch:
        patch.setattr(lp_core._CutLoop, "__call__", counted)
        rho, _ = min_feasible_rho(probe)
    return rho, verdicts, sum(rounds)


@pytest.mark.parametrize("synth", [synthesize_sign, synthesize_aarc],
                         ids=["sign", "aarc"])
def test_pooled_rho_bisection_matches_cold_probes(monkeypatch, synth,
                                                  pruned_sys1, sys1):
    # every probe on one polytope starts from the cuts of the calls before
    # it that answered optimal; on a new copy per probe every call starts
    # from the Chebyshev centres alone
    pooled = _rho_bisection(monkeypatch, synth,
                            Polytope(pruned_sys1.G, pruned_sys1.h), sys1.m,
                            cold=False)
    cold = _rho_bisection(monkeypatch, synth, pruned_sys1, sys1.m, cold=True)
    assert pooled[1] == cold[1]
    assert pooled[0] == cold[0]
    assert "numerical-failure" not in {s for _, s in pooled[1] + cold[1]}
    assert pooled[2] < cold[2]


def test_sys2_sign_rho_bisection_on_one_polytope(monkeypatch, pruned_sys2,
                                                 sys2):
    # with the pool written back after infeasible calls too, the probe at
    # rho = 0.4453125 ended unsolved, warm and cold
    rho, verdicts, _ = _rho_bisection(monkeypatch, synthesize_sign,
                                      Polytope(pruned_sys2.G, pruned_sys2.h),
                                      sys2.m, cold=False)
    assert rho == 0.451171875
    assert "numerical-failure" not in {s for _, s in verdicts}


def test_an_infeasible_call_leaves_the_cut_pool_as_it_was(pruned_sys2,
                                                          sys2):
    poly = Polytope(pruned_sys2.G, pruned_sys2.h)

    def loop(rho):
        return lp_core._CutLoop(_sign_model(
            poly, QuantizerSpec.uniform(rho, sys2.m), sys2.n, "ess",
            "feasibility"))

    assert loop(1.0)().optimal
    (key, pool), = poly.cut_pools.items()
    assert key[0] == "Z" and len(pool) > 0
    # rho = 0.4375 is infeasible, in three master solves that add cuts
    infeasible = loop(0.4375)
    assert infeasible().status == "infeasible"
    assert infeasible.cuts > 0
    assert list(poly.cut_pools) == [key]
    np.testing.assert_array_equal(poly.cut_pools[key], pool)
