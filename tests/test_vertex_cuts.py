"""Synthesis by vertex cuts (lp_core._CutLoop) against the Farkas LP.

On a data polytope synthesize_sign replaces every robust row by cuts at
vertices of its component and certifies each row's support with Farkas
multipliers.  The Farkas LP is the reference, reached through
conftest.fresh_solves().  A model with a component that has no bounded,
full-dimensional vertex set is solved fresh, as that reference, at every
call, and a call whose master ends neither optimal nor infeasible is a
numerical failure.
"""

import numpy as np
import pytest

from quantstab import (LinearSystem, Polytope, QuantizerSpec,
                       build_polytope, count_constraints_aarc,
                       count_constraints_sign,
                       generate_dataset, lp_core, min_feasible_rho, plant_vec,
                       prune_redundant, sign_vectors, singleton_polytope,
                       synthesize_aarc, synthesize_sign)
from quantstab.synth_aarc import (_aarc_model, _envelope_pattern,
                                  _pattern_entries)
from quantstab.synth_sign import _signed_rows

from conftest import box_polytope, fresh_solves


@pytest.fixture(scope="module")
def pruned_sys1(sys1, part1):
    """The sys1/T=100, dataset seed 1 polytope, pruned to 48 faces."""
    return prune_redundant(build_polytope(generate_dataset(sys1, part1, 100,
                                                           seed=1)))


def _both(poly, spec, **kw):
    """(vertex-cut result, Farkas reference result) of one call."""
    cuts = synthesize_sign(poly, spec, **kw)
    with fresh_solves():
        return cuts, synthesize_sign(poly, spec, **kw)


def _gain(res):
    return res.certificate.lam if res.feasible else res.extras.get("lam")


def test_parity_with_the_farkas_lp_on_sys1(pruned_sys1):
    for rho in (1.0, 0.7, 0.4, 0.1):
        spec = QuantizerSpec.uniform(rho, 2)
        for mode in ("ss", "ess"):
            cuts, ref = _both(pruned_sys1, spec, mode=mode)
            assert cuts.status == ref.status, (rho, mode)
        cuts, ref = _both(pruned_sys1, spec, mode="ss",
                          objective="min-lambda")
        assert cuts.status == ref.status, rho
        assert _gain(cuts) == pytest.approx(_gain(ref), abs=1e-6)

    def rho_star():
        return min_feasible_rho(lambda r: synthesize_sign(
            pruned_sys1, QuantizerSpec.uniform(r, 2), mode="ess"))[0]

    cuts = rho_star()
    with fresh_solves():
        assert cuts == rho_star() == 0.06280517578125


def test_parity_with_the_farkas_lp_on_sys2(sys2, part2):
    poly = prune_redundant(build_polytope(generate_dataset(sys2, part2, 60,
                                                           seed=1)))
    cuts, ref = _both(poly, QuantizerSpec.uniform(0.7, 3), mode="ess")
    assert cuts.status == ref.status == "feasible"


def test_multipliers_meet_the_farkas_conditions(sys1, pruned_sys1):
    n, m = sys1.n, sys1.m
    spec = QuantizerSpec.uniform(0.7, m)
    pairs = [(a, b) for a in sign_vectors(n) for b in spec.beta_vertices()]
    G_expr = _signed_rows(np.array([a for a, _ in pairs]),
                          np.array([b for _, b in pairs]))
    row_faces = [np.count_nonzero(pruned_sys1.G[:, i::n].any(axis=1))
                 for i in range(n)]
    for mode, objective in (("ess", "feasibility"), ("ess", "min-lambda"),
                            ("ss", "feasibility"), ("ss", "min-lambda")):
        res = synthesize_sign(pruned_sys1, spec, mode=mode,
                              objective=objective)
        cert, Z = res.certificate, res.extras["Z"]["Z"]
        G = G_expr.value({"v": cert.v, "S": cert.S.flatten("F")})
        assert np.all(Z >= 0.0)
        assert np.abs(Z @ pruned_sys1.G - G.reshape(len(Z), -1)).max() <= 1e-9
        assert np.all(Z @ pruned_sys1.h
                      <= cert.lam * np.tile(cert.v, len(pairs)) + 1e-9)
        assert res.extras["counts"] == count_constraints_sign(n, m, row_faces)


def test_aarc_multipliers_meet_the_farkas_conditions(sys1, pruned_sys1):
    # Z_M and Z_b, filled by the cut engine, certify the envelope model's
    # rows rebuilt at the certificate: (v, S), m_param and the gain lam,
    # as u = lam v in 'ess' and as the block lam in 'ss'
    n, m = sys1.n, sys1.m
    spec = QuantizerSpec.uniform(0.7, m)
    pattern = _envelope_pattern(pruned_sys1, n)
    row_faces = [np.count_nonzero(pruned_sys1.G[:, i::n].any(axis=1))
                 for i in range(n)]
    for mode, objective in (("ess", "feasibility"), ("ess", "min-lambda"),
                            ("ss", "feasibility"), ("ss", "min-lambda")):
        res = synthesize_aarc(pruned_sys1, spec, mode=mode,
                              objective=objective)
        cert, param = res.certificate, res.extras["m_param"]
        model = _aarc_model(pruned_sys1, spec, n, mode, "min-lambda")
        if mode == "ess":
            model.params["lam"] = cert.lam
        full = np.hstack([param.ma, param.mb])
        values = {"v": cert.v, "S": cert.S.flatten("F"), "m0": param.m0,
                  "mz": full[_pattern_entries(pattern)],
                  "u": cert.lam * cert.v, "lam": np.array([cert.lam])}
        assert list(res.extras["Z"]) == list(model.robust) == ["ZM", "Zb"]
        for name, family in model.robust.items():
            Z = res.extras["Z"][name]
            G = family.G_expr.value(values).reshape(len(Z), -1)
            assert np.all(Z >= 0.0)
            assert np.abs(Z @ pruned_sys1.G - G).max() <= 1e-9
            assert np.all(Z @ pruned_sys1.h
                          <= family.h_expr.value(values) + 1e-9)
        assert res.extras["counts"] == count_constraints_aarc(n, m, row_faces)


def _row_polytope(A, B, halfwidth=0.2, open_col=None, flat_row=None):
    """A polytope over [vec(A); vec(B)] with one component per row of
    [A B]: a box around each row's entries and one face joining the row's
    columns.  open_col drops the upper bound of that column, leaving its
    component unbounded; flat_row pins that row's entry sum, leaving its
    component flat."""
    n = A.shape[0]
    z = plant_vec(A, B)
    d = z.size
    G, h = [np.eye(d), -np.eye(d)], [z + halfwidth, halfwidth - z]
    for i in range(n):
        join = np.zeros(d)
        join[i::n] = 1.0
        join[i + n * n] = -1.0
        G.append(join[None])
        h.append([join @ z + (0.0 if i == flat_row else halfwidth)])
        if i == flat_row:
            G.append(-join[None])
            h.append([-join @ z])
    G, h = np.vstack(G), np.concatenate(h)
    keep = np.arange(len(h)) != open_col
    return Polytope(G=G[keep], h=h[keep])


@pytest.fixture
def small_plant():
    return LinearSystem(A=np.array([[0.2, 0.1], [-0.1, 0.15]]),
                        B=np.array([[0.5], [0.4]]))


def test_row_polytope_runs_on_vertex_cuts(small_plant):
    # the unmodified shape has a vertex set, so the cases below differ from
    # it only in the property they name
    poly = _row_polytope(small_plant.A, small_plant.B)
    assert all(h is not None and h.bounded for h in poly.hulls)
    cuts, ref = _both(poly, QuantizerSpec.uniform(0.5, 1), mode="ess")
    assert cuts.status == ref.status == "feasible"
    assert not np.array_equal(cuts.extras["Z"]["Z"], ref.extras["Z"]["Z"])


@pytest.mark.parametrize("case", ["unbounded", "flat", "one-column",
                                  "singleton"])
def test_components_without_a_vertex_set_are_solved_fresh(monkeypatch,
                                                          small_plant, case):
    A, B = small_plant.A, small_plant.B
    d = plant_vec(A, B).size
    poly = {"unbounded": lambda: _row_polytope(A, B, open_col=d - 1),
            "flat": lambda: _row_polytope(A, B, flat_row=0),
            "one-column": lambda: box_polytope(plant_vec(A, B),
                                               np.full(d, 0.2)),
            "singleton": lambda: singleton_polytope(small_plant)}[case]()
    # the Chebyshev LPs of the vertex sets are warm, so they run first
    assert any(hull is None or not hull.bounded for hull in poly.hulls)
    built, init = [], lp_core._WarmLP.__init__

    def counted(self, *lp):
        built.append(None)
        init(self, *lp)

    monkeypatch.setattr(lp_core._WarmLP, "__init__", counted)
    cuts, ref = _both(poly, QuantizerSpec.uniform(0.5, 1), mode="ess")
    assert built == []
    assert cuts.status == ref.status == "feasible"
    assert cuts.certificate.lam == ref.certificate.lam
    np.testing.assert_array_equal(cuts.certificate.S, ref.certificate.S)
    np.testing.assert_array_equal(cuts.extras["Z"]["Z"], ref.extras["Z"]["Z"])


def test_failed_master_reports_numerical_failure(monkeypatch, caplog,
                                                 pruned_sys1):
    # a master that fails warm and cold answers its call with a numerical
    # failure, solves no LP another way and says so in the log; the
    # bisection then stops at its first probe
    spec = QuantizerSpec.uniform(0.7, 2)
    pruned_sys1.hulls       # the Chebyshev LPs run before the patch
    lp_core._require_nonempty(pruned_sys1)
    solves, solve = [], lp_core.LinprogBackend.solve

    def counted(self, *lp):
        solves.append(None)
        return solve(self, *lp)

    monkeypatch.setattr(lp_core.LinprogBackend, "solve", counted)
    monkeypatch.setattr(lp_core._WarmLP, "run",
                        lambda self: ("numerical-failure", None, None))
    with caplog.at_level("INFO", logger="quantstab.lp_core"):
        res = synthesize_sign(pruned_sys1, spec, mode="ess",
                              objective="min-lambda")
    assert res.status == "numerical-failure"
    assert res.extras["failed_lam"] == [1.0]
    assert solves == []
    logged = [(r.levelname, r.getMessage()) for r in caplog.records
              if r.name == "quantstab.lp_core"]
    assert logged == [("WARNING", "no answer at lam=1.0: a master LP ended "
                                  "numerical-failure")]


def test_capped_warm_masters_fall_back_to_a_cold_solve(monkeypatch,
                                                       pruned_sys1):
    # a warm master that hits its simplex iteration cap is solved once more
    # cold and uncapped, so a low cap changes the path of the bisection,
    # not the gain it certifies; each call gets its own Polytope, so both
    # start from an empty cut pool
    spec = QuantizerSpec.uniform(0.7, 2)
    cold, forget = [], lp_core._WarmLP.forget_basis

    def counted(self):
        cold.append(None)
        forget(self)

    def min_lambda():
        return synthesize_aarc(Polytope(pruned_sys1.G, pruned_sys1.h), spec,
                               mode="ess", objective="min-lambda")

    monkeypatch.setattr(lp_core._WarmLP, "forget_basis", counted)
    uncapped = min_lambda()
    assert cold == []
    monkeypatch.setattr(lp_core, "MASTER_ITERATION_LIMIT", 3)
    capped = min_lambda()
    assert cold
    assert capped.status == uncapped.status == "feasible"
    assert capped.extras["failed_lam"] == uncapped.extras["failed_lam"] == []
    assert capped.certificate.lam == pytest.approx(uncapped.certificate.lam,
                                                   abs=1e-6)


def test_support_lps_certify_where_vertex_duals_do_not(monkeypatch,
                                                       pruned_sys1):
    # with a negative CERT_TOL no vertex's active faces certify a row, so
    # every row's multipliers come from a warm support LP; each call gets
    # its own Polytope, so both start from an empty cut pool
    # (Polytope.cut_pools) and reach the same optimum
    spec = QuantizerSpec.uniform(0.7, 2)
    by_vertices = synthesize_sign(Polytope(pruned_sys1.G, pruned_sys1.h),
                                  spec, mode="ss", objective="min-lambda")
    monkeypatch.setattr(lp_core, "CERT_TOL", -1.0)
    by_lps = synthesize_sign(Polytope(pruned_sys1.G, pruned_sys1.h), spec,
                             mode="ss", objective="min-lambda")
    assert by_lps.certificate.lam == pytest.approx(by_vertices.certificate.lam,
                                                   abs=1e-9)
    Z = by_lps.extras["Z"]["Z"]
    np.testing.assert_array_equal(by_lps.certificate.S,
                                  by_vertices.certificate.S)
    assert np.all(Z >= 0.0)
    assert np.all(Z @ pruned_sys1.h <= by_lps.certificate.lam * np.tile(
        by_lps.certificate.v, 2 ** 5) + 1e-9)
