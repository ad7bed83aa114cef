"""Independent robust audit via support-function maximization."""

import json

import numpy as np
import pytest

from quantstab import (
    Polytope,
    QuantizerSpec,
    StabCertificate,
    build_polytope,
    builtin_partition,
    builtin_system,
    generate_dataset,
    plant_vec,
    prune_redundant,
    robust_verify,
    singleton_polytope,
    synthesize_sign,
)
from quantstab.lp_core import _SupportSession
from quantstab.verify import MARGIN_TOL, _row_block

from conftest import fresh_solves
from oracles import every_row_margin
from test_synth_sign import _scalar_box


def _gain(K):
    """The superstability certificate of the gain K: v = 1, S = K and no
    margin."""
    return StabCertificate(v=np.ones(np.shape(K)[1]), S=K, lam=0.0, eta=0.0,
                           mode="ss")


def _holds_worst_case(poly, report):
    """The audit's worst-case plant lies in poly to within 1e-6 on every
    face, the tolerance of the support LPs that found it."""
    wc = report.worst_case
    return np.all(poly.G @ plant_vec(wc["A"], wc["B"]) <= poly.h + 1e-6)


def test_scalar_controller_passes_with_wide_margin():
    poly = _scalar_box(0.4, 0.6, 0.9, 1.1)
    spec = QuantizerSpec.uniform(1.0, 1)
    report = robust_verify(poly, _gain([[-0.5]]), spec)
    assert report.verified
    # worst closed loop over the box is |A + B K| = 0.15, so slack is 0.85
    assert report.worst_margin == pytest.approx(0.85, abs=1e-7)


def test_scalar_destabilizing_gain_fails():
    poly = _scalar_box(0.4, 0.6, 0.9, 1.1)
    spec = QuantizerSpec.uniform(1.0, 1)
    report = robust_verify(poly, _gain([[1.0]]), spec)
    assert not report.verified
    # A + B at the top corner reaches 1.7, violating the unit bound by 0.7
    assert report.worst_margin == pytest.approx(-0.7, abs=1e-7)


def _attained(report, v, S):
    """Row value of the worst inequality at the reported plant."""
    wc = report.worst_case
    A, B = np.asarray(wc["A"]), np.asarray(wc["B"])
    alpha, beta = np.asarray(wc["alpha"]), np.asarray(wc["beta"])
    return float((A @ (alpha * v) + B @ (beta * (S @ alpha)))[wc["i"]])


def test_worst_case_plant_is_consistent_and_tight(sys1, part1):
    poly = _scalar_box(0.4, 0.6, 0.9, 1.1)
    spec = QuantizerSpec.uniform(0.5, 1)
    report = robust_verify(poly, _gain([[-0.5]]), spec)
    assert _holds_worst_case(poly, report)
    attained = _attained(report, np.ones(1), np.array([[-0.5]]))
    assert 1.0 - attained == pytest.approx(report.worst_margin, abs=1e-6)
    # On a data polytope the maximizer spans one row of [A B]; the other
    # rows must still come from a plant of the set.
    ds = generate_dataset(sys1, part1, 100, seed=1)
    poly = prune_redundant(build_polytope(ds))
    spec = QuantizerSpec.uniform(0.7, 2)
    cert = synthesize_sign(poly, spec, mode="ess").certificate
    report = robust_verify(poly, cert, spec)
    assert _holds_worst_case(poly, report)
    wc = report.worst_case
    margin = cert.v[wc["i"]] - cert.eta - _attained(report, cert.v, cert.S)
    assert margin == pytest.approx(report.worst_margin, abs=1e-6)


def _dense_polytope(plant, faces=40, seed=0):
    """A random bounded polytope around the plant whose every face touches
    every column, so no row block splits off."""
    rng = np.random.default_rng(seed)
    z = plant_vec(plant.A, plant.B)
    G = rng.normal(size=(faces, z.size))
    return Polytope(G=G, h=G @ z + rng.uniform(0.01, 0.05, faces))


DATA = {"sys1": ("p1", 100), "sys2": ("p2", 60)}


@pytest.mark.parametrize("system,kind", [("sys1", "data"), ("sys2", "data"),
                                         ("sys1", "dense")])
def test_warm_sessions_match_fresh_linprog_solves(system, kind):
    plant = builtin_system(system)
    if kind == "dense":
        poly = _dense_polytope(plant)
    else:
        partition, T = DATA[system]
        ds = generate_dataset(plant, builtin_partition(partition), T, 1)
        poly = prune_redundant(build_polytope(ds))
    # the audit's own structure check: a block per row on data only
    faces, _ = _row_block(poly, plant.n, plant.m, 0)
    assert (faces.size == poly.num_faces) == (kind == "dense")
    spec = QuantizerSpec.uniform(0.7, plant.m)
    # The worst case is compared by identity, so the certificate must have
    # one worst row.  The Farkas LP's certificate has; a vertex-cut
    # certificate is a vertex of the (v, S) feasible set, where several
    # rows tie at the worst margin to 1e-15 and rounding picks one.
    with fresh_solves():
        cert = synthesize_sign(poly, spec, mode="ess").certificate
    warm = robust_verify(poly, cert, spec)
    with fresh_solves():
        fresh = robust_verify(poly, cert, spec)
    assert warm.verified == fresh.verified
    assert warm.worst_margin == pytest.approx(fresh.worst_margin, abs=1e-9)
    for key in ("i", "alpha", "beta"):
        np.testing.assert_array_equal(warm.worst_case[key],
                                      fresh.worst_case[key])


def test_empty_polytope_is_refused():
    box = _scalar_box(0.4, 0.6, 0.9, 1.1)
    empty = Polytope(G=np.vstack([box.G, [[1.0, 0.0]]]),
                     h=np.append(box.h, 0.3))
    with pytest.raises(ValueError):
        robust_verify(empty, _gain([[-0.5]]), QuantizerSpec.uniform(0.5, 1))


def test_flags_tampered_controller(sys1, part1):
    ds = generate_dataset(sys1, part1, 50, seed=3)
    poly = prune_redundant(build_polytope(ds))
    spec = QuantizerSpec.uniform(0.7, 2)
    res = synthesize_sign(poly, spec, mode="ess")
    cert = res.certificate
    bad = StabCertificate(v=cert.v, S=cert.S + 3.0, lam=cert.lam,
                          eta=cert.eta, mode=cert.mode)
    report = robust_verify(poly, bad, spec)
    assert not report.verified
    assert report.worst_margin < 0


def test_unbounded_data_directions_refuse_verification():
    # a single face cannot pin down the plant: support values diverge
    poly = Polytope(G=np.array([[1.0, 0.0]]), h=np.array([1.0]))
    spec = QuantizerSpec.uniform(0.5, 1)
    report = robust_verify(poly, _gain([[-0.5]]), spec)
    assert not report.verified
    assert report.worst_margin == -np.inf
    assert "unbounded" in report.diagnostic


def test_report_of_an_unbounded_direction_is_strict_json():
    # three sys1 samples leave the data polytope unbounded along the rows
    # of the known-plant certificate: the -inf margin and the NaN plant
    # are written as null, so the report is valid JSON
    sys1 = builtin_system("sys1")
    poly = build_polytope(generate_dataset(sys1, builtin_partition("p1"), 3,
                                           seed=1))
    spec = QuantizerSpec.uniform(0.7, sys1.m)
    cert = synthesize_sign(plant_vec(sys1.A, sys1.B), spec,
                           mode="ess").certificate
    report = robust_verify(poly, cert, spec)
    assert not report.verified and report.worst_margin == -np.inf
    d = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
    assert d["worst_margin"] is None and d["verified"] is False
    wc = d["worst_case"]
    assert np.shape(wc["A"]) == (3, 3) and np.shape(wc["B"]) == (3, 2)
    assert {x for row in wc["A"] + wc["B"] for x in row} == {None}
    assert wc["alpha"] == report.worst_case["alpha"].tolist()
    assert wc["beta"] == report.worst_case["beta"].tolist()


def test_report_json_schema():
    poly = _scalar_box(0.4, 0.6, 0.9, 1.1)
    spec = QuantizerSpec.uniform(0.5, 1)
    report = robust_verify(poly, _gain([[-0.5]]), spec)
    d = report.to_json_dict()
    assert set(d) >= {"verified", "worst_margin", "worst_case"}
    assert set(d["worst_case"]) == {"i", "alpha", "beta", "A", "B"}
    assert isinstance(d["verified"], bool)


def test_dimension_guards(sys1):
    poly = _scalar_box(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        robust_verify(poly, _gain([[-0.5]]), QuantizerSpec.uniform(0.5, 2))
    with pytest.raises(ValueError):
        robust_verify(poly, _gain([[0.5, 0.5]]),
                      QuantizerSpec.uniform(0.5, 1))


def test_shape_errors_name_the_certificate_and_the_mismatch(sys1):
    cert = _gain(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^the certificate has n = 3, "
                       r"m = 2, but the quantizer has 3 channels$"):
        robust_verify(singleton_polytope(sys1), cert,
                      QuantizerSpec.uniform(0.5, 3))
    with pytest.raises(ValueError, match=r"^the certificate has n = 3, "
                       r"m = 2, but the polytope has dimension 2, "
                       r"not n\(n\+m\) = 15$"):
        robust_verify(_scalar_box(0.0, 1.0, 0.0, 1.0), cert,
                      QuantizerSpec.uniform(0.5, 2))


def test_margin_tightens_with_sector(sys1, part1):
    ds = generate_dataset(sys1, part1, 60, seed=5)
    poly = prune_redundant(build_polytope(ds))
    res = synthesize_sign(poly, QuantizerSpec.uniform(0.6, 2), mode="ess")
    cert = res.certificate
    margins = [robust_verify(poly, cert, QuantizerSpec.uniform(r, 2)).worst_margin
               for r in (1.0, 0.8, 0.6)]
    assert np.all(np.diff(margins) <= 1e-12)


@pytest.fixture(scope="module")
def audits(sys1):
    """(polytope, certificate, spec) of each audit the row oracle checks."""
    polys = {}
    for system, (partition, T) in DATA.items():
        ds = generate_dataset(builtin_system(system),
                              builtin_partition(partition), T, 1)
        full = build_polytope(ds)
        polys[system] = full, prune_redundant(full)
    out = {}
    for rho in (0.7, 0.4):
        spec = QuantizerSpec.uniform(rho, 2)
        cert = synthesize_sign(polys["sys1"][1], spec, mode="ess",
                               objective="min-lambda").certificate
        out[f"sys1 min-lambda rho={rho}"] = polys["sys1"][1], cert, spec
    poly, cert, spec = out["sys1 min-lambda rho=0.7"]
    tampered = StabCertificate(v=cert.v, S=3.0 * cert.S, lam=cert.lam,
                               eta=cert.eta, mode=cert.mode)
    out["sys1 tampered"] = poly, tampered, spec
    dense = _dense_polytope(sys1)
    cert = synthesize_sign(dense, spec, mode="ess").certificate
    out["dense"] = dense, cert, spec
    spec2 = QuantizerSpec.uniform(0.7, 3)
    full, pruned = polys["sys2"]
    cert = synthesize_sign(pruned, spec2, mode="ess").certificate
    out["sys2 pruned"] = pruned, cert, spec2
    out["sys2 unpruned"] = full, cert, spec2
    return out


@pytest.mark.parametrize("case", ["sys1 min-lambda rho=0.7",
                                  "sys1 min-lambda rho=0.4", "sys1 tampered",
                                  "dense", "sys2 pruned", "sys2 unpruned"])
def test_skipped_rows_leave_the_report_of_every_row(audits, case):
    poly, cert, spec = audits[case]
    report = robust_verify(poly, cert, spec)
    margins = every_row_margin(poly, cert, spec)
    least = min(margins.values())
    assert report.verified == (least >= -MARGIN_TOL)
    assert report.worst_margin == pytest.approx(least, abs=1e-9)
    # of the rows that tie at the minimum, the first in order is reported
    wc = report.worst_case
    row = (wc["i"], tuple(wc["alpha"]), tuple(wc["beta"]))
    assert margins[row] == pytest.approx(least, abs=1e-9)
    assert row == next(r for r, mg in margins.items() if mg <= least + 1e-12)
    assert _holds_worst_case(poly, report)


def _counted_support_lps(monkeypatch):
    """A list that grows by one on every _SupportSession.maximize call."""
    calls = []
    maximize = _SupportSession.maximize

    def counted(self, c):
        calls.append(c)
        return maximize(self, c)

    monkeypatch.setattr(_SupportSession, "maximize", counted)
    return calls


@pytest.mark.parametrize("case,most", [("sys2 pruned", 400),
                                       ("sys1 min-lambda rho=0.7", 60)])
def test_box_bound_skips_most_support_lps(audits, monkeypatch, case, most):
    poly, cert, spec = audits[case]
    calls = _counted_support_lps(monkeypatch)
    robust_verify(poly, cert, spec)
    # 1 + n 2^(n+m) LPs without skipping: 1,281 on sys2 and 97 on sys1
    assert len(calls) < most


def test_a_box_without_a_bound_skips_no_row(monkeypatch):
    # A in [0.4, 0.6], B >= 0.9: one column of the row block is unbounded
    poly = Polytope(G=np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0]]),
                    h=np.array([-0.4, 0.6, -0.9]))
    spec = QuantizerSpec.uniform(0.5, 1)
    # S = 0 costs nothing on B, so every row's box bound is 0 * inf, no
    # bound, although every support is finite.  Dropping that term would
    # bound the alpha = -1 rows (margin 1.4) above the margin at any
    # point of P, and skip them.
    calls = _counted_support_lps(monkeypatch)
    report = robust_verify(poly, _gain([[0.0]]), spec)
    assert report.verified
    assert report.worst_margin == pytest.approx(0.4, abs=1e-9)
    # the nonemptiness LP, 2 (n + m) box LPs and all n 2^(n+m) rows
    assert len(calls) == 1 + 4 + 4
    # S = 0.5: the alpha = +1 rows push B to +inf, so their box bound is
    # -inf and their support unbounded; the first of them is reported,
    # as solving every row in order finds it.
    monkeypatch.undo()
    cert = _gain([[0.5]])
    report = robust_verify(poly, cert, spec)
    assert "unbounded" in report.diagnostic
    assert report.worst_margin == -np.inf
    margins = every_row_margin(poly, cert, spec)
    first = next(row for row, margin in margins.items()
                 if margin == -np.inf)
    wc = report.worst_case
    assert (wc["i"], tuple(wc["alpha"]), tuple(wc["beta"])) == first
    assert first == (0, (1.0,), (spec.beta_vertices()[0, 0],))
