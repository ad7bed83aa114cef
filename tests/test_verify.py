"""Independent robust audit via support-function maximization."""

import numpy as np
import pytest

from quantstab import (
    Polytope,
    QuantizerSpec,
    StabCertificate,
    build_polytope,
    builtin_partition,
    builtin_system,
    contains_plant,
    generate_dataset,
    plant_vec,
    prune_redundant,
    robust_verify,
    singleton_polytope,
    synthesize_sign,
)
from quantstab.verify import _row_block

from conftest import fresh_solves
from test_synth_sign import _scalar_box


def _gain(K):
    """The superstability certificate of the gain K: v = 1, S = K and no
    margin."""
    return StabCertificate(v=np.ones(np.shape(K)[1]), S=K, lam=0.0, eta=0.0,
                           mode="ss")


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
    wc = report.worst_case
    assert contains_plant(poly, wc["A"], wc["B"], tol=1e-6)
    attained = _attained(report, np.ones(1), np.array([[-0.5]]))
    assert 1.0 - attained == pytest.approx(report.worst_margin, abs=1e-6)
    # On a data polytope the maximizer spans one row of [A B]; the other
    # rows must still come from a plant of the set.
    ds = generate_dataset(sys1, part1, 100, seed=1)
    poly = prune_redundant(build_polytope(ds))
    spec = QuantizerSpec.uniform(0.7, 2)
    cert = synthesize_sign(poly, spec, mode="ess").certificate
    report = robust_verify(poly, cert, spec)
    wc = report.worst_case
    assert contains_plant(poly, wc["A"], wc["B"], tol=1e-6)
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
