"""Affine-envelope robust synthesis: tractable counterpart of the sign LP."""

import json

import numpy as np
import pytest

from quantstab import (
    AffineMParam,
    LinearSystem,
    Polytope,
    QuantizerSpec,
    build_polytope,
    closed_loop_vertex_gain,
    count_constraints_aarc,
    eval_affine_M,
    generate_dataset,
    plant_vec,
    prune_redundant,
    robust_verify,
    scaled_infty_norm,
    synthesize_aarc,
    synthesize_sign,
)
from quantstab.lp_core import LPModel
from quantstab.synth_aarc import (_aarc_model, _envelope_pattern,
                                  _envelope_plant_part, _envelope_rows,
                                  _pattern_entries)

from conftest import random_separable_polytope, random_stabilizable_system
from test_synth_sign import _scalar_box, _singleton
from oracles import enumerate_vertices


# ---------------------------------------------------------------------------
# affine envelope parameterization


def test_affine_envelope_evaluation(rng):
    n, m = 3, 2
    param = AffineMParam(m0=rng.normal(size=n * n),
                         ma=rng.normal(size=(n * n, n * n)),
                         mb=rng.normal(size=(n * n, n * m)))
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    M = eval_affine_M(param, A, B)
    vecM = param.m0 + param.ma @ A.flatten("F") + param.mb @ B.flatten("F")
    np.testing.assert_allclose(M, vecM.reshape(n, n, order="F"), atol=1e-12)


def test_affine_envelope_entry_bookkeeping():
    # ma column c is the sensitivity of vec(M) to entry c of vec(A)
    n = 2
    ma = np.zeros((4, 4))
    ma[3, 1] = 5.0  # dM_22 / dA_21 (column-major indices 3 and 1)
    param = AffineMParam(m0=np.zeros(4), ma=ma, mb=np.zeros((4, 2)))
    A = np.array([[0.0, 0.0], [2.0, 0.0]])
    M = eval_affine_M(param, A, np.zeros((2, 1)))
    expect = np.zeros((2, 2))
    expect[1, 1] = 10.0
    np.testing.assert_allclose(M, expect)


def test_affine_param_json_dict(rng):
    # the CLI writes these three lists next to the certificate
    param = AffineMParam(m0=rng.normal(size=4),
                         ma=rng.normal(size=(4, 4)),
                         mb=rng.normal(size=(4, 2)))
    d = json.loads(json.dumps(param.to_json_dict()))
    assert list(d) == ["m0", "ma", "mb"]
    np.testing.assert_array_equal(d["m0"], param.m0)
    np.testing.assert_array_equal(d["ma"], param.ma)
    np.testing.assert_array_equal(d["mb"], param.mb)
    assert (param.n, param.m) == (2, 1)


def test_affine_param_shape_validation():
    with pytest.raises(ValueError):
        AffineMParam(m0=np.zeros(3), ma=np.zeros((3, 3)), mb=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        AffineMParam(m0=np.zeros(4), ma=np.zeros((4, 3)), mb=np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# envelope rows


def _row_local_pattern(n, m):
    """Entry r = j*n + i of vec(M) may depend on row i of [A B] alone: the
    columns c of z = [vec(A); vec(B)] with c % n == i."""
    return np.arange(n * (n + m))[None, :] % n == np.arange(n * n)[:, None] % n


@pytest.mark.parametrize("affine", [True, False])
def test_envelope_rows_are_signed_closed_loop_minus_envelope(rng, affine):
    # row (beta, -/+, j*n + i) of G_b z - h_b is -/+ (A Y + B diag(beta) S)_ij
    # - M(A, B)_ij, vertices in order, the lower row block first; ma/mb are
    # drawn on the row-local pattern, zero elsewhere, and mz holds them in
    # the order of _pattern_entries
    n, m = 3, 2
    nsq = n * n
    pattern = _row_local_pattern(n, m) if affine else None
    model = LPModel()
    model.add_block("m0", nsq)
    betas = QuantizerSpec.uniform(0.4, m).beta_vertices()
    d = n * (n + m)
    G_expr, h_expr = _envelope_rows(model.identity_expr("m0"), betas,
                                    _envelope_plant_part(pattern, n, d))
    assert set(G_expr.terms) == ({"v", "S", "mz"} if affine
                                 else {"v", "S"})
    for _ in range(3):
        full = np.zeros((nsq, d))
        if affine:
            full[pattern] = rng.normal(size=np.count_nonzero(pattern))
        param = AffineMParam(m0=rng.normal(size=nsq), ma=full[:, :nsq],
                             mb=full[:, nsq:])
        v = rng.uniform(0.5, 2.0, size=n)
        S = rng.normal(size=(m, n))
        A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
        values = {"v": v, "S": S.flatten("F"), "m0": param.m0}
        if affine:
            values["mz"] = full[_pattern_entries(pattern)]
        rows = G_expr.value(values).reshape(-1, d) @ plant_vec(A, B) \
            - h_expr.value(values)
        rows = rows.reshape(len(betas), 2, nsq)
        M = eval_affine_M(param, A, B) if affine \
            else param.m0.reshape(n, n, order="F")
        for b, beta in enumerate(betas):
            closed = A * v + B @ (beta[:, None] * S)
            for s, sign in enumerate((-1.0, 1.0)):
                np.testing.assert_allclose(
                    rows[b, s], (sign * closed - M).flatten("F"),
                    atol=1e-10)


def test_aarc_model_has_two_multiplier_blocks():
    rng = np.random.default_rng(9)
    n, m, L = 2, 2, 7
    poly = Polytope(G=rng.normal(size=(L, n * (n + m))),
                    h=rng.uniform(1.0, 2.0, size=L))
    model = _aarc_model(poly, QuantizerSpec.uniform(0.5, m), n, "ess",
                        "feasibility")
    assert [(name, f.h_expr.rows, f.poly.num_faces)
            for name, f in model.robust.items()] \
        == [("ZM", n, L), ("Zb", 2 * n * n * 2 ** m, L)]


def test_dense_polytope_gets_the_full_envelope():
    # one component: every M_ij depends on the whole plant
    rng = np.random.default_rng(9)
    n, m, L = 3, 2, 7
    poly = Polytope(G=rng.normal(size=(L, n * (n + m))),
                    h=rng.uniform(1.0, 2.0, size=L))
    assert _envelope_pattern(poly, n).all()
    model = _aarc_model(poly, QuantizerSpec.uniform(0.5, m), n, "ess",
                        "feasibility")
    assert model.blocks["mz"][0] == n ** 4 + n ** 3 * m


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 2)])
def test_data_polytope_allocates_only_the_row_local_envelope(n, m):
    rng = np.random.default_rng(40 + 3 * n + m)
    sys = random_stabilizable_system(rng, n, m)
    poly = random_separable_polytope(rng, sys.A, sys.B)
    pattern = _envelope_pattern(poly, n)
    np.testing.assert_array_equal(pattern, _row_local_pattern(n, m))
    model = _aarc_model(poly, QuantizerSpec.uniform(0.5, m), n, "ess",
                        "feasibility")
    assert model.blocks["mz"][0] == n ** 3 + n * n * m
    # the vec(A) entries come first, each part row-major
    r, c = _pattern_entries(pattern)
    split = n ** 3
    assert np.all(c[:split] < n * n) and np.all(c[split:] >= n * n)
    for part in (slice(None, split), slice(split, None)):
        np.testing.assert_array_equal(np.lexsort((c[part], r[part])),
                                      np.arange(r[part].size))
    # no dangling column: every mz variable enters some constraint
    _, A_ub, _, A_eq, _, _ = model.assemble()
    used = (np.diff(A_ub.tocsc().indptr) > 0) | (np.diff(A_eq.tocsc().indptr) > 0)
    start = model._offsets()[0]["mz"]
    assert used[start:start + model.blocks["mz"][0]].all()


def test_extracted_envelope_is_zero_off_the_pattern(sys1, part1):
    ds = generate_dataset(sys1, part1, 60, seed=14)
    poly = prune_redundant(build_polytope(ds))
    res = synthesize_aarc(poly, QuantizerSpec.uniform(0.8, 2), mode="ess")
    assert res.feasible
    param = res.extras["m_param"]
    assert param.ma.shape == (9, 9) and param.mb.shape == (9, 6)
    full = np.hstack([param.ma, param.mb])
    assert np.all(full[~_row_local_pattern(3, 2)] == 0.0)
    assert np.any(full[_row_local_pattern(3, 2)] != 0.0)


def test_multiplier_payload_layout():
    poly = _scalar_box(0.4, 0.6, 0.9, 1.1)
    res = synthesize_aarc(poly, QuantizerSpec.uniform(0.6, 1), mode="ss",
                          objective="min-lambda")
    assert res.feasible
    Z = res.extras["Z"]
    assert list(Z) == ["ZM", "Zb"]
    assert Z["ZM"].shape == (1, 4) and Z["Zb"].shape == (2 * 2, 4)
    assert all(np.all(z >= -1e-12) for z in Z.values())


# ---------------------------------------------------------------------------
# scalar boxes, singletons, and agreement with exact methods


def test_scalar_box_constant_envelope_is_tight():
    # an affine (here constant) envelope attains the exact bound 0.15
    poly = _scalar_box(0.4, 0.6, 0.9, 1.1)
    spec = QuantizerSpec.uniform(1.0, 1)
    res = synthesize_aarc(poly, spec, mode="ss", objective="min-lambda")
    assert res.feasible
    assert res.certificate.lam == pytest.approx(0.15, abs=1e-6)


def test_singleton_matches_single_plant_envelope_form(sys1):
    spec = QuantizerSpec.uniform(0.7, 2)
    data = synthesize_aarc(_singleton(sys1), spec, mode="ess",
                           objective="min-lambda")
    nominal = synthesize_aarc(plant_vec(sys1.A, sys1.B), spec, mode="ess",
                              objective="min-lambda")
    assert data.feasible and nominal.feasible
    assert data.certificate.lam == pytest.approx(nominal.certificate.lam,
                                                 abs=3e-4)


def test_never_beats_the_exact_method(sys1, part1):
    ds = generate_dataset(sys1, part1, 50, seed=21)
    poly = prune_redundant(build_polytope(ds))
    spec = QuantizerSpec.uniform(0.8, 2)
    exact = synthesize_sign(poly, spec, mode="ess", objective="min-lambda")
    affine = synthesize_aarc(poly, spec, mode="ess", objective="min-lambda")
    assert exact.feasible
    if affine.feasible:
        assert affine.certificate.lam >= exact.certificate.lam - 1e-6


def test_envelope_dominates_consistent_plants(sys1, part1):
    ds = generate_dataset(sys1, part1, 60, seed=14)
    poly = prune_redundant(build_polytope(ds))
    spec = QuantizerSpec.uniform(0.8, 2)
    res = synthesize_aarc(poly, spec, mode="ess")
    assert res.feasible
    cert = res.certificate
    param = res.extras["m_param"]
    Y = np.diag(cert.v)
    # at the true (consistent) plant: M(A, B) covers every sector vertex
    M = eval_affine_M(param, sys1.A, sys1.B)
    for beta in spec.beta_vertices():
        closed = sys1.A @ Y + sys1.B @ (beta[:, None] * cert.S)
        assert np.all(np.abs(closed) <= M + 1e-7)
    assert np.all(M.sum(axis=1) <= cert.lam * cert.v + 1e-7)
    assert scaled_infty_norm(sys1.A + sys1.B @ cert.K, cert.v) <= cert.lam + 1e-6


def test_data_round_trip_verifies(sys1, part1):
    ds = generate_dataset(sys1, part1, 60, seed=3)
    poly = prune_redundant(build_polytope(ds))
    spec = QuantizerSpec.uniform(0.8, 2)
    res = synthesize_aarc(poly, spec, mode="ess")
    assert res.feasible
    report = robust_verify(poly, res.certificate, spec)
    assert report.verified
    gain = closed_loop_vertex_gain(sys1, res.certificate.K,
                                   res.certificate.v, spec)
    assert gain <= res.certificate.lam + 1e-6


def test_box_gain_dominates_vertex_plants():
    poly = _scalar_box(0.3, 0.7, 0.8, 1.2)
    spec = QuantizerSpec.uniform(0.6, 1)
    res = synthesize_aarc(poly, spec, mode="ss", objective="min-lambda")
    assert res.feasible
    cert = res.certificate
    for vtx in enumerate_vertices(poly):
        sys = LinearSystem(A=vtx[:1].reshape(1, 1), B=vtx[1:].reshape(1, 1))
        assert closed_loop_vertex_gain(sys, cert.K, cert.v, spec) \
            <= cert.lam + 1e-7


def test_infeasible_reported_cleanly(sys1):
    res = synthesize_aarc(_singleton(sys1), QuantizerSpec.uniform(0.05, 2),
                          mode="ss")
    assert res.status == "infeasible"
    assert res.certificate is None


# ---------------------------------------------------------------------------
# size accounting


@pytest.mark.parametrize("n,m,L", [(1, 1, 2), (2, 1, 6), (2, 2, 10),
                                   (3, 2, 8)])
def test_size_record_matches_assembled_model(n, m, L):
    rng = np.random.default_rng(17 + n + m)
    G = rng.normal(size=(L, n * (n + m)))
    h = rng.uniform(1.0, 2.0, size=L)
    poly = Polytope(G=G, h=h)
    spec = QuantizerSpec.uniform(0.5, m)
    model = _aarc_model(poly, spec, n, "ess", "feasibility")
    counts = count_constraints_aarc(n, m, L)
    assert model.num_ineq_rows == counts["inequality_rows"]
    c, _, _, A_eq, _, _ = model.assemble()
    assert A_eq.shape[0] == counts["equality_rows"]
    assert len(c) - counts["search_variables"] == counts["farkas_variables"]
    assert counts["robust_inequalities"] == n + n * n * 2 ** (m + 1)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_size_record_matches_row_separable_model(n, m):
    rng = np.random.default_rng(57 + 5 * n + m)
    sys = random_stabilizable_system(rng, n, m)
    poly = random_separable_polytope(rng, sys.A, sys.B)
    row_faces = [np.count_nonzero(poly.G[:, i::n].any(axis=1))
                 for i in range(n)]
    spec = QuantizerSpec.uniform(0.5, m)
    model = _aarc_model(poly, spec, n, "ess", "feasibility")
    counts = count_constraints_aarc(n, m, row_faces)
    assert model.num_ineq_rows == counts["inequality_rows"]
    c, _, _, A_eq, _, _ = model.assemble()
    assert A_eq.shape[0] == counts["equality_rows"]
    farkas_vars = len(c) - counts["search_variables"]
    assert farkas_vars == counts["farkas_variables"]
    per_state = 1 + 2 * n * 2 ** m      # row sum and envelope rows of i
    assert counts["farkas_variables"] == per_state * sum(row_faces)
    assert counts["equality_rows"] == per_state * n * (n + m)
    # the record a synthesis reports is the model it built
    res = synthesize_aarc(poly, spec, mode="ss", objective="min-lambda")
    assert res.extras["counts"] == counts


def test_size_record_rejects_wrong_row_count():
    with pytest.raises(ValueError):
        count_constraints_aarc(3, 1, [4, 4])


def test_growth_is_polynomial_in_state_dimension():
    # the whole point of the affine restriction: no 2^n blowup in n
    small = count_constraints_aarc(3, 2, 100)["robust_inequalities"]
    big = count_constraints_aarc(6, 2, 100)["robust_inequalities"]
    assert big == 6 + 36 * 8
    assert big / small < 8  # doubling n far from squares the count
