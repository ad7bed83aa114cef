"""Exact robust synthesis by sign enumeration over the data polytope."""

import numpy as np
import pytest

from quantstab import (
    LinearSystem,
    Partition,
    Polytope,
    QuantizerSpec,
    build_polytope,
    closed_loop_vertex_gain,
    count_constraints_sign,
    generate_dataset,
    lp_core,
    plant_vec,
    prune_redundant,
    robust_verify,
    sign_vectors,
    synthesize_aarc,
    synthesize_sign,
)
from quantstab.lp_core import LinprogBackend
from quantstab.synth_sign import ETA, _sign_model, _signed_rows

from conftest import (box_polytope, fresh_solves, random_separable_polytope,
                      random_stabilizable_system)
from oracles import enumerate_vertices


def _scalar_box(alow, ahigh, blow, bhigh):
    """Plant box {A in [alow, ahigh], B in [blow, bhigh]} for n = m = 1."""
    G = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    h = np.array([-alow, ahigh, -blow, bhigh])
    return Polytope(G=G, h=h)


def _singleton(sys):
    z = np.concatenate([sys.A.flatten("F"), sys.B.flatten("F")])
    d = z.size
    G = np.vstack([np.eye(d), -np.eye(d)])
    h = np.concatenate([z, -z])
    return Polytope(G=G, h=h)


# ---------------------------------------------------------------------------
# row assembly oracle


def test_row_assembly_matches_direct_kronecker(rng):
    n, m = 3, 2
    alpha = np.array([1.0, -1.0, 1.0])
    beta = np.array([0.7, 1.3])
    G_expr = _signed_rows(alpha, beta)
    d = n * (n + m)
    assert G_expr.rows == n * d

    v = rng.uniform(0.5, 2.0, size=n)
    S = rng.normal(size=(m, n))
    S_flat = S.T.reshape(-1)  # row k, column j stored at j*m + k
    values = {"v": v, "S": S_flat}
    got = G_expr.value(values).reshape(n, d)
    eye = np.eye(n)
    direct = np.hstack([np.kron((alpha * v).reshape(1, n), eye),
                        np.kron((beta * (S @ alpha)).reshape(1, m), eye)])
    np.testing.assert_allclose(got, direct, atol=1e-12)


def test_row_assembly_acts_on_plants_as_signed_rowsum(rng):
    # G z must equal sum_j alpha_j (A_ij v_j + sum_k beta_k B_ik S_kj)
    n, m = 2, 2
    alpha = np.array([-1.0, 1.0])
    beta = np.array([1.25, 0.75])
    G_expr = _signed_rows(alpha, beta)
    v = rng.uniform(0.5, 2.0, size=n)
    S = rng.normal(size=(m, n))
    values = {"v": v, "S": S.T.reshape(-1)}
    G = G_expr.value(values).reshape(n, n * (n + m))
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    z = np.concatenate([A.flatten("F"), B.flatten("F")])
    expect = (A * (alpha * v)[None, :] + B @ (beta[:, None] * S * alpha[None, :])).sum(axis=1)
    np.testing.assert_allclose(G @ z, expect, atol=1e-12)


def test_row_assembly_validates_inputs():
    with pytest.raises(ValueError):
        _signed_rows(np.array([0.5, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        _signed_rows(np.array([1.0, -1.0]), np.array([-0.2]))


def test_unit_sign_vector_gives_the_rows_of_its_entry(rng):
    # alpha = s e_j leaves in row i exactly the terms of entry (i, j) of
    # s (A diag(v) + B diag(beta) S), the envelope rows of synth_aarc: s v_j
    # on vec(A) column j*n + i and s beta_k S_kj on vec(B) column
    # n^2 + k*n + i, and stores no other coefficient
    n, m = 3, 2
    v, S = rng.uniform(0.5, 2.0, size=n), rng.normal(size=(m, n))
    values = {"v": v, "S": S.flatten("F")}
    beta = np.array([0.7, 1.3])
    rows, k = np.arange(n), np.arange(m)
    for j in range(n):
        for sign in (-1.0, 1.0):
            G_expr = _signed_rows(sign * np.eye(n)[j], beta)
            expect = np.zeros((n, n * (n + m)))
            expect[rows, j * n + rows] = sign * v[j]
            expect[rows[:, None], n * n + k * n + rows[:, None]] = \
                sign * beta * S[:, j]
            np.testing.assert_array_equal(
                G_expr.value(values).reshape(expect.shape), expect)
            assert G_expr.terms["v"].nnz == n
            assert G_expr.terms["S"].nnz == n * m


def test_stacked_pairs_equal_single_pair_calls(rng):
    # P pairs in one call are the row-wise stack of P one-pair calls
    n, m, P = 3, 2, 6
    alpha = rng.choice([-1.0, 1.0], size=(P, n))
    beta = rng.uniform(0.5, 1.5, size=(P, m))
    G_expr = _signed_rows(alpha, beta)
    d = n * (n + m)
    assert G_expr.rows == P * n * d
    singles = [_signed_rows(a, b)
               for a, b in zip(alpha, beta)]
    for _ in range(3):
        values = {"v": rng.uniform(0.5, 2.0, size=n),
                  "S": rng.normal(size=n * m)}
        np.testing.assert_allclose(
            G_expr.value(values).reshape(P * n, d),
            np.vstack([G.value(values).reshape(n, d) for G in singles]),
            atol=1e-12)
    with pytest.raises(ValueError):
        _signed_rows(alpha[:-1], beta)


def test_sign_model_has_one_multiplier_block():
    rng = np.random.default_rng(4)
    n, m = 2, 1
    poly = Polytope(G=rng.normal(size=(6, n * (n + m))),
                    h=rng.uniform(1.0, 2.0, size=6))
    spec = QuantizerSpec.uniform(0.5, m)
    model = _sign_model(poly, spec, n, "ess", "feasibility")
    assert list(model.robust) == ["Z"]
    assert model.robust["Z"].h_expr.rows == n * 2 ** (n + m)


@pytest.mark.parametrize("mode,upper", [("ss", 1.0), ("ess", np.inf)])
def test_both_modes_search_one_weight_block(mode, upper):
    # 'ss' is 'ess' with v pinned to one by the bounds of the same block
    rng = np.random.default_rng(4)
    n, m = 2, 1
    poly = Polytope(G=rng.normal(size=(6, n * (n + m))),
                    h=rng.uniform(1.0, 2.0, size=6))
    model = _sign_model(poly, QuantizerSpec.uniform(0.5, m), n, mode,
                        "feasibility")
    size, lb, ub = model.blocks["v"]
    assert size == n and lb.tolist() == [1.0] * n
    assert ub.tolist() == [upper] * n
    assert list(model.blocks) == ["v", "S"]


@pytest.mark.parametrize("objective", ["feasibility", "min-lambda"])
def test_ss_weights_are_exactly_one_on_every_path(sys1, part1, objective):
    # the pinned block's solved values are the bound itself, which the
    # 'ss' StabCertificate requires, on vertex cuts and on the Farkas LP,
    # over the data and at the plant point
    poly = prune_redundant(build_polytope(generate_dataset(sys1, part1, 100,
                                                           seed=1)))
    spec = QuantizerSpec.uniform(0.7, sys1.m)
    lams = []
    for target in (poly, plant_vec(sys1.A, sys1.B)):
        warm = synthesize_sign(target, spec, mode="ss", objective=objective)
        with fresh_solves():
            fresh = synthesize_sign(target, spec, mode="ss",
                                    objective=objective)
        for res in (warm, fresh):
            assert res.feasible and res.certificate.mode == "ss"
            assert np.array_equal(res.certificate.v, np.ones(sys1.n))
            lams.append(res.certificate.lam)
    if objective == "min-lambda":
        assert lams[0] == pytest.approx(lams[1], abs=1e-6)
        assert lams[2] == pytest.approx(lams[3], abs=1e-6)


@pytest.mark.parametrize("synth", [synthesize_sign, synthesize_aarc],
                         ids=["sign", "aarc"])
def test_every_certificate_carries_the_margin_eta(synth, sys1, part1):
    # eta is the constant ETA: every form, mode, objective and target
    # records it, the min-lambda certificates too, whose LPs do not use it
    poly = prune_redundant(build_polytope(generate_dataset(sys1, part1, 100,
                                                           seed=1)))
    spec = QuantizerSpec.uniform(0.7, sys1.m)
    for target in (poly, plant_vec(sys1.A, sys1.B)):
        for mode in ("ss", "ess"):
            for objective in ("feasibility", "min-lambda"):
                res = synth(target, spec, mode=mode, objective=objective)
                assert res.feasible, (mode, objective)
                assert res.certificate.eta == ETA == 1e-6


def test_sign_model_rows_run_alpha_outer_beta_inner(rng):
    # on a point the row sups are the signed row sums G z0, in row order
    n, m = 3, 2
    sys = LinearSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    z0 = np.concatenate([sys.A.flatten("F"), sys.B.flatten("F")])
    spec = QuantizerSpec.uniform(0.4, m)
    model = _sign_model(z0, spec, n, "ess", "feasibility")
    assert model.robust == {}
    v = rng.uniform(0.5, 2.0, size=n)
    S = rng.normal(size=(m, n))
    got = model.row_sups["Z"]({"v": v, "S": S.flatten("F")})
    expect = [(sys.A * v + sys.B @ (beta[:, None] * S)) @ alpha
              for alpha in sign_vectors(n) for beta in spec.beta_vertices()]
    np.testing.assert_allclose(got, np.concatenate(expect), atol=1e-12)


class _StatusOnCall:
    """A stand-in for lp_core.DEFAULT_BACKEND answering its k-th LP with
    status and no point, and solving every other one; by default a
    numerical failure on the first LP (the nonemptiness check on a
    polytope, always a fresh solve)."""

    def __init__(self, k=1, status="numerical-failure"):
        self.k, self.status, self.calls = k, status, 0
        self.inner = LinprogBackend()

    def solve(self, *args):
        self.calls += 1
        if self.calls == self.k:
            return self.status, None, None
        return self.inner.solve(*args)


def test_failed_nonemptiness_lp_is_not_taken_for_nonempty(monkeypatch):
    poly = _scalar_box(0.4, 0.6, 0.9, 1.1)
    monkeypatch.setattr(lp_core, "DEFAULT_BACKEND", _StatusOnCall())
    with pytest.raises(RuntimeError):
        synthesize_sign(poly, QuantizerSpec.uniform(1.0, 1))
    monkeypatch.setattr(lp_core, "DEFAULT_BACKEND", _StatusOnCall())
    with pytest.raises(RuntimeError):
        prune_redundant(poly)


def test_failed_lambda_probe_is_listed_and_counted_infeasible(sys1):
    # On the sys1 point at rho = 0.7 the ESS min-lambda probes run 1, 0.5,
    # 0.75, ...; the third is feasible, so refusing it moves the bisection
    # above 0.75.
    z = plant_vec(sys1.A, sys1.B)
    spec = QuantizerSpec.uniform(0.7, sys1.m)

    def least_gain(backend=None):
        # the probes reach the backend only on the fresh path
        with fresh_solves(backend):
            return synthesize_sign(z, spec, mode="ess",
                                   objective="min-lambda")

    assert least_gain().extras["failed_lam"] == []
    failed = least_gain(_StatusOnCall(3, "numerical-failure"))
    refused = least_gain(_StatusOnCall(3, "infeasible"))
    assert failed.extras["failed_lam"] == [0.75]
    assert refused.extras["failed_lam"] == []
    assert failed.status == refused.status == "feasible"
    assert failed.certificate.lam == refused.certificate.lam > 0.75


# ---------------------------------------------------------------------------
# hand-checkable plant boxes


def test_scalar_box_minimal_gain():
    # best S centers A + B S on zero: lam* = 0.15 for A in [.4,.6], B in [.9,1.1]
    poly = _scalar_box(0.4, 0.6, 0.9, 1.1)
    spec = QuantizerSpec.uniform(1.0, 1)
    res = synthesize_sign(poly, spec, mode="ss", objective="min-lambda")
    assert res.feasible
    assert res.certificate.lam == pytest.approx(0.15, abs=1e-6)


def test_scalar_box_gain_dominates_every_member_plant():
    poly = _scalar_box(0.4, 0.6, 0.9, 1.1)
    spec = QuantizerSpec.uniform(0.6, 1)
    res = synthesize_sign(poly, spec, mode="ss", objective="min-lambda")
    assert res.feasible
    cert = res.certificate
    for vtx in enumerate_vertices(poly):
        sys = LinearSystem(A=vtx[:1].reshape(1, 1), B=vtx[1:].reshape(1, 1))
        gain = closed_loop_vertex_gain(sys, cert.K, cert.v, spec)
        assert gain <= cert.lam + 1e-7


def test_singleton_reduces_to_nominal(sys1):
    poly = _singleton(sys1)
    for mode in ("ss", "ess"):
        spec = QuantizerSpec.uniform(0.7, 2)
        data = synthesize_sign(poly, spec, mode=mode, objective="min-lambda")
        nominal = synthesize_sign(plant_vec(sys1.A, sys1.B), spec,
                                  mode=mode, objective="min-lambda")
        assert data.feasible and nominal.feasible
        tol = 1e-6 if mode == "ss" else 3e-4
        assert data.certificate.lam == pytest.approx(nominal.certificate.lam,
                                                     abs=tol)


def test_infeasible_at_coarse_density(sys1):
    # the known-plant threshold is ~0.311; a singleton data set inherits it
    poly = _singleton(sys1)
    res = synthesize_sign(poly, QuantizerSpec.uniform(0.2, 2), mode="ss")
    assert res.status == "infeasible"


# ---------------------------------------------------------------------------
# data-driven round trip


def test_data_round_trip_certificate_verifies(sys1, part1):
    ds = generate_dataset(sys1, part1, 60, seed=3)
    poly = prune_redundant(build_polytope(ds))
    spec = QuantizerSpec.uniform(0.7, 2)
    res = synthesize_sign(poly, spec, mode="ess")
    assert res.feasible
    cert = res.certificate
    assert cert.lam < 1.0
    report = robust_verify(poly, cert, spec)
    assert report.verified
    assert report.worst_margin >= -1e-7
    # the unknown true plant is consistent, so its closed loop is covered
    gain = closed_loop_vertex_gain(sys1, cert.K, cert.v, spec)
    assert gain <= cert.lam + 1e-6


def test_min_lambda_no_worse_than_feasibility(sys1, part1):
    ds = generate_dataset(sys1, part1, 60, seed=3)
    poly = prune_redundant(build_polytope(ds))
    spec = QuantizerSpec.uniform(0.8, 2)
    feas = synthesize_sign(poly, spec, mode="ess")
    best = synthesize_sign(poly, spec, mode="ess", objective="min-lambda")
    assert best.certificate.lam <= feas.certificate.lam + 1e-4


def test_multiplier_blocks_certify_lambda(sys1, part1):
    ds = generate_dataset(sys1, part1, 40, seed=12)
    poly = prune_redundant(build_polytope(ds))
    spec = QuantizerSpec.uniform(0.8, 2)
    res = synthesize_sign(poly, spec, mode="ess")
    cert, Z = res.certificate, res.extras["Z"]
    pairs = 2 ** (sys1.n + sys1.m)
    assert list(Z) == ["Z"]
    z = Z["Z"]
    assert z.shape == (sys1.n * pairs, poly.num_faces)
    assert np.all(z >= -1e-12)
    # weak duality: every row's certified rowsum stays below lam * v_i,
    # rows ordered (pair, i)
    assert np.all(z @ poly.h <= cert.lam * np.tile(cert.v, pairs) + 1e-7)


@pytest.mark.parametrize("rho", [0.3, 0.35])
def test_sys2_ess_feasibility_at_coarse_density_is_answered(sys2, part2, rho):
    # sys2/T=60, dataset seed 1, pruned: ESS feasibility at rho = 0.3 and
    # 0.35 has a clear answer, which the Farkas LP misses (linprog's 'highs'
    # and 'highs-ds' end in a numerical failure) and the vertex cuts reach
    poly = prune_redundant(build_polytope(generate_dataset(sys2, part2, 60,
                                                           seed=1)))
    if poly.num_faces != 163:
        pytest.fail(f"pruned to {poly.num_faces} faces, not 163")
    res = synthesize_sign(poly, QuantizerSpec.uniform(rho, 3), mode="ess")
    assert res.status == "infeasible"


# ---------------------------------------------------------------------------
# guards and size accounting


def test_rejects_empty_data_polytope():
    empty = Polytope(G=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                     h=np.array([-1.0, -1.0]))
    with pytest.raises(ValueError):
        synthesize_sign(empty, QuantizerSpec.uniform(0.5, 1))


def test_rejects_oversized_enumeration():
    d = 21 * 22  # n = 21, m = 1
    poly = Polytope(G=np.zeros((1, d)), h=np.ones(1))
    with pytest.raises(ValueError):
        synthesize_sign(poly, QuantizerSpec.uniform(0.5, 1))


@pytest.mark.parametrize("n,m,L", [(1, 1, 2), (2, 1, 6), (2, 2, 10),
                                   (3, 2, 8)])
def test_size_record_matches_assembled_model(n, m, L):
    rng = np.random.default_rng(n * 10 + m)
    G = rng.normal(size=(L, n * (n + m)))
    h = rng.uniform(1.0, 2.0, size=L)
    poly = Polytope(G=G, h=h)
    spec = QuantizerSpec.uniform(0.5, m)
    model = _sign_model(poly, spec, n, "ess", "feasibility")
    counts = count_constraints_sign(n, m, L)
    assert model.num_ineq_rows == counts["inequality_rows"]
    c, _, _, A_eq, _, _ = model.assemble()
    assert A_eq.shape[0] == counts["equality_rows"]
    farkas_vars = len(c) - counts["search_variables"]
    assert farkas_vars == counts["farkas_variables"]
    assert counts["robust_inequalities"] == n * 2 ** (n + m)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_size_record_matches_row_separable_model(n, m):
    rng = np.random.default_rng(31 + 5 * n + m)
    sys = random_stabilizable_system(rng, n, m)
    poly = random_separable_polytope(rng, sys.A, sys.B)
    row_faces = [np.count_nonzero(poly.G[:, i::n].any(axis=1))
                 for i in range(n)]
    spec = QuantizerSpec.uniform(0.5, m)
    model = _sign_model(poly, spec, n, "ess", "feasibility")
    counts = count_constraints_sign(n, m, row_faces)
    assert model.num_ineq_rows == counts["inequality_rows"]
    c, _, _, A_eq, _, _ = model.assemble()
    assert A_eq.shape[0] == counts["equality_rows"]
    farkas_vars = len(c) - counts["search_variables"]
    assert farkas_vars == counts["farkas_variables"]
    assert counts["farkas_variables"] == 2 ** (n + m) * sum(row_faces)
    assert counts["equality_rows"] == 2 ** (n + m) * n * (n + m)
    # the record a synthesis reports is the model it built
    res = synthesize_sign(poly, spec, mode="ss", objective="min-lambda")
    assert res.extras["counts"] == counts


def test_size_record_rejects_wrong_row_count():
    with pytest.raises(ValueError):
        count_constraints_sign(3, 1, [4, 4])
