"""Datasets, the plant-consistency polytope, widening, and pruning."""

import json

import numpy as np
import pytest

from quantstab import (
    DataSample,
    Dataset,
    LinearSystem,
    Partition,
    Polytope,
    QuantizerSpec,
    build_polytope,
    builtin_partition,
    builtin_system,
    contains_plant,
    generate_dataset,
    lp_core,
    plant_vec,
    prune_redundant,
    singleton_polytope,
    synthesize_sign,
)

from quantstab.consistency import _hull_verdicts

from conftest import (box_polytope, farkas_status, fresh_solves,
                      random_separable_polytope, random_stabilizable_system)
from oracles import polytope_row_by_row, prune_whole_polytope


def _scalar_sample(x, u, p, q):
    return DataSample(x_hat=np.array([x]), u_hat=np.array([u]),
                      p=np.array([p]), q=np.array([q]))


def test_generate_empty_dataset(sys1, part1):
    ds = generate_dataset(sys1, part1, 0, seed=0)
    assert len(ds) == 0


def test_generate_is_seed_deterministic(sys1, part1):
    a = generate_dataset(sys1, part1, 25, seed=42)
    b = generate_dataset(sys1, part1, 25, seed=42)
    assert a.to_json_dict() == b.to_json_dict()
    c = generate_dataset(sys1, part1, 25, seed=43)
    assert a.to_json_dict() != c.to_json_dict()


def test_generated_data_always_contains_truth(sys1, sys2, part1, part2):
    for sys, part in ((sys1, part1), (sys2, part2)):
        ds = generate_dataset(sys, part, 40, seed=9)
        poly = build_polytope(ds)
        assert contains_plant(poly, sys.A, sys.B)


def test_noise_widening_keeps_truth_under_noisy_data(sys1, part1):
    # generate_dataset records the noise as epsilon, which build_polytope
    # adds to every finite bound
    noise = 0.05
    ds = generate_dataset(sys1, part1, 60, seed=2, noise=noise)
    assert ds.epsilon == noise
    assert contains_plant(build_polytope(ds), sys1.A, sys1.B)


def test_widen_examples():
    s = _scalar_sample(1.0, 0.0, 0.3, 0.4)
    same = build_polytope(Dataset(samples=[s], epsilon=0.0))
    np.testing.assert_allclose(same.h, [0.4, -0.3])
    wide = build_polytope(Dataset(samples=[s], epsilon=0.05))
    np.testing.assert_allclose(wide.h, [0.4 + 0.05, -(0.3 - 0.05)])
    np.testing.assert_array_equal(wide.G, same.G)

    # the face of the infinite upper bound stays omitted
    unbounded = _scalar_sample(1.0, 0.0, 4.0, np.inf)
    w = build_polytope(Dataset(samples=[unbounded], epsilon=0.1))
    np.testing.assert_array_equal(w.G, [[-1.0, 0.0]])
    np.testing.assert_allclose(w.h, [-(4.0 - 0.1)])

    with pytest.raises(ValueError):
        Dataset(samples=[s], epsilon=-0.01)


def test_widening_only_relaxes(sys1, part1):
    ds = generate_dataset(sys1, part1, 30, seed=5)
    base = build_polytope(ds)
    wide = build_polytope(Dataset(ds.samples, ds.epsilon + 0.2))
    np.testing.assert_array_equal(wide.G, base.G)
    assert np.all(wide.h >= base.h)


# ---------------------------------------------------------------------------
# polytope construction


def test_single_sample_polytope_rows():
    ds = Dataset(samples=[_scalar_sample(1.0, 0.0, -1.0, 1.0)], epsilon=0.0)
    poly = build_polytope(ds)
    assert poly.num_faces == 2 and poly.dim == 2
    # A in [-1, 1], B unconstrained by the zero input
    assert contains_plant(poly, np.array([[0.9]]), np.array([[123.0]]))
    assert not contains_plant(poly, np.array([[1.2]]), np.array([[0.0]]))


def test_contains_plant_checks_shape_on_a_faceless_polytope():
    free = Polytope(G=np.zeros((0, 15)), h=np.zeros(0))
    assert contains_plant(free, np.zeros((3, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="dimensions"):
        contains_plant(free, np.zeros((2, 2)), np.zeros((2, 1)))


def test_sample_scaling_divides_bounds():
    ds = Dataset(samples=[_scalar_sample(2.0, 0.0, -1.0, 1.0)], epsilon=0.0)
    poly = build_polytope(ds)
    assert contains_plant(poly, np.array([[0.49]]), np.array([[0.0]]))
    assert not contains_plant(poly, np.array([[0.51]]), np.array([[0.0]]))


def test_row_count_with_all_finite_bins(sys1):
    part = Partition.regular(-50, 50, 1)  # wide enough: no infinite bins hit
    ds = generate_dataset(sys1, part, 17, seed=1)
    poly = build_polytope(ds)
    assert poly.num_faces == 2 * sys1.n * 17


def test_infinite_bins_are_dropped():
    s = DataSample(x_hat=np.array([1.0]), u_hat=np.array([0.5]),
                   p=np.array([-np.inf]), q=np.array([2.0]))
    poly = build_polytope(Dataset(samples=[s], epsilon=0.0))
    assert poly.num_faces == 1


def test_empty_dataset_has_no_polytope():
    with pytest.raises(ValueError):
        build_polytope(Dataset(samples=[], epsilon=0.0))


def test_kronecker_rows_match_direct_residuals(rng):
    n, m = 3, 2
    sys = LinearSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    part = Partition.regular(-100, 100, 1)
    ds = generate_dataset(sys, part, 12, seed=8)
    poly = build_polytope(ds)
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    z = plant_vec(A, B)
    rows = poly.G @ z
    k = 0
    for s in ds.samples:
        pred = A @ s.x_hat + B @ s.u_hat
        for i in range(n):
            if np.isfinite(s.q[i]):
                assert rows[k] == pytest.approx(pred[i], abs=1e-12)
                k += 1
            if np.isfinite(s.p[i]):
                assert rows[k] == pytest.approx(-pred[i], abs=1e-12)
                k += 1
    assert k == poly.num_faces


@pytest.mark.parametrize("system,partition,T,noise", [
    ("sys1", "p1", 100, 0.0), ("sys1", "p1", 17, 0.05),
    ("sys2", "p2", 60, 0.0), ("sys2", "p2", 5, 0.05),
])
def test_polytope_equals_the_row_by_row_build_bit_for_bit(system, partition,
                                                          T, noise):
    ds = generate_dataset(builtin_system(system),
                          builtin_partition(partition), T, 1, noise=noise)
    _assert_built_row_by_row(ds)


def test_polytope_keeps_signed_zeros_and_drops_infinite_bounds():
    samples = [DataSample(x_hat=np.array([1.0, -0.0]),
                          u_hat=np.array([-2.0]), p=np.array([-np.inf, 0.5]),
                          q=np.array([3.0, np.inf])),
               DataSample(x_hat=np.array([0.0, -1.5]), u_hat=np.array([0.0]),
                          p=np.array([-1.0, -np.inf]),
                          q=np.array([np.inf, np.inf]))]
    _assert_built_row_by_row(Dataset(samples, 0.1))
    _assert_built_row_by_row(Dataset(samples[1:], 0.0))


def _assert_built_row_by_row(ds):
    G, h = polytope_row_by_row(ds)
    poly = build_polytope(ds)
    assert poly.G.shape == G.shape
    assert poly.G.tobytes() == G.tobytes()
    assert poly.h.tobytes() == h.tobytes()


def test_contains_plant_trivial_when_no_rows():
    s = DataSample(x_hat=np.array([1.0]), u_hat=np.array([0.0]),
                   p=np.array([-np.inf]), q=np.array([np.inf]))
    poly = build_polytope(Dataset(samples=[s], epsilon=0.0))
    assert poly.num_faces == 0
    assert contains_plant(poly, np.array([[1e9]]), np.array([[-1e9]]))


def _json_round_trip(ds):
    return Dataset.from_json_dict(json.loads(json.dumps(ds.to_json_dict())))


def test_dataset_json_round_trip(sys1, part1):
    ds = generate_dataset(sys1, part1, 15, seed=3)
    back = _json_round_trip(ds)
    assert back.to_json_dict() == ds.to_json_dict()
    # infinities survive the null encoding
    s = DataSample(x_hat=np.array([1.0]), u_hat=np.array([0.0]),
                   p=np.array([-np.inf]), q=np.array([4.0]))
    loaded = _json_round_trip(Dataset(samples=[s], epsilon=0.1))
    assert np.isneginf(loaded.samples[0].p[0])
    assert loaded.epsilon == pytest.approx(0.1)


def test_truncate_is_prefix(sys1, part1):
    ds = generate_dataset(sys1, part1, 20, seed=4)
    head = Dataset(ds.samples[:8], ds.epsilon, ds.meta)
    assert len(head) == 8
    for a, b in zip(head.samples, ds.samples[:8]):
        np.testing.assert_array_equal(a.x_hat, b.x_hat)
        np.testing.assert_array_equal(a.q, b.q)


# ---------------------------------------------------------------------------
# pruning


def _mutually_contained(P, Q):
    for first, second in ((P, Q), (Q, P)):
        if farkas_status(first, second) != "optimal":
            return False
    return True


def test_prune_removes_duplicate_face():
    box = box_polytope(np.zeros(2), np.ones(2))
    dup = box.__class__(G=np.vstack([box.G, box.G[:1]]),
                        h=np.concatenate([box.h, box.h[:1]]))
    pruned = prune_redundant(dup)
    assert pruned.num_faces == 4
    assert _mutually_contained(pruned, box)


def test_prune_drops_slack_face():
    box = box_polytope(np.zeros(2), np.ones(2))
    loose = box.__class__(G=np.vstack([box.G, [[1.0, 0.0]]]),
                          h=np.concatenate([box.h, [2.0]]))
    pruned = prune_redundant(loose)
    assert pruned.num_faces == 4
    assert _mutually_contained(pruned, box)


def test_prune_preserves_set_on_data(sys1, part1):
    ds = generate_dataset(sys1, part1, 30, seed=6)
    poly = build_polytope(ds)
    pruned = prune_redundant(poly)
    assert pruned.num_faces <= poly.num_faces
    assert _mutually_contained(pruned, poly)
    assert contains_plant(pruned, sys1.A, sys1.B)


def test_prune_refuses_empty_set():
    empty = box_polytope(np.zeros(1), np.ones(1))
    bad = empty.__class__(G=np.vstack([empty.G, [[-1.0]]]),
                          h=np.concatenate([empty.h, [-5.0]]))
    with pytest.raises(ValueError):
        prune_redundant(bad)


def test_nested_prefix_polytopes_shrink(sys1, part1):
    ds = generate_dataset(sys1, part1, 40, seed=10)
    small = build_polytope(Dataset(ds.samples[:15], ds.epsilon, ds.meta))
    large = build_polytope(ds)
    # every face of the prefix polytope appears in the full one, so the
    # full polytope is contained in the prefix polytope
    assert farkas_status(large, small) == "optimal"


def _assert_prunes_like_whole_polytope(poly):
    """The warm session and a fresh linprog per face (the reference path)
    keep exactly the oracle's faces, in order, and every face the dual
    hulls settle without an LP, dropped or kept, is settled as the oracle
    does.  Returns the count of faces the hulls keep."""
    keep = prune_whole_polytope(poly)
    warm = prune_redundant(poly)
    with fresh_solves():
        fresh = prune_redundant(poly)
    for pruned in (warm, fresh):
        np.testing.assert_array_equal(pruned.G, poly.G[keep])
        np.testing.assert_array_equal(pruned.h, poly.h[keep])
    settled = 0
    for hull in poly.hulls:
        if hull is not None:
            drop, kept = _hull_verdicts(hull)
            assert set(hull.faces[kept]) <= set(keep)
            assert not set(hull.faces[drop]) & set(keep)
            settled += kept.sum()
    return settled


@pytest.mark.parametrize("system,partition,T",
                         [("sys1", "p1", 100), ("sys2", "p2", 60)])
def test_prune_per_component_matches_whole_polytope_on_data(system,
                                                            partition, T):
    plant = builtin_system(system)
    ds = generate_dataset(plant, builtin_partition(partition), T, 1)
    assert _assert_prunes_like_whole_polytope(build_polytope(ds)) > 0


def test_prune_per_component_matches_whole_polytope_on_random_products():
    rng = np.random.default_rng(8)
    for _ in range(6):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        sys = random_stabilizable_system(rng, n, m)
        poly = random_separable_polytope(rng, sys.A, sys.B)
        # a repeated face and a slack one, so some faces must go, then a
        # scaled duplicate and a duplicate looser by less than PRUNE_TOL
        G = np.vstack([poly.G, poly.G[:1], poly.G[1:2], 2 * poly.G[2:3],
                       poly.G[3:4]])
        h = np.concatenate([poly.h, poly.h[:1], poly.h[1:2] + 0.5,
                            2 * poly.h[2:3], poly.h[3:4] + 1e-10])
        _assert_prunes_like_whole_polytope(Polytope(G=G, h=h))


def test_prune_of_a_flat_component_matches_whole_polytope(sys1):
    # one slack face joins the singleton's columns into one component
    point = singleton_polytope(sys1)
    G = np.vstack([point.G, np.ones(point.dim)])
    h = np.append(point.h, plant_vec(sys1.A, sys1.B).sum() + 1.0)
    _assert_prunes_like_whole_polytope(Polytope(G=G, h=h))


def test_dual_hull_leaves_few_faces_to_the_lp_test(monkeypatch, sys1, part1):
    runs = []
    warm_run = lp_core._WarmLP.run

    def counted(self):
        runs.append(1)
        return warm_run(self)

    monkeypatch.setattr(lp_core._WarmLP, "run", counted)
    poly = build_polytope(generate_dataset(sys1, part1, 100, 1))
    assert prune_redundant(poly).num_faces == 48
    # a Chebyshev LP per component, and at most one LP test more each
    assert len(runs) <= 2 * (poly.components[1].max() + 1)


def _sorted_rows(a):
    return a[np.lexsort(np.round(a, 6).T[::-1])]


@pytest.mark.parametrize("system,partition,T",
                         [("sys1", "p1", 100), ("sys2", "p2", 60)])
def test_pruned_polytope_inherits_the_hulls_of_a_fresh_build(system,
                                                              partition, T):
    plant = builtin_system(system)
    ds = generate_dataset(plant, builtin_partition(partition), T, 1)
    pruned = prune_redundant(build_polytope(ds))
    assert "hulls" in vars(pruned)
    fresh = Polytope(G=pruned.G, h=pruned.h).hulls
    assert len(pruned.hulls) == len(fresh)
    for hull, ref in zip(pruned.hulls, fresh):
        np.testing.assert_array_equal(hull.faces, ref.faces)
        np.testing.assert_array_equal(hull.cols, ref.cols)
        np.testing.assert_array_equal(hull.G,
                                      pruned.G[np.ix_(hull.faces, hull.cols)])
        np.testing.assert_array_equal(hull.h, pruned.h[hull.faces])
        assert hull.bounded == ref.bounded
        assert hull.vertices.shape == ref.vertices.shape
        np.testing.assert_allclose(_sorted_rows(hull.vertices),
                                   _sorted_rows(ref.vertices), atol=1e-9)
        assert ({tuple(sorted(f)) for f in hull.faces[hull.simplices]}
                == {tuple(sorted(f)) for f in ref.faces[ref.simplices]})


def test_a_dropped_vertex_face_leaves_the_hulls_to_a_fresh_build():
    # face 0 and its exact copy share a dual point: qhull spans the vertex
    # with face 0, and the LP test keeps the later copy
    rng = np.random.default_rng(8)
    sys = random_stabilizable_system(rng, 2, 1)
    poly = random_separable_polytope(rng, sys.A, sys.B)
    poly = Polytope(G=np.vstack([poly.G, poly.G[:1]]),
                    h=np.append(poly.h, poly.h[0]))
    hull = poly.hulls[poly.components[0][0]]
    assert 0 in hull.faces[hull.simplices]
    _assert_prunes_like_whole_polytope(poly)
    pruned = prune_redundant(poly)
    assert "hulls" not in vars(pruned)
    for hull in pruned.hulls:
        np.testing.assert_array_equal(hull.G,
                                      pruned.G[np.ix_(hull.faces, hull.cols)])


def test_synthesis_on_a_pruned_polytope_solves_no_nonemptiness_lp(
        monkeypatch, sys1, part1):
    pruned = prune_redundant(build_polytope(generate_dataset(sys1, part1,
                                                             100, 1)))

    def solved(*args):
        pytest.fail("a fresh LP was solved")

    def built(*args):
        pytest.fail("a dual hull was built")

    monkeypatch.setattr(lp_core.LinprogBackend, "solve", solved)
    monkeypatch.setattr(lp_core, "_dual_hull", built)
    res = synthesize_sign(pruned, QuantizerSpec.uniform(0.7, sys1.m),
                          mode="ess")
    assert res.status == "feasible"


def test_prune_drops_an_all_zero_face():
    box = box_polytope(np.zeros(2), np.ones(2))
    G = np.vstack([box.G[:2], np.zeros((1, 2)), box.G[2:]])
    h = np.concatenate([box.h[:2], [0.5], box.h[2:]])
    poly = Polytope(G=G, h=h)
    _assert_prunes_like_whole_polytope(poly)
    assert prune_redundant(poly).num_faces == 4
