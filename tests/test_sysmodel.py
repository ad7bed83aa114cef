"""Plant model, scaled norms, quantized simulation, certificate checking."""

import numpy as np
import pytest

from quantstab import (
    LinearSystem,
    QuantizerSpec,
    StabCertificate,
    closed_loop_vertex_gain,
    decay_check,
    plant_vec,
    recover_controller,
    scaled_infty_norm,
    sign_vectors,
    simulate_quantized,
    synthesize_aarc,
)

from conftest import random_stabilizable_system
from oracles import check_cert


def test_recover_controller_examples():
    S = np.array([[1.0, 2.0]])
    np.testing.assert_allclose(recover_controller(S, np.ones(2)), S)
    np.testing.assert_allclose(
        recover_controller(np.zeros((2, 3)), np.array([1.0, 2.0, 3.0])),
        np.zeros((2, 3)))
    np.testing.assert_allclose(
        recover_controller(S, np.array([2.0, 4.0])), [[0.5, 0.5]])


def test_recover_controller_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        recover_controller(np.ones((1, 2)), np.array([1.0, 0.0]))


def test_scaled_norm_basics():
    assert scaled_infty_norm(np.zeros((3, 3)), np.ones(3)) == 0.0
    assert scaled_infty_norm(0.5 * np.eye(2), np.ones(2)) == pytest.approx(0.5)


def test_scaled_norm_open_loop_benchmark(sys1):
    # worst row of |A| has absolute sum 0.3974 + 0.5 + 0.299
    val = scaled_infty_norm(sys1.A, np.ones(3))
    assert val == pytest.approx(1.1964, abs=1e-4)
    assert val > 1.0


def test_scaled_norm_matches_sign_enumeration(rng):
    # max_i sum_j |A_ij| v_j / v_i equals the max over sign patterns of
    # the signed row sums; checks the absolute-value convention
    for n in (2, 3, 4):
        A = rng.normal(size=(n, n))
        v = rng.uniform(0.5, 2.0, size=n)
        direct = scaled_infty_norm(A, v)
        by_signs = max(
            np.max((A * alpha[None, :]) @ v / v)
            for alpha in sign_vectors(n))
        assert direct == pytest.approx(by_signs, abs=1e-12)


def test_scaled_norm_rejects_bad_weights():
    with pytest.raises(ValueError):
        scaled_infty_norm(np.eye(2), np.array([1.0, -1.0]))


# ---------------------------------------------------------------------------
# vertex gain of the sector family


def test_vertex_gain_no_input_reduces_to_open_loop(rng):
    A = rng.normal(size=(3, 3))
    sys = LinearSystem(A=A, B=np.zeros((3, 2)))
    spec = QuantizerSpec.uniform(0.3, 2)
    K = rng.normal(size=(2, 3))
    assert closed_loop_vertex_gain(sys, K, np.ones(3), spec) == pytest.approx(
        scaled_infty_norm(A, np.ones(3)))


def test_vertex_gain_zero_sector_is_single_vertex(rng):
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 1))
    K = rng.normal(size=(1, 2))
    sys = LinearSystem(A=A, B=B)
    spec = QuantizerSpec.uniform(1.0, 1)
    assert closed_loop_vertex_gain(sys, K, np.ones(2), spec) == pytest.approx(
        scaled_infty_norm(A + B @ K, np.ones(2)))


def test_vertex_gain_scalar_hand_computed():
    sys = LinearSystem(A=np.array([[0.5]]), B=np.array([[1.0]]))
    spec = QuantizerSpec.uniform(0.5, 1)  # delta = 1/3
    K = np.array([[-0.5]])
    # vertices beta in {2/3, 4/3}: |0.5 - beta 0.5| = 1/6 at both
    assert closed_loop_vertex_gain(sys, K, np.ones(1), spec) == pytest.approx(
        1.0 / 6.0, abs=1e-12)


def test_vertex_gain_monotone_in_sector(rng):
    sys = random_stabilizable_system(rng, 3, 2)
    K = rng.normal(size=(2, 3))
    v = rng.uniform(0.5, 2.0, size=3)
    gains = [closed_loop_vertex_gain(sys, K, v, QuantizerSpec.uniform(r, 2))
             for r in (0.9, 0.7, 0.5, 0.3)]
    assert np.all(np.diff(gains) >= -1e-12)


# ---------------------------------------------------------------------------
# simulation


def test_simulate_zero_start_stays_zero(sys1):
    spec = QuantizerSpec.uniform(0.5, 2)
    traj, status = simulate_quantized(sys1, np.zeros((2, 3)), spec,
                                      np.zeros(3), 50)
    assert status == "ok"
    np.testing.assert_array_equal(traj, np.zeros((51, 3)))


def test_simulate_without_input_is_matrix_powers(rng):
    A = 0.5 * rng.normal(size=(3, 3))
    sys = LinearSystem(A=A, B=np.zeros((3, 1)))
    spec = QuantizerSpec.uniform(0.5, 1)
    x0 = rng.normal(size=3)
    traj, status = simulate_quantized(sys, np.zeros((1, 3)), spec, x0, 10)
    assert status == "ok"
    expect = x0
    for t in range(11):
        np.testing.assert_allclose(traj[t], expect, atol=1e-12)
        expect = A @ expect


def test_simulate_unit_density_equals_linear_loop(sys1, rng):
    spec = QuantizerSpec.uniform(1.0, 2)
    K = rng.normal(size=(2, 3)) * 0.2
    x0 = rng.normal(size=3)
    traj, _ = simulate_quantized(sys1, K, spec, x0, 20)
    Acl = sys1.A + sys1.B @ K
    expect = x0
    for t in range(traj.shape[0]):
        np.testing.assert_allclose(traj[t], expect, atol=1e-9)
        expect = Acl @ expect


def test_simulate_reports_divergence():
    sys = LinearSystem(A=2.0 * np.eye(2), B=np.zeros((2, 1)))
    spec = QuantizerSpec.uniform(0.5, 1)
    traj, status = simulate_quantized(sys, np.zeros((1, 2)), spec,
                                      np.ones(2), 200)
    assert status == "diverged"
    assert traj.shape[0] < 201


# ---------------------------------------------------------------------------
# certificate checking and decay


def test_check_cert_trivial_slack():
    sys = LinearSystem(A=np.zeros((2, 2)), B=np.zeros((2, 1)))
    cert = StabCertificate(v=np.ones(2), S=np.zeros((1, 2)), lam=0.0,
                          eta=0.5, M=np.zeros((2, 2)))
    ok, margin = check_cert(sys, cert, QuantizerSpec.uniform(0.5, 1))
    assert ok
    assert margin == pytest.approx(0.5)


def test_check_cert_rejects_expanding_plant():
    sys = LinearSystem(A=2.0 * np.eye(2), B=np.zeros((2, 1)))
    cert = StabCertificate(v=np.ones(2), S=np.zeros((1, 2)), lam=0.5,
                          eta=1e-6)
    ok, margin = check_cert(sys, cert, QuantizerSpec.uniform(0.5, 1))
    assert not ok
    assert margin < -0.9


def test_simulation_rejects_negative_step_count(sys1):
    # a one-row "ok" trajectory would pass any decay check vacuously
    with pytest.raises(ValueError, match="step count"):
        simulate_quantized(sys1, np.zeros((2, 3)),
                           QuantizerSpec.uniform(0.5, 2), np.ones(3), -5)


def test_simulation_rejects_a_gain_of_the_wrong_shape(sys1):
    # checked before the loop, so also when no step would use K
    with pytest.raises(ValueError, match="K is 3 x 2, but the plant needs "
                                         "m x n = 2 x 3"):
        simulate_quantized(sys1, np.zeros((3, 2)),
                           QuantizerSpec.uniform(0.5, 2), np.ones(3), 0)


@pytest.mark.parametrize("channels", [1, 3])
def test_spec_of_another_channel_count_is_refused(sys1, channels):
    # one beta must not stand in for both channels of sys1, nor three
    # betas fail to broadcast
    spec = QuantizerSpec.uniform(0.5, 2)
    cert = synthesize_aarc(plant_vec(sys1.A, sys1.B), spec).certificate
    wrong = QuantizerSpec.uniform(0.5, channels)
    message = f"the plant has m = 2 inputs, but the spec quantizes {channels}"
    with pytest.raises(ValueError, match=message):
        closed_loop_vertex_gain(sys1, cert.K, cert.v, wrong)
    with pytest.raises(ValueError, match=message):
        check_cert(sys1, cert, wrong)


def test_check_cert_round_trip_with_synthesis(sys1):
    spec = QuantizerSpec.uniform(0.5, 2)
    res = synthesize_aarc(plant_vec(sys1.A, sys1.B), spec)
    assert res.feasible
    ok, margin = check_cert(sys1, res.certificate, spec)
    assert ok
    assert margin >= -1e-9


def test_certificate_invariants_enforced():
    with pytest.raises(ValueError):
        StabCertificate(v=np.array([1.0, -1.0]), S=np.zeros((1, 2)),
                        lam=0.5, eta=1e-6)
    with pytest.raises(ValueError):
        StabCertificate(v=np.array([2.0, 1.0]), S=np.zeros((1, 2)),
                        lam=0.5, eta=1e-6, mode="ss")
    cert = StabCertificate(v=np.array([2.0, 4.0]), S=np.array([[1.0, 2.0]]),
                           lam=0.5, eta=1e-6)
    np.testing.assert_allclose(cert.K, [[0.5, 0.5]])


def test_certificate_json_round_trip():
    cert = StabCertificate(v=np.array([1.0, 2.0]), S=np.array([[0.3, -0.4]]),
                           lam=0.7, eta=1e-6)
    d = cert.to_json_dict()
    assert d["status"] == "feasible"
    back = StabCertificate.from_json_dict(d)
    np.testing.assert_allclose(back.v, cert.v)
    np.testing.assert_allclose(back.S, cert.S)
    np.testing.assert_allclose(back.K, cert.K)
    assert back.lam == cert.lam


def test_decay_check_examples():
    assert decay_check(np.zeros((5, 2)), np.ones(2), 0.0)
    traj = np.array([[0.5 ** t] for t in range(10)])
    assert decay_check(traj, np.ones(1), 0.5)
    assert not decay_check(traj, np.ones(1), 0.3)


def test_decay_check_weighted(rng):
    v = rng.uniform(0.5, 2.0, size=3)
    lam = 0.8
    x = rng.normal(size=3)
    traj = [x]
    for _ in range(20):
        # exact decay in the weighted norm: shrink toward zero at rate lam
        x = lam * x
        traj.append(x)
    assert decay_check(np.array(traj), v, lam)


def test_decay_check_rejects_negative_rate():
    with pytest.raises(ValueError):
        decay_check(np.zeros((3, 1)), np.ones(1), -0.1)


def test_builtin_plants_shape(sys1, sys2):
    assert (sys1.n, sys1.m) == (3, 2)
    assert (sys2.n, sys2.m) == (5, 3)
    np.testing.assert_allclose(sys2.B[:3], np.eye(3))
    np.testing.assert_allclose(sys2.B[3:], np.zeros((2, 3)))
    assert np.allclose(sys2.A, sys2.A.T)
