"""Known-plant synthesis: the two LP forms, bisection, frozen references."""

import numpy as np
import pytest

from quantstab import (
    LinearSystem,
    NominalProblem,
    QuantizerSpec,
    SynthResult,
    closed_loop_vertex_gain,
    min_feasible_rho,
    plant_vec,
    robust_verify,
    singleton_polytope,
    synthesize_aarc,
    synthesize_nominal_sign,
    synthesize_sign,
)

from quantstab.synth_sign import bisect_least

from conftest import random_stabilizable_system
from oracles import check_cert


def _at_plant(synth, sys, rho, mode="ess", objective="feasibility"):
    """synth on the known plant: the one-point set plant_vec(A, B)."""
    return synth(plant_vec(sys.A, sys.B), QuantizerSpec.uniform(rho, sys.m),
                 mode=mode, objective=objective)


@pytest.mark.parametrize("synth", [synthesize_aarc, synthesize_sign])
def test_benchmark_feasible_above_threshold(sys1, synth):
    res = _at_plant(synth, sys1, 0.5, mode="ss")
    assert res.feasible
    assert res.certificate.lam < 1.0
    np.testing.assert_array_equal(res.certificate.v, np.ones(3))


@pytest.mark.parametrize("synth", [synthesize_aarc, synthesize_sign])
def test_benchmark_infeasible_below_threshold(sys1, synth):
    res = _at_plant(synth, sys1, 0.2, mode="ss")
    assert res.status == "infeasible"
    assert res.certificate is None


@pytest.mark.parametrize("synth", [synthesize_aarc, synthesize_sign])
def test_min_lambda_at_or_above_one_is_infeasible(sys1, synth):
    # between the ESS (~0.014) and SS (~0.311) thresholds of sys1 the
    # least SS gain is about 1.0662: no certificate, only the optimum,
    # whose audit fails; ESS certifies a gain below 1
    spec = QuantizerSpec.uniform(0.2, 2)
    res = _at_plant(synth, sys1, 0.2, mode="ss", objective="min-lambda")
    assert res.status == "infeasible"
    assert res.certificate is None
    assert res.extras["lam"] == pytest.approx(1.0662, abs=1e-4)
    assert res.extras["optimum"].lam == res.extras["lam"]
    report = robust_verify(singleton_polytope(sys1), res.extras["optimum"],
                           spec)
    assert not report.verified
    ess = _at_plant(synth, sys1, 0.2, mode="ess", objective="min-lambda")
    assert ess.feasible and ess.certificate.lam < 1.0


def test_trivial_plant_gets_zero_gain():
    sys = LinearSystem(A=np.zeros((2, 2)), B=np.eye(2))
    res = _at_plant(synthesize_aarc, sys, 1.0, mode="ss",
                    objective="min-lambda")
    assert res.feasible
    assert res.certificate.lam == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(res.certificate.S, np.zeros((2, 2)),
                               atol=1e-8)


def test_benchmark_ess_feasible_at_half_density(sys1):
    res = _at_plant(synthesize_sign, sys1, 0.5, mode="ess")
    assert res.feasible
    assert np.all(res.certificate.v > 0)


def test_zero_sector_reduces_to_linear_design(sys1, rng):
    # at unit density both synthesis paths see a single vertex
    res = _at_plant(synthesize_sign, sys1, 1.0, mode="ss",
                    objective="min-lambda")
    assert res.feasible
    cert = res.certificate
    Acl = sys1.A + sys1.B @ cert.K
    assert np.max(np.sum(np.abs(Acl), axis=1)) == pytest.approx(cert.lam,
                                                                abs=1e-7)


def test_certificates_pass_independent_checks(sys1):
    for mode in ("ss", "ess"):
        for synth in (synthesize_aarc, synthesize_sign):
            res = _at_plant(synth, sys1, 0.6, mode=mode)
            assert res.feasible
            cert = res.certificate
            spec = QuantizerSpec.uniform(0.6, 2)
            ok, margin = check_cert(sys1, cert, spec)
            if cert.M is not None:
                assert ok and margin >= -1e-9
            gain = closed_loop_vertex_gain(sys1, cert.K, cert.v, spec)
            assert gain <= cert.lam + 1e-6
            assert cert.lam < 1.0


def test_min_lambda_improves_on_feasibility(sys1):
    feas = _at_plant(synthesize_sign, sys1, 0.5, mode="ess")
    best = _at_plant(synthesize_sign, sys1, 0.5, mode="ess",
                     objective="min-lambda")
    assert best.certificate.lam <= feas.certificate.lam + 1e-6


def test_forms_agree_on_small_random_problems(rng):
    checked = 0
    for _ in range(12):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        sys = random_stabilizable_system(rng, n, m)
        rho = float(rng.uniform(0.3, 1.0))
        a = _at_plant(synthesize_aarc, sys, rho, mode="ss",
                      objective="min-lambda")
        b = _at_plant(synthesize_sign, sys, rho, mode="ss",
                      objective="min-lambda")
        assert a.feasible == b.feasible
        if a.feasible:
            # the single-envelope form can only be more conservative
            assert a.certificate.lam >= b.certificate.lam - 1e-6
            checked += 1
    assert checked >= 4


def test_sector_shrink_keeps_certificate_valid(sys1):
    res = _at_plant(synthesize_aarc, sys1, 0.5, mode="ess")
    cert = res.certificate
    for rho in (0.6, 0.8, 1.0):
        ok, _ = check_cert(sys1, cert, QuantizerSpec.uniform(rho, 2))
        assert ok


def test_guard_on_enumeration_size():
    sys = LinearSystem(A=np.zeros((18, 18)), B=np.ones((18, 3)))
    with pytest.raises(ValueError):
        _at_plant(synthesize_sign, sys, 0.5)


def test_mode_invariants():
    z = plant_vec(np.eye(1), np.eye(1))
    with pytest.raises(ValueError, match="mode"):
        synthesize_sign(z, QuantizerSpec.uniform(0.5, 1), mode="weird")
    # dim 2 is n(n+2) for no n: the channel count does not fit the plant
    with pytest.raises(ValueError, match="dimension"):
        synthesize_sign(z, QuantizerSpec.uniform(0.5, 2))


def test_nominal_shim_is_sign_synthesis_at_the_point(sys1):
    # the benchmark's known-plant call: synthesize_sign on plant_vec(A, B)
    spec = QuantizerSpec.uniform(0.5, 2)
    shim = synthesize_nominal_sign(NominalProblem(sys1, spec, mode="ess"))
    direct = synthesize_sign(plant_vec(sys1.A, sys1.B), spec, mode="ess")
    assert shim.status == direct.status == "feasible"
    assert shim.certificate.lam == direct.certificate.lam
    with pytest.raises(ValueError, match="channel"):
        NominalProblem(sys=LinearSystem(A=np.eye(1), B=np.eye(1)),
                       spec=QuantizerSpec.uniform(0.5, 2))


# ---------------------------------------------------------------------------
# minimal density by bisection, pinned to frozen reference values


def test_bisection_probe_sequence():
    probes = []

    def probe(x):
        probes.append(x)
        return x >= 0.3

    assert bisect_least(probe, bool, 1 / 16) == (0.3125, True)
    assert probes == [1.0, 0.5, 0.25, 0.375, 0.3125]


@pytest.mark.parametrize("threshold", [0.0, 1e-5, 0.3, 0.5, 0.77, 1.0])
def test_bisection_halves_its_bracket_and_never_repeats(threshold):
    probes = []

    def probe(x):
        probes.append(x)
        return x >= threshold

    tol = 1e-4
    x, ok = bisect_least(probe, bool, tol)
    assert ok and probes[0] == 1.0
    assert len(set(probes)) == len(probes)
    lo, hi = 0.0, 1.0
    for p in probes[1:]:
        assert hi - lo > tol and p == 0.5 * (lo + hi)
        lo, hi = (lo, p) if p >= threshold else (p, hi)
    assert hi - lo <= tol and x == hi


def test_bisection_returns_failure_at_top():
    probes = []
    assert bisect_least(lambda x: probes.append(x) or "bad",
                        lambda r: r == "good", 1e-4) == (None, "bad")
    assert probes == [1.0]


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_bisection_rejects_nonpositive_tolerance(tol):
    # at tol <= 0 the bracket would shrink to adjacent floats and stall
    probes = []
    with pytest.raises(ValueError, match="tolerance"):
        bisect_least(lambda x: probes.append(x) or True, bool, tol)
    assert probes == []


def test_min_rho_counts_solver_failure_infeasible_without_retry():
    probes = []

    def probe(r):
        probes.append(r)
        status = "feasible" if r >= 0.5 else (
            "numerical-failure" if r == 0.25 else "infeasible")
        return SynthResult(status)

    rho, res = min_feasible_rho(probe, tol=0.2)
    assert probes == [1.0, 0.5, 0.25, 0.375]
    assert rho == 0.5 and res.feasible


def _min_rho(sys, mode, synth=synthesize_sign):
    def probe(r):
        return _at_plant(synth, sys, r, mode=mode)

    rho, _ = min_feasible_rho(probe, tol=1e-4)
    return rho


def test_min_density_superstable_benchmark(sys1):
    assert _min_rho(sys1, "ss") == pytest.approx(0.31146240234375, abs=1e-9)


def test_min_density_extended_benchmark(sys1):
    assert _min_rho(sys1, "ess") == pytest.approx(0.01385498046875, abs=1e-9)


def test_min_density_second_benchmark(sys2):
    assert _min_rho(sys2, "ess") == pytest.approx(0.0635986328125, abs=1e-9)


def test_min_density_ordering(sys1):
    # free weights can only help, so the extended threshold sits lower
    assert _min_rho(sys1, "ess") <= _min_rho(sys1, "ss")
