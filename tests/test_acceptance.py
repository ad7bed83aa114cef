"""Top-level acceptance gate: one test per release criterion.

Each test is self-contained and pins its numeric tolerances and runtime
budget inline.  Run with -v to get one pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

from quantstab import (
    Dataset,
    LinearSystem,
    Polytope,
    QuantizerSpec,
    build_polytope,
    closed_loop_vertex_gain,
    contains_plant,
    count_constraints_aarc,
    count_constraints_sign,
    decay_check,
    delta_from_rho,
    generate_dataset,
    log_quantize,
    min_feasible_rho,
    plant_vec,
    prune_redundant,
    robust_verify,
    simulate_quantized,
    synthesize_aarc,
    synthesize_sign,
)
from quantstab.synth_aarc import _aarc_model
from quantstab.synth_sign import _sign_model

from conftest import box_polytope, farkas_status
from oracles import check_cert, check_containment_bruteforce
from test_synth_sign import _singleton


def _nominal_min_rho(sys, mode, synth=synthesize_sign):
    def probe(r):
        return synth(plant_vec(sys.A, sys.B), QuantizerSpec.uniform(r, sys.m),
                     mode=mode)

    rho, _ = min_feasible_rho(probe, tol=1e-4)
    return rho


def _data_min_rho(poly, m, mode, synth):
    def probe(r):
        return synth(poly, QuantizerSpec.uniform(r, m), mode=mode)

    rho, _ = min_feasible_rho(probe, tol=1e-4)
    return rho


def _envelope_bound(sys, K, spec):
    """max_i sum_j max_beta |(A + B diag(beta) K)_ij|, the single-envelope
    gain of K with unit weights."""
    closed = [np.abs(sys.A + sys.B @ (beta[:, None] * K))
              for beta in spec.beta_vertices()]
    return float(np.max(np.max(closed, axis=0).sum(axis=1)))


def test_criterion_1_quantizer_sector_bound():
    """|z - g(z)| <= delta |z| + 1e-12 on 1e5 draws per density; < 1 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    z = rng.uniform(-1e6, 1e6, size=100_000)
    for rho in (0.1, 0.3, 0.4, 0.5, 0.7, 0.9):
        delta = delta_from_rho(rho)
        for zi in z:
            assert abs(zi - log_quantize(zi, rho)) <= delta * abs(zi) + 1e-12
    assert delta_from_rho(0.4) == pytest.approx(0.4286, abs=5e-5)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"sector sweep took {elapsed:.2f}s"


def test_criterion_2_reference_minimal_densities(sys1):
    """Bisection reproduces the reference thresholds 0.3182 / 0.1422; < 1 min.

    These reference values do not follow from the benchmark plant itself
    (bisection lands well below both); the assertions keep the reference
    numbers so the gap stays visible instead of being papered over.
    """
    t0 = time.monotonic()
    got = {
        ("nominal", "ss"): _nominal_min_rho(sys1, "ss"),
        ("nominal", "ess"): _nominal_min_rho(sys1, "ess"),
    }
    single = _singleton(sys1)
    got[("aarc", "ss")] = _data_min_rho(single, 2, "ss", synthesize_aarc)
    got[("aarc", "ess")] = _data_min_rho(single, 2, "ess", synthesize_aarc)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"bisections took {elapsed:.1f}s"
    for method in ("nominal", "aarc"):
        assert got[(method, "ss")] == pytest.approx(0.3182, abs=5e-4), \
            f"{method} ss minimal density {got[(method, 'ss')]:.6f} " \
            f"!= 0.3182 +- 5e-4"
        assert got[(method, "ess")] == pytest.approx(0.1422, abs=5e-4), \
            f"{method} ess minimal density {got[(method, 'ess')]:.6f} " \
            f"!= 0.1422 +- 5e-4"


def test_criterion_3_second_benchmark_thresholds(sys1, sys2):
    """Feasibility from rho = 0.2245 up, plus the reference spectra."""
    for rho in (0.2245 - 5e-4, 0.2245 + 5e-4, 0.5, 1.0):
        res = synthesize_sign(plant_vec(sys2.A, sys2.B),
                              QuantizerSpec.uniform(rho, 3), mode="ess")
        assert res.feasible, f"expected feasible at rho={rho}"
    radius = float(np.max(np.abs(np.linalg.eigvals(sys2.A))))
    assert radius == pytest.approx(1.0633, abs=1e-3)
    eigs = np.sort(np.linalg.eigvals(sys1.A).real)
    np.testing.assert_allclose(eigs, [-1.0185, -0.2613, 0.1236], atol=1e-3)


def test_criterion_4_form_equivalence_and_counts():
    """Sign vs single-envelope forms on 50 systems; exact size formulas.

    The size formulas must match the assembled models exactly for all
    n <= 4, m <= 3.  Each form must solve its SS min-lambda LP and report
    feasible exactly when its optimum's lambda < 1 (an optimum at 1 or
    more is kept in extras["optimum"]), the envelope form never where the
    sign form is not; and each SS min-lambda must be exact and optimal for
    its own measure to 1e-6: the sign form for the worst vertex gain, the
    single-envelope form for the envelope bound, which can only be the
    larger of the two (it sums entrywise vertex maxima).  Budget < 2 min.
    """
    t0 = time.monotonic()
    poly_rows = 2
    for n in range(1, 5):
        for m in range(1, 4):
            d = n * (n + m)
            rng = np.random.default_rng(n * 7 + m)
            poly = Polytope(G=rng.normal(size=(poly_rows, d)),
                            h=rng.uniform(1, 2, size=poly_rows))
            spec = QuantizerSpec.uniform(0.5, m)
            sign_model = _sign_model(poly, spec, n, "ess", "feasibility")
            assert sign_model.num_ineq_rows == n * 2 ** (n + m)
            aarc_model = _aarc_model(poly, spec, n, "ess", "feasibility")
            assert aarc_model.num_ineq_rows == n + n * n * 2 ** (m + 1)
            assert count_constraints_sign(n, m, poly_rows)[
                "robust_inequalities"] == n * 2 ** (n + m)
            assert count_constraints_aarc(n, m, poly_rows)[
                "robust_inequalities"] == n + n * n * 2 ** (m + 1)

    rng = np.random.default_rng(0)
    disagreements = []
    for trial in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        sys = LinearSystem(A=0.6 * rng.uniform(-1, 1, size=(n, n)),
                           B=rng.uniform(-1, 1, size=(n, m)))
        rho = float(rng.uniform(0.05, 1.0))
        spec = QuantizerSpec.uniform(rho, m)
        z = plant_vec(sys.A, sys.B)
        a = synthesize_aarc(z, spec, mode="ss", objective="min-lambda")
        b = synthesize_sign(z, spec, mode="ss", objective="min-lambda")
        opt_env = a.certificate or a.extras.get("optimum")
        opt_sign = b.certificate or b.extras.get("optimum")
        if (opt_env is None or opt_sign is None
                or a.feasible != (opt_env.lam < 1.0)
                or b.feasible != (opt_sign.lam < 1.0)
                or (a.feasible and not b.feasible)):
            disagreements.append((trial, "feasibility", a.status, b.status))
        else:
            lam_env, K_env = opt_env.lam, opt_env.K
            lam_sign, K_sign = opt_sign.lam, opt_sign.K
            ones = np.ones(n)
            gain = {"env": closed_loop_vertex_gain(sys, K_env, ones, spec),
                    "sign": closed_loop_vertex_gain(sys, K_sign, ones, spec)}
            bound = {"env": _envelope_bound(sys, K_env, spec),
                     "sign": _envelope_bound(sys, K_sign, spec)}
            checks = {
                "envelope below sign": lam_env >= lam_sign - 1e-6,
                "sign not its vertex gain":
                    abs(lam_sign - gain["sign"]) <= 1e-6,
                "envelope not its bound": abs(lam_env - bound["env"]) <= 1e-6,
                "envelope beaten by sign K": lam_env <= bound["sign"] + 1e-6,
                "sign beaten by envelope K": lam_sign <= gain["env"] + 1e-6,
            }
            for what, ok in checks.items():
                if not ok:
                    disagreements.append((trial, what, lam_env, lam_sign,
                                          gain, bound))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"equivalence sweep took {elapsed:.1f}s"
    assert not disagreements, (
        f"{len(disagreements)} failed checks of the two forms: "
        f"{disagreements[:4]}")


def test_criterion_5_farkas_against_vertex_oracle():
    """Multiplier feasibility == brute-force containment, 100 pairs; < 1 min."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)

    def random_poly(d):
        center = rng.uniform(-1, 1, size=d)
        half = rng.uniform(0.5, 2.0, size=d)
        box = box_polytope(center, half)
        extra = rng.normal(size=(3, d))
        offs = extra @ center + rng.uniform(0.3, 2.5, size=3)
        return Polytope(G=np.vstack([box.G, extra]),
                        h=np.concatenate([box.h, offs]))

    for trial in range(100):
        d = int(rng.integers(1, 4))
        P1, P2 = random_poly(d), random_poly(d)
        truth = check_containment_bruteforce(P1, P2)
        by_multipliers = farkas_status(P1, P2) == "optimal"
        assert by_multipliers == truth, \
            f"trial {trial}: multipliers={by_multipliers}, vertices={truth}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_6_end_to_end_soundness(sys1, part1):
    """Every emitted data-driven certificate survives all audits; < 10 min.

    20 seeded datasets, both synthesis routes, two densities: independent
    robust verification, truth-plant membership, truth closed-loop gain
    below the certified bound, and 200-step quantized decay.
    """
    t0 = time.monotonic()
    horizons = (60, 80, 100)
    emitted = 0
    for seed in range(20):
        T = horizons[seed % 3]
        ds = generate_dataset(sys1, part1, T, seed=seed)
        poly = prune_redundant(build_polytope(ds))
        assert contains_plant(poly, sys1.A, sys1.B)
        for rho in (0.7, 0.9):
            spec = QuantizerSpec.uniform(rho, 2)
            for synth in (synthesize_sign, synthesize_aarc):
                res = synth(poly, spec, mode="ess")
                if not res.feasible:
                    continue
                emitted += 1
                cert = res.certificate
                report = robust_verify(poly, cert, spec)
                assert report.verified, \
                    f"seed={seed} rho={rho} {synth.__name__}: " \
                    f"margin {report.worst_margin:.3e}"
                gain = closed_loop_vertex_gain(sys1, cert.K, cert.v, spec)
                assert gain <= cert.lam + 1e-6
                traj, status = simulate_quantized(sys1, cert.K, spec,
                                                  np.ones(3), 200)
                assert status == "ok"
                assert decay_check(traj, cert.v, cert.lam)
    assert emitted >= 40, f"only {emitted} certificates emitted"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"soundness sweep took {elapsed:.1f}s"


def test_criterion_7_conservatism_and_monotonicity(sys1, part1):
    """Method ordering, sample-count monotonicity, sector-shrink validity."""
    ds = generate_dataset(sys1, part1, 100, seed=11)
    prefixes = {T: prune_redundant(build_polytope(
        Dataset(ds.samples[:T], ds.epsilon, ds.meta))) for T in (60, 80, 100)}

    base = prefixes[80]
    r_nominal = _nominal_min_rho(sys1, "ess")
    r_sign = _data_min_rho(base, 2, "ess", synthesize_sign)
    r_aarc = _data_min_rho(base, 2, "ess", synthesize_aarc)
    assert r_sign is not None
    assert r_nominal <= r_sign + 1e-4
    if r_aarc is None:
        r_aarc = np.inf  # never feasible: consistent with the ordering
    assert r_sign <= r_aarc + 1e-4, (r_nominal, r_sign, r_aarc)

    r_by_T = {T: _data_min_rho(prefixes[T], 2, "ess", synthesize_sign)
              for T in (60, 80, 100)}
    assert r_by_T[60] + 1e-4 >= r_by_T[80] >= r_by_T[100] - 1e-4, r_by_T

    # a certificate found at one sector stays valid for every smaller one
    spec = QuantizerSpec.uniform(0.7, 2)
    res = synthesize_sign(prefixes[100], spec, mode="ess")
    assert res.feasible
    for rho_finer in (0.8, 0.9, 1.0):
        finer = QuantizerSpec.uniform(rho_finer, 2)
        assert robust_verify(prefixes[100], res.certificate, finer).verified
    nom = synthesize_aarc(plant_vec(sys1.A, sys1.B), spec, mode="ess")
    for rho_finer in (0.8, 1.0):
        ok, _ = check_cert(sys1, nom.certificate,
                           QuantizerSpec.uniform(rho_finer, 2))
        assert ok


def test_criterion_8_pruning_on_large_dataset(sys2, part2):
    """Prune a 40-dimensional, <= 3500-row polytope; prove set equality; < 15 min."""
    t0 = time.monotonic()
    ds = generate_dataset(sys2, part2, 350, seed=7)
    poly = build_polytope(ds)
    assert poly.dim == 40
    assert poly.num_faces <= 2 * sys2.n * 350
    pruned = prune_redundant(poly)
    assert pruned.num_faces < poly.num_faces
    for first, second in ((pruned, poly), (poly, pruned)):
        status = farkas_status(first, second)
        assert status == "optimal", \
            f"containment {first.num_faces}->{second.num_faces} " \
            f"unproven: {status}"
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0, f"pruning gate took {elapsed:.1f}s"
