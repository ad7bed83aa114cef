"""The warm ESS min-lambda bisection against fresh solves.

Every synthesizer bisects lambda in one HiGHS model whose gain-row
coefficients of v change between probes (lp_core.solver); without scipy's
HiGHS module (lp_core._highs None), the reference path, each probe is a
fresh solve through lp_core.DEFAULT_BACKEND.
"""

import numpy as np
import pytest

from quantstab import (Polytope, QuantizerSpec, build_polytope,
                       generate_dataset, plant_vec, prune_redundant,
                       robust_verify, synthesize_aarc, synthesize_sign)
from quantstab import lp_core, synth_sign
from quantstab.lp_core import LinprogBackend

from conftest import InteriorPoint, fresh_solves


@pytest.fixture(scope="module")
def pruned_sys1(sys1, part1):
    """The sys1/T=100, dataset seed 1 polytope, pruned to 48 faces."""
    return prune_redundant(build_polytope(generate_dataset(sys1, part1, 100,
                                                           seed=1)))


def _min_lambda(monkeypatch, synth, target, plant, fresh_path=False,
                rho=0.7):
    """(result, [(lam, verdict) of every probe], linprog solve count) of
    one ESS min-lambda bisection of plant's data or point target, for
    plant.m channels at density rho, on the reference path of fresh solves
    when fresh_path is set."""
    probes, fresh = [], []
    bisect, linprog_solve = synth_sign.bisect_least, LinprogBackend.solve
    if isinstance(target, Polytope):
        # a Polytope remembers a passed nonemptiness check: a new one makes
        # every call count its own
        target = Polytope(G=target.G, h=target.h)

    def recording(probe, ok, tol):
        def seen(lam):
            res = probe(lam)
            probes.append((lam, ok(res)))
            return res
        return bisect(seen, ok, tol)

    def counted(self, *args):
        fresh.append(None)
        return linprog_solve(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(synth_sign, "bisect_least", recording)
        patch.setattr(LinprogBackend, "solve", counted)
        if fresh_path:
            patch.setattr(lp_core, "_highs", None)
        res = synth(target, QuantizerSpec.uniform(rho, plant.m), mode="ess",
                    objective="min-lambda")
    return res, probes, len(fresh)


@pytest.mark.parametrize("synth", [synthesize_sign, synthesize_aarc],
                         ids=["sign", "aarc"])
@pytest.mark.parametrize("where", ["polytope", "point", "sys2 point"])
def test_warm_bisection_matches_fresh_solves(monkeypatch, synth, where,
                                             pruned_sys1, sys1, sys2):
    # the sys2 point (n = 5, m = 3) is the largest point master: its sign
    # LP has 1,280 substituted rows, bounded by u, and lambda scales only
    # the n = 5 entries on v of its rows u - lambda v <= 0
    plant = sys2 if where == "sys2 point" else sys1
    target = pruned_sys1 if where == "polytope" \
        else plant_vec(plant.A, plant.B)
    warm, warm_probes, warm_fresh = _min_lambda(monkeypatch, synth, target,
                                                plant)
    ref, ref_probes, _ = _min_lambda(monkeypatch, synth, target, plant,
                                     fresh_path=True)
    assert len(warm_probes) == 15
    assert warm_probes == ref_probes
    assert warm.status == ref.status == "feasible"
    assert warm.certificate.lam == pytest.approx(ref.certificate.lam,
                                                 abs=1e-6)
    # only the nonemptiness LP of a polytope is a fresh linprog solve
    assert warm_fresh == (1 if where == "polytope" else 0)


def _warm_runs_fail(patch, failing, status="numerical-failure"):
    """Make the warm solves numbered in failing (from 1) end with status,
    with the MonkeyPatch patch."""
    runs = []
    run = lp_core._WarmLP.run

    def patched(self):
        runs.append(None)
        if len(runs) in failing:
            return status, None, None
        return run(self)

    patch.setattr(lp_core._WarmLP, "run", patched)


def test_warm_non_answer_is_retried_cold_then_failed_without_fresh_solve(
        monkeypatch, sys1):
    # the third probe of the sys1 point at rho = 0.7 is lambda = 0.75, and
    # one warm master solve answers each probe: the third warm run is that
    # probe's, the fourth its cold retry
    z = plant_vec(sys1.A, sys1.B)
    clean, clean_probes, _ = _min_lambda(monkeypatch, synthesize_sign, z,
                                         sys1)
    assert clean_probes[2] == (0.75, True)

    def check(res, probes):
        assert probes == clean_probes
        assert res.extras["failed_lam"] == []
        assert res.certificate.lam == pytest.approx(clean.certificate.lam,
                                                    abs=1e-9)

    # a failed warm run is answered cold, in the same HiGHS model
    with monkeypatch.context() as patch:
        _warm_runs_fail(patch, {3})
        res, probes, fresh = _min_lambda(monkeypatch, synthesize_sign, z,
                                         sys1)
    check(res, probes)
    assert fresh == 0

    # when the cold solve fails too, or ends unbounded, the probe is listed
    # and counted infeasible, and no fresh solve is tried
    for status in ("numerical-failure", "unbounded"):
        with monkeypatch.context() as patch:
            _warm_runs_fail(patch, {3, 4}, status)
            res, probes, fresh = _min_lambda(monkeypatch, synthesize_sign,
                                             z, sys1)
        assert res.extras["failed_lam"] == [0.75], status
        assert res.feasible and res.certificate.lam > 0.75
        assert fresh == 0


def test_without_the_highs_module_every_lp_is_a_fresh_solve(monkeypatch,
                                                            sys1, part1):
    # scipy's HiGHS module is private, so optional: without it pruning,
    # the bisection and the audit solve each LP with linprog and build no
    # warm model
    poly = build_polytope(generate_dataset(sys1, part1, 20, seed=5))
    spec = QuantizerSpec.uniform(0.7, 2)
    pruned = prune_redundant(poly)
    warm, warm_probes, _ = _min_lambda(monkeypatch, synthesize_sign, pruned,
                                       sys1)
    report = robust_verify(pruned, warm.certificate, spec)

    def built(*args):
        pytest.fail("a warm HiGHS model was built without the HiGHS module")

    monkeypatch.setattr(lp_core, "_highs", None)
    monkeypatch.setattr(lp_core._WarmLP, "__init__", built)
    fresh_pruned = prune_redundant(poly)
    np.testing.assert_array_equal(fresh_pruned.G, pruned.G)
    np.testing.assert_array_equal(fresh_pruned.h, pruned.h)
    res, probes, fresh = _min_lambda(monkeypatch, synthesize_sign, pruned,
                                     sys1)
    assert probes == warm_probes
    assert fresh == 1 + len(probes)
    assert res.certificate.lam == pytest.approx(warm.certificate.lam,
                                                abs=1e-6)
    fresh_report = robust_verify(pruned, warm.certificate, spec)
    assert fresh_report.worst_margin == pytest.approx(report.worst_margin,
                                                      abs=1e-9)


def test_aarc_min_lambda_at_unit_density_answers_every_probe(monkeypatch,
                                                             pruned_sys1,
                                                             sys1):
    # the probe lambda = 0.48980712890625 ended in a numerical failure on
    # HiGHS's simplex, warm and fresh, when the AARC ran on its Farkas LP;
    # the verdicts of fresh interior-point solves are the reference
    res, probes, _ = _min_lambda(monkeypatch, synthesize_aarc, pruned_sys1,
                                 sys1, rho=1.0)
    assert res.extras["failed_lam"] == []
    assert res.certificate.lam == pytest.approx(0.4898681640625, abs=1e-6)
    with fresh_solves(InteriorPoint()):
        ref, ref_probes, _ = _min_lambda(monkeypatch, synthesize_aarc,
                                         pruned_sys1, sys1, rho=1.0)
    assert ref.extras["failed_lam"] == []
    assert probes == ref_probes
