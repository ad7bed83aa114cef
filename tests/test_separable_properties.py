"""Properties of the row-separable robust counterparts on random products.

Each example draws a small random plant (n <= 3, m <= 2) and a bounded
polytope around it that is a product of one set per row of [A B], as a
data polytope is.  Appending one redundant face that touches every column
leaves the set unchanged but joins all rows into one component, so the
same synthesizer then builds the coupled LP, with full multiplier blocks
and, for the envelope form, an envelope M that depends on every row.

An SS min-lambda optimum with lambda >= 1 is reported infeasible, so its
gain is read from the certificate or, failing that, from the optimum the
result keeps in its extras.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quantstab import (Polytope, QuantizerSpec, max_linear_over_polytope,
                       min_feasible_rho, plant_vec, robust_verify,
                       synthesize_aarc, synthesize_sign)

from conftest import random_separable_polytope, random_stabilizable_system

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None,
                             derandomize=True)

cases = st.tuples(st.integers(1, 3), st.integers(1, 2),
                  st.integers(0, 2 ** 32 - 1),
                  st.floats(0.3, 0.95), st.floats(0.02, 0.2))


def _draw(case):
    n, m, seed, rho, halfwidth = case
    rng = np.random.default_rng(seed)
    sys = random_stabilizable_system(rng, n, m)
    poly = random_separable_polytope(rng, sys.A, sys.B, halfwidth)
    return poly, QuantizerSpec.uniform(rho, m)


def _gain(res):
    return (res.certificate or res.extras["optimum"]).lam


def _coupled(poly):
    g = np.ones(poly.dim)
    top = max_linear_over_polytope(g, poly) + 1.0
    return Polytope(G=np.vstack([poly.G, g]), h=np.append(poly.h, top))


@PROPERTY_SETTINGS
@given(cases)
def test_split_lp_matches_coupled_lp(case):
    poly, spec = _draw(case)
    coupled = _coupled(poly)
    assert coupled.components[1].max() == 0
    split = synthesize_sign(poly, spec, mode="ess")
    joint = synthesize_sign(coupled, spec, mode="ess")
    assert split.status == joint.status
    split = synthesize_sign(poly, spec, mode="ss", objective="min-lambda")
    joint = synthesize_sign(coupled, spec, mode="ss", objective="min-lambda")
    assert abs(_gain(split) - _gain(joint)) <= 1e-6


@PROPERTY_SETTINGS
@given(cases)
def test_row_local_envelope_matches_coupled_envelope(case):
    # On a product set M_ij may depend on row i of [A B] alone at no loss;
    # the coupled polytope makes M depend on the whole plant.
    poly, spec = _draw(case)
    coupled = _coupled(poly)
    local = synthesize_aarc(poly, spec, mode="ess")
    joint = synthesize_aarc(coupled, spec, mode="ess")
    assert local.status == joint.status
    split = synthesize_aarc(poly, spec, mode="ss", objective="min-lambda")
    whole = synthesize_aarc(coupled, spec, mode="ss", objective="min-lambda")
    assert abs(_gain(split) - _gain(whole)) <= 1e-6
    for res in (local, joint, split, whole):
        if res.feasible:
            report = robust_verify(poly, res.certificate, spec)
            assert report.worst_margin >= -1e-7


@PROPERTY_SETTINGS
@given(cases)
def test_every_emitted_certificate_audits(case):
    poly, spec = _draw(case)
    for synth, mode in ((synthesize_sign, "ess"), (synthesize_sign, "ss"),
                        (synthesize_aarc, "ess")):
        res = synth(poly, spec, mode=mode)
        if res.feasible:
            report = robust_verify(poly, res.certificate, spec)
            assert report.worst_margin >= -1e-7


@PROPERTY_SETTINGS
@given(cases)
def test_sign_form_never_worse_than_envelope_form(case):
    poly, spec = _draw(case)
    sign = synthesize_sign(poly, spec, mode="ss", objective="min-lambda")
    aarc = synthesize_aarc(poly, spec, mode="ss", objective="min-lambda")
    assert _gain(sign) <= _gain(aarc) + 1e-6


# Open-loop unstable, fully actuated plants in narrow boxes: each needs
# feedback, which a coarse enough quantizer defeats, so most draws have a
# finite rho* above the bisection's first step.
unstable_cases = st.tuples(st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
                           st.floats(1.05, 1.5), st.floats(0.02, 0.1))


@PROPERTY_SETTINGS
@given(unstable_cases, st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_adding_data_never_raises_min_density(case, extra, seed):
    # More data only cuts plants out of the set, so every density feasible
    # for the larger set stays feasible; each bisection lands within tol
    # above its own threshold.
    n, plant_seed, radius, halfwidth = case
    rng = np.random.default_rng(plant_seed)
    plant = random_stabilizable_system(rng, n, n)
    A = plant.A * (radius / np.max(np.abs(np.linalg.eigvals(plant.A))))
    poly = random_separable_polytope(rng, A, plant.B, halfwidth)
    z = plant_vec(A, plant.B)
    m, tol = n, 1e-3
    rng = np.random.default_rng(seed)
    G = np.zeros((extra, poly.dim))
    for face in G:
        cols = np.arange(rng.integers(n), poly.dim, n)   # one row of [A B]
        face[cols] = rng.normal(size=cols.size)
    h = G @ z + rng.uniform(0.0, halfwidth, extra)
    smaller = Polytope(G=np.vstack([poly.G, G]), h=np.append(poly.h, h))

    def rho_star(p):
        rho, _ = min_feasible_rho(
            lambda r: synthesize_sign(p, QuantizerSpec.uniform(r, m),
                                      mode="ess"), tol=tol)
        return np.inf if rho is None else rho

    assert rho_star(smaller) <= rho_star(poly) + tol
