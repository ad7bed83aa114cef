"""Logarithmic quantizer: sector bound, level selection, bin lookup."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantstab import (
    Partition,
    QuantizerSpec,
    builtin_partition,
    delta_from_rho,
    interval_quantize,
    log_quantize,
    log_quantize_vector,
)


# ---------------------------------------------------------------------------
# density -> sector bound


def test_delta_from_rho_reference_values():
    assert delta_from_rho(0.4) == pytest.approx(0.428571, abs=1e-6)
    assert delta_from_rho(1.0) == 0.0
    assert delta_from_rho(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.5])
def test_delta_from_rho_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        delta_from_rho(bad)


def test_delta_from_rho_strictly_decreasing():
    rhos = np.linspace(0.01, 1.0, 200)
    deltas = np.array([delta_from_rho(r) for r in rhos])
    assert np.all(np.diff(deltas) < 0)


# ---------------------------------------------------------------------------
# scalar quantizer


def test_log_quantize_zero_maps_to_zero():
    for rho in (0.1, 0.5, 0.9):
        assert log_quantize(0.0, rho) == 0.0


def test_log_quantize_level_membership():
    # delta = 1/3 at rho = 0.5, so level 1 covers [0.75, 1.5]
    assert log_quantize(1.2, 0.5) == pytest.approx(1.0)
    assert log_quantize(-1.2, 0.5) == pytest.approx(-1.0)
    assert log_quantize(0.8, 0.5) == pytest.approx(1.0)
    assert log_quantize(0.6, 0.5) == pytest.approx(0.5)


def test_log_quantize_tie_takes_larger_level():
    # 1.5 is shared by levels 1 and 2 at rho = 0.5; ties resolve upward
    assert log_quantize(1.5, 0.5) == pytest.approx(2.0)


def test_log_quantize_identity_at_unit_density():
    for z in (-3.2, -1.0, 0.0, 0.7, 123.456):
        assert log_quantize(z, 1.0) == z


def test_log_quantize_rejects_non_finite():
    with pytest.raises(ValueError):
        log_quantize(np.inf, 0.5)
    with pytest.raises(ValueError):
        log_quantize(np.nan, 0.5)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("z", [1e308, -1e308, sys.float_info.max,
                               -sys.float_info.max])
def test_log_quantize_near_float_max(z, rho):
    # smallest i with rho**i <= |z| (1 + delta), in exact arithmetic
    r = Fraction(rho)
    top = Fraction(abs(z)) * Fraction(1.0 + delta_from_rho(rho))
    i = round(math.log(abs(z)) / math.log(rho))
    while r ** i > top:
        i += 1
    while r ** (i - 1) <= top:
        i -= 1
    if r ** i > Fraction(sys.float_info.max):
        with pytest.raises(ValueError):
            log_quantize(z, rho)
    else:
        assert log_quantize(z, rho) == math.copysign(rho ** i, z)


def _searched_level(z, rho):
    """sign(z) rho**i for the smallest i with rho**i <= |z| (1 + delta),
    compared in floats as log_quantize compares them."""
    hi = abs(z) * (1.0 + delta_from_rho(rho))
    i = round(math.log(abs(z)) / math.log(rho))
    while rho ** i > hi:
        i += 1
    while rho ** (i - 1) <= hi:
        i -= 1
    return math.copysign(rho ** i, z)


@pytest.mark.parametrize("rho", [0.1, 0.4, 0.5, 0.9, 0.999])
def test_log_quantize_level_table_matches_search(rho):
    # Each level, the lower end of its interval and their float neighbours,
    # across and past the table of levels (|i| <= 512, fewer at rho = 0.1).
    one_plus_delta = 1.0 + delta_from_rho(rho)
    values = []
    for i in range(-600, 601):
        try:
            rho ** (i - 1)
        except OverflowError:
            continue
        for v in (rho ** i, rho ** i / one_plus_delta):
            values += [v, math.nextafter(v, 0.0),
                       math.nextafter(v, math.inf)]
    for z in filter(None, values):
        assert log_quantize(z, rho) == _searched_level(z, rho)
        assert log_quantize(-z, rho) == _searched_level(-z, rho)


@settings(max_examples=300, deadline=None)
@given(z=st.floats(-1e6, 1e6, allow_nan=False),
       rho=st.sampled_from([0.1, 0.3, 0.4, 0.5, 0.7, 0.9]))
def test_log_quantize_sector_bound(z, rho):
    delta = delta_from_rho(rho)
    g = log_quantize(z, rho)
    assert abs(z - g) <= delta * abs(z) + 1e-12


@settings(max_examples=200, deadline=None)
@given(z=st.floats(-1e6, 1e6, allow_nan=False),
       rho=st.sampled_from([0.2, 0.5, 0.8]))
def test_log_quantize_odd_and_idempotent(z, rho):
    g = log_quantize(z, rho)
    assert log_quantize(-z, rho) == -g
    assert log_quantize(g, rho) == g


def test_log_quantize_monotone():
    rng = np.random.default_rng(7)
    for rho in (0.3, 0.6, 0.9):
        z = np.sort(rng.uniform(-100.0, 100.0, size=500))
        g = np.array([log_quantize(zi, rho) for zi in z])
        assert np.all(np.diff(g) >= 0)


# ---------------------------------------------------------------------------
# vector quantizer and spec


def test_vector_quantizer_elementwise():
    spec = QuantizerSpec.uniform(0.5, 2)
    np.testing.assert_allclose(
        log_quantize_vector(np.array([1.2, -1.2]), spec), [1.0, -1.0])
    np.testing.assert_allclose(
        log_quantize_vector(np.zeros(2), spec), np.zeros(2))


def test_vector_quantizer_passthrough_channel():
    spec = QuantizerSpec.uniform(1.0, 1)
    np.testing.assert_allclose(
        log_quantize_vector(np.array([3.0]), spec), [3.0])


def test_vector_quantizer_dim_mismatch():
    spec = QuantizerSpec.uniform(0.5, 2)
    with pytest.raises(ValueError):
        log_quantize_vector(np.array([1.0, 2.0, 3.0]), spec)


def test_spec_enforces_density_sector_coupling():
    ok = QuantizerSpec.uniform(0.5, 3)
    np.testing.assert_allclose(ok.delta, np.full(3, 1.0 / 3.0))
    with pytest.raises(TypeError):      # delta is derived, never given
        QuantizerSpec(rho=np.array([0.5]), delta=np.array([0.5]))


def test_spec_unit_density_means_zero_sector():
    spec = QuantizerSpec.uniform(1.0, 2)
    np.testing.assert_array_equal(spec.delta, np.zeros(2))


def test_beta_vertices_binary_order():
    spec = QuantizerSpec.uniform(0.5, 2)
    lo, hi = 1.0 - 1.0 / 3.0, 1.0 + 1.0 / 3.0
    verts = spec.beta_vertices()
    assert verts.shape == (4, 2)
    np.testing.assert_allclose(
        verts, [[lo, lo], [lo, hi], [hi, lo], [hi, hi]])


# ---------------------------------------------------------------------------
# interval partition


def test_regular_partition_edges():
    p = Partition.regular(-4, 4, 1)
    np.testing.assert_allclose(p.edges, np.arange(-4, 5))


def test_interval_lookup_interior_and_ends():
    p = Partition(edges=np.round(np.arange(-1.0, 1.01, 0.1), 10))
    assert interval_quantize(0.368, p) == pytest.approx((0.3, 0.4))

    p24 = Partition.regular(-4, 4, 1)
    assert interval_quantize(3.7, p24) == (3.0, 4.0)
    lo, hi = interval_quantize(10.0, p24)
    assert lo == 4.0 and hi == np.inf
    lo, hi = interval_quantize(-10.0, p24)
    assert lo == -np.inf and hi == -4.0


def test_interval_lookup_edge_is_lower_endpoint():
    p = Partition.regular(-4, 4, 1)
    assert interval_quantize(3.0, p) == (3.0, 4.0)
    assert interval_quantize(-4.0, p) == (-4.0, -3.0)


def test_interval_lookup_brackets_value():
    p = Partition.regular(-6, 6, 0.5)
    rng = np.random.default_rng(3)
    for value in rng.uniform(-10, 10, size=200):
        lo, hi = interval_quantize(value, p)
        assert lo <= value <= hi


def test_partition_requires_increasing_edges():
    with pytest.raises(ValueError):
        Partition(edges=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        Partition(edges=np.array([1.0, 0.0]))


def test_partition_json_round_trip(tmp_path):
    p = Partition.regular(-6, 6, 0.5)
    blob = json.dumps(p.to_json_dict())
    q = Partition.from_json_dict(json.loads(blob))
    np.testing.assert_allclose(q.edges, p.edges)


def test_builtin_partition_names_only_p1_and_p2(tmp_path, monkeypatch):
    np.testing.assert_array_equal(builtin_partition("p1").edges,
                                  np.arange(-4.0, 4.5, 1.0))
    np.testing.assert_array_equal(builtin_partition("p2").edges,
                                  np.arange(-6.0, 6.25, 0.5))
    # any other name is a JSON file path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "partition1").write_text(
        json.dumps(Partition.regular(0.0, 2.0, 1.0).to_json_dict()))
    np.testing.assert_array_equal(builtin_partition("partition1").edges,
                                  [0.0, 1.0, 2.0])
    with pytest.raises(FileNotFoundError):
        builtin_partition("partition2")
