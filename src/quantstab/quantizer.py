"""Logarithmic input quantization and interval (bin) quantization of data.

A logarithmic quantizer with density rho in (0, 1] maps a scalar z to the
nearest level sign(z) * rho**i under multiplicative interval matching.  The
relative quantization error is bounded by the sector constant
delta = (1 - rho) / (1 + rho), so the quantized loop is covered by a family
of linear loops A + B (I + diag(Delta)) K with |Delta_j| <= delta_j.

Interval quantization maps a real measurement to the partition bin that
contains it, giving lower/upper bounds (possibly infinite) instead of a
point value.
"""

import json
import math
from dataclasses import dataclass, field
from math import floor, isfinite, log2

import numpy as np

__all__ = [
    "QuantizerSpec",
    "Partition",
    "builtin_partition",
    "delta_from_rho",
    "log_quantize",
    "log_quantize_vector",
    "interval_quantize",
]


def delta_from_rho(rho):
    """Sector bound delta = (1 - rho) / (1 + rho) for a density rho in (0, 1].

    Strictly decreasing in rho; rho = 1 gives delta = 0 (identity quantizer)
    and rho -> 0 gives delta -> 1.
    """
    rho = float(rho)
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"density rho must lie in (0, 1], got {rho}")
    return (1.0 - rho) / (1.0 + rho)


@dataclass(frozen=True)
class QuantizerSpec:
    """Per-channel quantizer densities and their derived sector bounds.

    Attributes
    ----------
    rho : ndarray, shape (m,)
        Density of each input channel, each in (0, 1].
    delta : ndarray, shape (m,)
        Sector bound of each channel, delta_j = (1 - rho_j) / (1 + rho_j).
    """

    rho: np.ndarray
    delta: np.ndarray = field(init=False)

    def __post_init__(self):
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if rho.ndim != 1 or rho.size == 0:
            raise ValueError("rho must be a nonempty vector")
        if np.any(rho <= 0.0) or np.any(rho > 1.0):
            raise ValueError("all densities must lie in (0, 1]")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "delta", (1.0 - rho) / (1.0 + rho))

    @property
    def m(self):
        return self.rho.size

    @classmethod
    def uniform(cls, rho, m):
        """Same density on all m channels."""
        return cls(rho=np.full(m, float(rho)))

    def beta_vertices(self):
        """All 2^m vertices of prod_j {1 - delta_j, 1 + delta_j}.

        Returned as an array of shape (2**m, m) in binary counting order
        (last channel toggles fastest, low vertex first).
        """
        return cube_vertices(1.0 - self.delta, 1.0 + self.delta)


def cube_vertices(lo, hi):
    """All 2^k vertices of the box prod_j {lo_j, hi_j}, shape (2**k, k).

    Binary counting order: row r takes hi_j where bit k-1-j of r is set, so
    the low vertex comes first and the last coordinate toggles fastest.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    k = lo.size
    bits = (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return np.where(bits == 1, hi, lo)


# Per-density constants of log_quantize, which is called once per input
# channel and time step; bounded so density sweeps cannot grow it without
# limit.
_LOG_CONSTS = {}
_LOG_CONSTS_MAX = 256
_INF = math.inf
# The level table holds rho**i for |i| <= _TABLE_INDEX, and for no i with
# |i log rho| > _TABLE_LOG, so its entries are normal floats.
_TABLE_INDEX = 512
_TABLE_LOG = 700.0


def _log_consts(rho):
    """(1 + delta, levels, scale, shift, last) for a density rho.

    levels[p] = rho**(k - p) for p = 0..last = 2k ascends, and
    floor(shift - scale log2 z) is the position of the level of z, up to
    rounding.  rho = 1 gets an empty table.
    """
    rho = float(rho)
    delta = delta_from_rho(rho)         # validates rho
    if len(_LOG_CONSTS) >= _LOG_CONSTS_MAX:
        _LOG_CONSTS.clear()
    levels, scale, shift = [], 0.0, 0.0
    if rho < 1.0:
        k = min(_TABLE_INDEX, int(_TABLE_LOG / -math.log(rho)))
        levels = [rho ** i for i in range(k, -k - 1, -1)]
        if any(a > b for a, b in zip(levels, levels[1:])):
            levels = []     # powers of a rho this close to 1 need not ascend
        # rho**i <= z (1 + delta) iff i >= log2(z (1 + delta)) / log2(rho).
        scale = 1.0 / math.log2(rho)
        shift = k - math.log2(1.0 + delta) * scale
    consts = (1.0 + delta, levels, scale, shift, len(levels) - 1)
    _LOG_CONSTS[rho] = consts
    return consts


def log_quantize(z, rho):
    """Quantize a scalar to the logarithmic level grid {+-rho**i : i integer}.

    The level rho**i covers the interval [rho**i/(1+delta), rho**i/(1-delta)];
    adjacent intervals share endpoints, and a value on a shared boundary is
    assigned the larger level (smaller i).  Zero maps to zero and the map is
    odd: g(-z) = -g(z).

    Parameters
    ----------
    z : float
        Value to quantize.  Must be finite.  Raises ValueError when its
        level lies beyond the largest float (|z| near the float maximum).
    rho : float
        Quantizer density in (0, 1].  rho = 1 passes z through unchanged.
    """
    z = float(z)
    try:
        consts = _LOG_CONSTS[rho]
    except (KeyError, TypeError):
        consts = _log_consts(rho)
    one_plus_delta, levels, scale, shift, last = consts
    # The level is rho**i for the smallest i with rho**i <= |z| (1 + delta):
    # the levels[p] with levels[p] <= hi < levels[p + 1] when both are in
    # the table and p is estimated right.  Zero, non-finite z, rho = 1 and
    # every other case go to the search below.
    a = -z if z < 0.0 else z
    if 0.0 < a < _INF:
        p = floor(shift - log2(a) * scale)
        if 0 <= p < last:
            level = levels[p]
            if level <= a * one_plus_delta < levels[p + 1]:
                return level if z > 0.0 else -level
    if not isfinite(z):
        raise ValueError("cannot quantize a non-finite value")
    rho = float(rho)
    if rho == 1.0:
        return z
    if z == 0.0:
        return 0.0
    negative = z < 0.0
    if negative:
        z = -z
    hi = z * one_plus_delta
    # Candidate exponent from the logarithm, then correct by +-1 so that
    # rho**i <= z * (1 + delta) holds with the smallest such i. This keeps
    # the boundary rule deterministic under floating-point log drift.
    i = round(math.log(z) / math.log(rho))
    try:
        if hi == _INF:
            raise OverflowError
        level = rho ** i
        while level > hi:
            i += 1
            level = rho ** i
        while i > -1074:
            coarser = rho ** (i - 1)
            if coarser > hi:
                break
            i -= 1
            level = coarser
    except OverflowError:
        level = _level_near_max(z, rho, i, one_plus_delta)
    return -level if negative else level


def _level_near_max(z, rho, i, one_plus_delta):
    """log_quantize's level for z > 0 where z (1 + delta) or a power of rho
    overflows.  rho**i <= z (1 + delta) is tested as
    rho**(i+1) <= z rho (1 + delta), whose right side is below z, and an
    overflowing power reads as infinite.  Raises ValueError when the level
    is not a finite float."""
    def power(k):
        try:
            return rho ** k
        except OverflowError:
            return _INF

    top = z * (rho * one_plus_delta)
    while power(i + 1) > top:
        i += 1
    while power(i) <= top:
        i -= 1
    level = power(i)
    if level == _INF:
        raise ValueError(f"the level of {z!r} at density {rho!r} "
                         "exceeds the float range")
    return level


def log_quantize_vector(u, spec):
    """Elementwise logarithmic quantization of an input vector.

    Channel j of the result is log_quantize(u_j, spec.rho[j]).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (spec.m,):
        raise ValueError(f"input has {u.size} channels, spec has {spec.m}")
    return np.array([log_quantize(u[j], spec.rho[j]) for j in range(spec.m)])


@dataclass(frozen=True)
class Partition:
    """Interval partition of the real line given by finite bin edges.

    Edges e_1 < e_2 < ... < e_k define the bins
    (-inf, e_1], [e_1, e_2], ..., [e_k, +inf).
    A value equal to an interior edge is assigned the bin where it is the
    lower endpoint (right-closed lookup).
    """

    edges: np.ndarray

    def __post_init__(self):
        edges = np.atleast_1d(np.asarray(self.edges, dtype=float))
        if edges.size == 0:
            raise ValueError("partition needs at least one edge")
        if not np.all(np.isfinite(edges)):
            raise ValueError("partition edges must be finite")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("partition edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def regular(cls, lo, hi, step):
        """Evenly spaced edges from lo to hi inclusive."""
        n = int(round((hi - lo) / step))
        return cls(edges=lo + step * np.arange(n + 1))

    def to_json_dict(self):
        return {"edges": self.edges.tolist()}

    @classmethod
    def from_json_dict(cls, d):
        return cls(edges=np.asarray(d["edges"], dtype=float))


def builtin_partition(name):
    """A named built-in partition, or one loaded from a JSON file path:
    "p1" is the unit-step partition on [-4, 4], "p2" the half-step one on
    [-6, 6]."""
    if name == "p1":
        return Partition.regular(-4.0, 4.0, 1.0)
    if name == "p2":
        return Partition.regular(-6.0, 6.0, 0.5)
    with open(name) as f:
        return Partition.from_json_dict(json.load(f))


def interval_quantize(value, partition):
    """Bin lookup: return the (lower, upper) bounds of the bin holding value.

    Unbounded end bins return -inf or +inf for the missing side, so every
    finite value maps to exactly one bin.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("cannot bin a non-finite value")
    edges = partition.edges
    # side='right' puts an edge value into the bin where it is the lower
    # endpoint, e.g. value 3.0 with edges ...,3,4,... gives [3, 4].
    k = int(np.searchsorted(edges, value, side="right"))
    lower = -np.inf if k == 0 else float(edges[k - 1])
    upper = np.inf if k == edges.size else float(edges[k])
    return lower, upper
