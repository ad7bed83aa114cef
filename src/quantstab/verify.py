"""Independent certificate audit by direct support-function evaluation.

Given a candidate (v, S) and a consistency polytope P, each robust
stability inequality

    max_{(A,B) in P} sum_j alpha_j (A_ij v_j + sum_k beta_k B_ik S_kj)
        <= v_i - eta

is checked by maximizing the fixed linear functional on the left over P
with one LP per (i, alpha, beta).  No Farkas multipliers, no shared
assembly code with the synthesizers: a bug in their Kronecker bookkeeping
cannot cancel out here.
"""

from dataclasses import dataclass, field

import numpy as np

from .lp_core import max_linear_over_polytope
from .synth_sign import DEFAULT_ETA, ENUM_GUARD
from .sysmodel import StabCertificate, sign_vectors

__all__ = ["VerificationReport", "robust_verify", "MARGIN_TOL"]

MARGIN_TOL = 1e-7


@dataclass
class VerificationReport:
    """Outcome of a robust audit.

    worst_margin is the least v_i - eta - (support value) over all robust
    inequalities; verified exactly when it clears -1e-7 (solver tolerance
    stacking).  worst_case records which inequality was tightest and the
    plant achieving it; diagnostic is set when the polytope is unbounded in
    a direction that matters, which forces unverified.
    """

    verified: bool
    worst_margin: float
    worst_case: dict = field(default_factory=dict)
    diagnostic: str = ""

    def to_json_dict(self):
        out = {"verified": bool(self.verified),
               "worst_margin": float(self.worst_margin),
               "worst_case": {}}
        wc = self.worst_case
        if wc:
            out["worst_case"] = {
                "i": int(wc["i"]),
                "alpha": [float(a) for a in wc["alpha"]],
                "beta": [float(b) for b in wc["beta"]],
                "A": np.asarray(wc["A"]).tolist(),
                "B": np.asarray(wc["B"]).tolist(),
            }
        if self.diagnostic:
            out["diagnostic"] = self.diagnostic
        return out


def _candidate_vS(candidate):
    if isinstance(candidate, StabCertificate):
        return candidate.v, candidate.S
    if isinstance(candidate, tuple) and len(candidate) == 2:
        v = np.atleast_1d(np.asarray(candidate[0], dtype=float))
        S = np.asarray(candidate[1], dtype=float).reshape(-1, v.size)
        return v, S
    K = np.atleast_2d(np.asarray(candidate, dtype=float))
    return np.ones(K.shape[1]), K


def robust_verify(poly, candidate, spec, eta=None, backend=None):
    """Audit a candidate controller against every plant consistent with P.

    candidate may be a StabCertificate, a (v, S) pair, or a bare gain
    matrix K (then v = 1 and S = K).  Runs n * 2^(n+m) support LPs and
    aggregates the margins; never consults the synthesis code path.
    """
    v, S = _candidate_vS(candidate)
    n = v.size
    m = S.shape[0]
    if spec.m != m:
        raise ValueError("quantizer channel count must match S")
    if n + m > ENUM_GUARD:
        raise ValueError(f"sign enumeration limited to n + m <= {ENUM_GUARD}")
    if poly.dim != n * (n + m):
        raise ValueError("polytope dimension is not n(n+m)")
    if eta is None:
        eta = candidate.eta if isinstance(candidate, StabCertificate) \
            else DEFAULT_ETA
    if np.any(v <= 0):
        raise ValueError("weights v must be positive")

    worst = np.inf
    worst_case = {}
    betas = spec.beta_vertices()
    for alpha in sign_vectors(n):
        Sa = S @ alpha if m else np.zeros(0)
        for beta in betas:
            bsa = beta * Sa
            for i in range(n):
                c = np.zeros(poly.dim)
                c[np.arange(n) * n + i] = alpha * v
                if m:
                    c[n * n + np.arange(m) * n + i] = bsa
                val, z = max_linear_over_polytope(c, poly, backend=backend,
                                                 return_point=True)
                if np.isinf(val):
                    return VerificationReport(
                        False, -np.inf,
                        {"i": i, "alpha": alpha.copy(), "beta": beta.copy(),
                         "A": np.full((n, n), np.nan),
                         "B": np.full((n, m), np.nan)},
                        diagnostic="consistency polytope unbounded along a "
                                   "robust constraint direction")
                margin = v[i] - eta - val
                if margin < worst:
                    worst = margin
                    worst_case = {
                        "i": i, "alpha": alpha.copy(), "beta": beta.copy(),
                        "A": z[:n * n].reshape(n, n, order="F"),
                        "B": z[n * n:].reshape(n, m, order="F"),
                    }
    return VerificationReport(worst >= -MARGIN_TOL, float(worst), worst_case)
