"""Discrete-time plants, quantized closed-loop simulation, and certificates.

Superstability of a closed loop Acl means ||Acl||_inf < 1; extended
superstability means some positive weight vector v makes the similarity
scaled norm max_i sum_j |Acl_ij| v_j / v_i less than one.  Certificates
store the weights v, the matrix S with K = S diag(1/v), an optional
envelope matrix M, and the certified gain lambda.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .quantizer import QuantizerSpec, cube_vertices, log_quantize_vector

__all__ = [
    "LinearSystem",
    "builtin_system",
    "StabCertificate",
    "SynthResult",
    "sign_vectors",
    "recover_controller",
    "scaled_infty_norm",
    "closed_loop_vertex_gain",
    "simulate_quantized",
    "decay_check",
]

DIVERGENCE_LIMIT = 1e12
DECAY_SLACK = 1e-9


@dataclass(frozen=True)
class LinearSystem:
    """Plant x+ = A x + B u with A (n x n) and B (n x m)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.shape[0] != A.shape[0]:
            raise ValueError("B row count must match A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("plant matrices must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @classmethod
    def from_json_dict(cls, d):
        return cls(A=np.asarray(d["A"], dtype=float),
                   B=np.asarray(d["B"], dtype=float))


def builtin_system(name):
    """A named built-in plant, or one loaded from a JSON file path.

    "sys1" is a 3-state 2-input open-loop unstable plant (eigenvalues
    -1.0185, -0.2613, 0.1236); "sys2" is A = 0.2 [min(i/j, j/i)]_{ij} +
    0.45 I_5 (1-based indices; spectral radius 1.0633), B = [I_3; 0_{2x3}].
    """
    if name == "sys1":
        A = np.array([[-0.1300, -0.3974, 0.2030],
                      [-0.3974, -0.5000, 0.2990],
                      [0.2030, 0.2990, -0.5262]])
        B = np.array([[0.2179, 1.2300],
                      [0.3592, 0.0],
                      [-1.1553, 0.0]])
        return LinearSystem(A=A, B=B)
    if name == "sys2":
        idx = np.arange(1.0, 6.0)
        ratio = idx[:, None] / idx[None, :]
        A = 0.2 * np.minimum(ratio, 1.0 / ratio) + 0.45 * np.eye(5)
        B = np.vstack([np.eye(3), np.zeros((2, 3))])
        return LinearSystem(A=A, B=B)
    with open(name) as f:
        return LinearSystem.from_json_dict(json.load(f))


@dataclass(frozen=True)
class StabCertificate:
    """Stabilization certificate (v, S, lambda, eta) with K = S diag(1/v).

    v is elementwise positive (all ones in plain superstability mode), S is
    m x n, and lambda is the certified worst-case scaled closed-loop gain.
    M, when present, is a nonnegative envelope matrix with
    |A Y + B diag(beta) S| <= M at every sector vertex beta and row sums
    sum_j M_ij <= lambda * v_i.
    """

    v: np.ndarray
    S: np.ndarray
    lam: float
    eta: float
    mode: str = "ess"
    M: np.ndarray = None
    K: np.ndarray = field(init=False)

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        if np.any(v <= 0):
            raise ValueError("weights v must be positive")
        if self.mode not in ("ss", "ess"):
            raise ValueError("mode must be 'ss' or 'ess'")
        if self.mode == "ss" and not np.all(v == 1.0):
            raise ValueError("superstability mode requires v = 1 exactly")
        if S.shape[1] != v.size:
            raise ValueError("S must be m x n with n = len(v)")
        M = self.M
        if M is not None:
            M = np.atleast_2d(np.asarray(M, dtype=float))
            if M.shape != (v.size, v.size):
                raise ValueError("M must be n x n")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "K", S / v[None, :])
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "eta", float(self.eta))

    def to_json_dict(self):
        d = {
            "v": self.v.tolist(),
            "S": self.S.tolist(),
            "K": self.K.tolist(),
            "lambda": self.lam,
            "eta": self.eta,
            "mode": self.mode,
            "status": "feasible",
        }
        if self.M is not None:
            d["M"] = self.M.tolist()
        return d

    @classmethod
    def from_json_dict(cls, d):
        return cls(v=np.asarray(d["v"], dtype=float),
                   S=np.asarray(d["S"], dtype=float),
                   lam=float(d["lambda"]),
                   eta=float(d["eta"]),
                   mode=d.get("mode", "ess"),
                   M=None if d.get("M") is None else np.asarray(d["M"], float))


@dataclass
class SynthResult:
    """Outcome of a synthesis call: a status string plus optional payload.

    status is 'feasible', 'infeasible', or 'numerical-failure'; certificate
    is present exactly when feasible, which needs a certified gain below 1.
    extras carries method-specific audit data (Farkas multiplier blocks,
    affine envelope parameters) and, for an optimum whose gain is 1 or
    more, that gain ("lam") and its unstable (v, S) ("optimum").
    """

    status: str
    certificate: StabCertificate = None
    extras: dict = field(default_factory=dict)

    @property
    def feasible(self):
        return self.status == "feasible"


# The largest n + m whose 2^(n+m) (alpha, beta) pairs the sign LP and the
# audit enumerate.
ENUM_GUARD = 20


def sign_vectors(n):
    """All sign patterns alpha in {-1, +1}^n, low vertex first.

    Binary counting order: the last coordinate toggles fastest.
    """
    return cube_vertices(-np.ones(n), np.ones(n))


def recover_controller(S, v):
    """Controller recovery K = S diag(1/v), i.e. K_kj = S_kj / v_j."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if np.any(v <= 0):
        raise ValueError("weights must be positive")
    return S / v[None, :]


def scaled_infty_norm(Acl, v):
    """Induced infinity norm of diag(1/v) Acl diag(v).

    Equals max_i sum_j |Acl_ij| v_j / v_i.  The weighted sup norm
    ||x ./ v||_inf is a Lyapunov function of x+ = Acl x exactly when this
    value is below one.
    """
    Acl = np.atleast_2d(np.asarray(Acl, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v <= 0):
        raise ValueError("weights must be positive")
    return float(np.max((np.abs(Acl) @ v) / v))


def _gain(sys, K):
    """K as an m x n array of sys; a ValueError names both shapes."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape != (sys.m, sys.n):
        raise ValueError(f"K is {K.shape[0]} x {K.shape[1]}, but the plant "
                         f"needs m x n = {sys.m} x {sys.n}")
    return K


def _betas(sys, spec):
    """spec's sector vertices; a ValueError unless spec has sys.m channels."""
    if spec.m != sys.m:
        raise ValueError(f"the plant has m = {sys.m} inputs, but the spec "
                         f"quantizes {spec.m}")
    return spec.beta_vertices()


def closed_loop_vertex_gain(sys, K, v, spec):
    """Worst scaled norm of A + B diag(beta) K over all sector vertices beta.

    A value below one certifies extended superstability of every closed loop
    in the sector family, hence of the quantized loop itself.  A K that is
    not m x n, or a spec without m channels, raises ValueError.
    """
    K = _gain(sys, K)
    worst = 0.0
    for beta in _betas(sys, spec):
        Acl = sys.A + sys.B @ (beta[:, None] * K)
        worst = max(worst, scaled_infty_norm(Acl, v))
    return worst


def simulate_quantized(sys, K, spec, x0, T):
    """Simulate x+ = A x + B g(K x) with the elementwise log quantizer g.

    Returns (trajectory, status) where trajectory has T+1 rows (fewer when
    the state exceeds the divergence guard) and status is 'ok' or
    'diverged'.  A negative T or a K that is not m x n raises ValueError.
    """
    if T < 0:
        raise ValueError("step count must be nonnegative")
    K = _gain(sys, K)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.shape != (sys.n,):
        raise ValueError("x0 has wrong dimension")
    traj = [x.copy()]
    for _ in range(int(T)):
        u = log_quantize_vector(K @ x, spec)
        x = sys.A @ x + sys.B @ u
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > DIVERGENCE_LIMIT:
            return np.array(traj), "diverged"
        traj.append(x.copy())
    return np.array(traj), "ok"


def decay_check(trajectory, v, lam):
    """True when ||x_t ./ v||_inf <= lam**t ||x_0 ./ v||_inf at every step."""
    if lam < 0:
        raise ValueError("decay rate must be nonnegative")
    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    w = np.max(np.abs(traj) / v[None, :], axis=1)
    bound = w[0] * lam ** np.arange(len(w))
    return bool(np.all(w <= bound + DECAY_SLACK))
