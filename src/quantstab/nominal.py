"""Known-plant quantized superstabilization in two LP forms.

The lifted (M-form) program searches for an envelope matrix M with

    -M <= A Y + B diag(beta) S <= M   at every sector vertex beta,
    sum_j M_ij <= v_i - eta,          Y = diag(v),

while the sign form eliminates M by enumerating sign patterns:

    sum_j alpha_j (A_ij v_j + sum_k beta_k B_ik S_kj) <= v_i - eta
        for all i, alpha in {-1,1}^n, beta vertices.

Both certify that K = S diag(1/v) extended-superstabilizes every closed
loop in the quantization sector.  The sign form states the exact vertex
worst-case row sums; the M-form bounds each entry by its vertex maximum
before summing, so its feasible set can be strictly smaller whenever
different vertices maximize different entries of the same row.

A known plant is the data-driven problem on the single point
z0 = plant_vec(A, B): a robust counterpart is built row by row, so each
row is substituted at z0 and needs no multipliers, and an affinely
adjustable envelope on a point is a constant one.  Both forms therefore
run the data-driven synthesizers (synth_sign, synth_aarc) on z0.
"""

from dataclasses import dataclass

from .consistency import plant_vec
from .synth_aarc import synthesize_aarc
from .synth_sign import DEFAULT_ETA, synthesize_sign
from .synth_sign import LAMBDA_BISECT_TOL  # noqa: F401 (re-exported)

__all__ = [
    "NominalProblem",
    "synthesize_nominal_mform",
    "synthesize_nominal_sign",
]


@dataclass(frozen=True)
class NominalProblem:
    """A known plant, a quantizer spec, and solve options.

    mode 'ss' fixes v = 1 (plain superstability); 'ess' leaves v free
    positive.  objective 'feasibility' aims for gain below one with slack
    eta; 'min-lambda' minimizes the certified gain instead.
    """

    sys: object
    spec: object
    mode: str = "ess"
    eta: float = DEFAULT_ETA
    objective: str = "feasibility"

    def __post_init__(self):
        if self.mode not in ("ss", "ess"):
            raise ValueError("mode must be 'ss' or 'ess'")
        if self.objective not in ("feasibility", "min-lambda"):
            raise ValueError("objective must be 'feasibility' or 'min-lambda'")
        if self.eta <= 0:
            raise ValueError("stability tolerance eta must be positive")
        if self.spec.m != self.sys.m:
            raise ValueError("quantizer channel count must match the plant")


def _at_plant(synth, prob):
    return synth(plant_vec(prob.sys.A, prob.sys.B), prob.spec,
                 mode=prob.mode, eta=prob.eta, objective=prob.objective)


def synthesize_nominal_mform(prob):
    """Lifted-envelope synthesis for a known plant.

    Returns a SynthResult whose certificate carries the envelope matrix M
    from the LP solution and lambda = max_i sum_j M_ij / v_i; check_cert
    holds on success.
    """
    return _at_plant(synthesize_aarc, prob)


def synthesize_nominal_sign(prob):
    """Sign-enumerated synthesis for a known plant (exact vertex condition).

    Enumerates n 2^(n+m) inequality rows; guarded to n + m <= 20.  The
    returned certificate has no envelope matrix; its lambda is the exact
    worst vertex gain of the recovered controller.
    """
    return _at_plant(synthesize_sign, prob)
