"""Known-plant wrapper, kept only because perfbench imports it.

A known plant is the one-point consistent set: pass plant_vec(A, B) to
synthesize_sign or synthesize_aarc instead.  perfbench/workloads.py still
imports NominalProblem, synthesize_nominal_sign and LAMBDA_BISECT_TOL from
here; the benchmark change of ROADMAP item 9 ports it and deletes this
module.
"""

from dataclasses import dataclass

from .consistency import plant_vec
from .synth_sign import synthesize_sign
from .synth_sign import LAMBDA_BISECT_TOL  # noqa: F401 (re-exported)

__all__ = ["NominalProblem", "synthesize_nominal_sign"]


@dataclass(frozen=True)
class NominalProblem:
    """A known plant, a quantizer spec, and synthesize_sign's mode and
    objective."""

    sys: object
    spec: object
    mode: str = "ess"
    objective: str = "feasibility"

    def __post_init__(self):
        # a flat plant vector cannot tell n = 2, m = 4 from n = 3, m = 1
        if self.spec.m != self.sys.m:
            raise ValueError("quantizer channel count must match the plant")


def synthesize_nominal_sign(prob):
    """synthesize_sign at the point plant_vec(A, B)."""
    return synthesize_sign(plant_vec(prob.sys.A, prob.sys.B), prob.spec,
                           mode=prob.mode, objective=prob.objective)
