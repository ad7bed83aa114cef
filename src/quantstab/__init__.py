"""Robust superstabilizing controller synthesis from quantized data.

The package turns interval-quantized state-transition records into a
polytope of consistent plants, then synthesizes a single state-feedback
gain whose logarithmically quantized closed loop is (extended)
superstable for every plant in that polytope.  Robustness is certified
through polytope containment (extended Farkas lemma), either exactly by
sign enumeration or tractably through an affine envelope restriction, and
every certificate can be audited by an independent support-function
oracle.
"""

from .quantizer import (QuantizerSpec, Partition, builtin_partition,
                        delta_from_rho, log_quantize, log_quantize_vector,
                        interval_quantize)
from .sysmodel import (LinearSystem, builtin_system, StabCertificate,
                       SynthResult, sign_vectors, recover_controller,
                       scaled_infty_norm, closed_loop_vertex_gain,
                       simulate_quantized, decay_check)
from .lp_core import Polytope, max_linear_over_polytope
from .consistency import (DataSample, Dataset, generate_dataset,
                          build_polytope, plant_vec, singleton_polytope,
                          contains_plant, prune_redundant)
from .nominal import NominalProblem, synthesize_nominal_sign
from .synth_sign import (synthesize_sign, count_constraints_sign,
                         min_feasible_rho)
from .synth_aarc import (AffineMParam, eval_affine_M, synthesize_aarc,
                         count_constraints_aarc)
from .verify import VerificationReport, robust_verify

__version__ = "0.1.0"

__all__ = [
    "QuantizerSpec", "Partition", "delta_from_rho", "log_quantize",
    "log_quantize_vector", "interval_quantize",
    "LinearSystem", "StabCertificate", "SynthResult", "sign_vectors",
    "recover_controller", "scaled_infty_norm", "closed_loop_vertex_gain",
    "simulate_quantized", "decay_check",
    "Polytope", "max_linear_over_polytope",
    "DataSample", "Dataset", "generate_dataset", "build_polytope",
    "plant_vec", "contains_plant", "prune_redundant",
    "NominalProblem", "synthesize_nominal_sign",
    "synthesize_sign", "count_constraints_sign",
    "AffineMParam", "eval_affine_M", "synthesize_aarc",
    "count_constraints_aarc",
    "VerificationReport", "robust_verify",
    "builtin_system", "builtin_partition",
    "singleton_polytope", "min_feasible_rho",
    "__version__",
]
