"""convfactor: stable low-rank factorization of convolution kernels.

Decompose a conv kernel with CPD, repair degenerate (diverging-component)
solutions by minimizing sensitivity under an error bound, compress with
bound-constrained Tucker-2 or the hybrid Tucker+CP pipeline, and emit
equivalent chains of small convolution layers.

The package namespace holds the names the demos and the README use; the
rest (file I/O, error types, solver internals) lives in the submodules.
"""

from .convblocks import (
    ConvSpec,
    compose_forward,
    conv2d_reference,
    count_params_flops,
    emit_cpd_block,
    emit_svd_block,
    emit_tkd_cpd_block,
)
from .cpd import CPModel, cpd_als, intensity, monte_carlo_sensitivity, sensitivity
from .epc import epc_correct
from .hybrid import should_merge, tkd_cpd_epc, to_equivalent_cp
from .ranksearch import Evaluator, binary_search_rank
from .tensorops import reconstruct_cp, reshape_kernel, restore_kernel
from .tucker2 import build_q1, build_q2, core_closed_form, tucker2_bounded

__version__ = "0.1.0"
