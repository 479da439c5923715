"""One fit path for every method, shared by ``decompose``, the rank-search
score and the external rank-search hook.

:func:`fit` decomposes an order-3 tensor; :func:`decompose_to_block` adds
the emitted layer block and its metrics.
"""

import numpy as np

from .convblocks import (
    block_metrics,
    emit_cpd_block,
    emit_svd_block,
    emit_tkd_cpd_block,
)
from .cpd import CPModel, cpd_als, intensity, rel_error, sensitivity, sign_components
from .epc import epc_correct
from .errors import InfeasibleBoundError
from .fileio import Block
from .hybrid import (_BOUND_RTOL, HybridModel, should_merge, tkd_cpd_epc,
                     to_equivalent_cp)
from .tensorops import _column_signs, _finite_norm

__all__ = ["decompose_to_block", "fit", "METHODS"]

METHODS = ("cpd", "cpd-epc", "tkd-cpd-epc", "svd")


def fit(tensor, method, rank, seed=0, ranks=None, theta=None, delta_rel=None):
    """Decompose a (D^2, S, T) tensor with `method` at CP rank `rank`.

    Every CP fit is ``cpd_als(..., seed=seed)`` and every correction
    ``epc_correct(..., delta=...)``; the solvers' settings are their module
    constants, and they take the tensor as checked here, once (a
    ``_Checked`` pair of :func:`~convfactor.tensorops._finite_norm`, as the
    CLI's ``decompose`` hands on, is not checked again).  `delta_rel`
    is the error bound of cpd-epc and tkd-cpd-epc as a fraction of the
    tensor norm, in [0, 1] (ValueError otherwise, NaN included).  The bound
    goes to both solvers: ALS stops at its first sweep inside it and EPC
    trades what is left of it for lower sensitivity; the fit delivers at
    most ``delta_rel (1 + 1e-9)`` or raises InfeasibleBoundError in its
    units.  When omitted, ALS runs to convergence and EPC preserves the
    error the fit achieved.  `ranks` shapes tkd-cpd-epc alone, `theta`
    (None: the hybrid's default) only its free ranks, and an argument the
    method would ignore, such as these or `delta_rel` for cpd or svd,
    raises ValueError.

    Returns (model, report): the model :func:`decompose_to_block` ships, and
    the kind of its block as ``report["block"]``.  That is a HybridModel
    ("tkd-cpd") for an unmerged tkd-cpd-epc and a CPModel ("cpd")
    otherwise: the equivalent CP (:func:`~convfactor.hybrid.to_equivalent_cp`)
    of a merged hybrid, or ("svd") the truncated SVD of the 1x1 kernel's
    matrix, singular values in A, right singular vectors in B, left ones in
    C.  The report carries the model's relative error as "rel_error",
    which :func:`~convfactor.cpd.rel_error` computes for every method from
    the CP factors (for the hybrid, those of its equivalent CP), and, for
    cpd-epc, the diagnostics of the ALS fit EPC starts from as "before".
    Every CP model but the svd one (for the hybrid, the core's) passes
    :func:`~convfactor.cpd.sign_components` once, and the svd pairs take the
    signs that make each column of B peak positive, so the delivered
    factors do not depend on the signs LAPACK picks.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if delta_rel is not None and method in ("cpd", "svd"):
        raise ValueError(f"{method} takes no error bound (--delta)")
    if delta_rel is not None and not 0 <= delta_rel <= 1:  # rejects NaN
        raise ValueError(f"--delta must lie in [0, 1], got {delta_rel:g}")
    if ranks is not None and method != "tkd-cpd-epc":
        raise ValueError(f"{method} takes no multilinear ranks (--ranks)")
    if theta is not None and (method != "tkd-cpd-epc" or ranks is not None):
        what = method if ranks is None else f"{method} with fixed ranks"
        raise ValueError(f"{what} takes no budget share (--theta)")
    tensor, norm_t = checked = _finite_norm(tensor)
    delta = None if delta_rel is None else float(delta_rel) * norm_t
    report = {"method": method, "rank": int(rank),
              "block": "svd" if method == "svd" else "cpd"}

    if method == "svd":
        if tensor.shape[0] != 1:
            raise ValueError("svd requires a 1x1 kernel")
        u, s_vals, vt = np.linalg.svd(tensor[0].T, full_matrices=False)
        if rank > s_vals.size:
            raise ValueError(f"rank must lie in [1, {s_vals.size}]")
        signs = _column_signs(vt[:rank].T)
        model = CPModel(s_vals[None, :rank], vt[:rank].T * signs, u[:, :rank] * signs)

    elif method == "cpd":
        model = cpd_als(checked, rank, seed=seed).model

    else:  # the bounded methods
        try:
            if method == "cpd-epc":
                res = cpd_als(checked, rank, seed=seed, delta=delta)
                report["before"] = {"rel_error": res.rel_error,
                                    "sensitivity": sensitivity(res.model),
                                    "intensity": intensity(res.model)}
                model, _ = epc_correct(checked, res.model, delta=delta)
            else:  # tkd-cpd-epc
                share = {} if theta is None else {"theta": theta}
                model = tkd_cpd_epc(checked, delta, rank, ranks=ranks, seed=seed,
                                    **share)
                report["ranks"] = model.ranks
                report["merged"] = should_merge(model.ranks)
        except InfeasibleBoundError as e:
            if delta_rel is None:
                raise
            # the solvers' residuals are squared and absolute; restate them
            # in --delta's units
            raise InfeasibleBoundError(
                f"--delta {delta_rel:g} cannot be met (relative error "
                f"{np.sqrt(e.min_residual) / norm_t:.3g} reached, "
                f"{np.sqrt(e.bound) / norm_t:.3g} allowed): {e}",
                min_residual=e.min_residual, bound=e.bound, factor=e.factor,
            ) from e

    cp = model
    if isinstance(model, HybridModel):
        model = HybridModel(model.U, model.V, sign_components(model.core_cp))
        cp = to_equivalent_cp(model)
        report["block"] = "cpd" if report["merged"] else "tkd-cpd"
    elif method != "svd":  # the svd pairs took their signs above
        model = cp = sign_components(model)
    err = report["rel_error"] = rel_error(tensor, cp)
    if delta_rel is not None and err > delta_rel * (1 + _BOUND_RTOL):
        # EPC's exact-fit limit may pass its bound by _QP_TOL ||T||^2; --delta may not
        raise InfeasibleBoundError(
            f"--delta {delta_rel:g} cannot be met (relative error {err:.3g} reached, "
            f"{delta_rel:g} allowed)", min_residual=(err * norm_t) ** 2, bound=delta**2)
    return (model if report["block"] == "tkd-cpd" else cp), report


def decompose_to_block(tensor, method, rank, spec, seed=0, ranks=None, theta=None,
                       delta_rel=None, input_hw=(56, 56)):
    """Decompose a (D^2, S, T) tensor (see :func:`fit`) and emit the
    matching layer block.

    Returns (Block, report).  The block's metrics are the fit's
    ``rel_error`` and the :func:`~convfactor.convblocks.block_metrics` of
    its layers.
    """
    model, report = fit(tensor, method, rank, seed=seed, ranks=ranks, theta=theta,
                        delta_rel=delta_rel)
    kind = report["block"]
    # looked up per call: the benchmark's span tracer wraps the emitters' names
    emit = {"cpd": emit_cpd_block, "tkd-cpd": emit_tkd_cpd_block,
            "svd": emit_svd_block}[kind]
    layers = emit(model, spec)
    metrics = {"rel_error": float(report["rel_error"]),
               **block_metrics(layers, kind, input_hw)}
    return Block(kind, spec, layers, metrics), report
