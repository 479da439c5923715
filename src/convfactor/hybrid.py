"""Hybrid pipeline: Tucker-2 compression followed by CPD+EPC of the core.

The error budget splits between the two stages in the energy domain:
the Tucker stage consumes ``sqrt(theta) * delta_total`` and the core CPD
gets whatever the Tucker stage left over.  Because U and V are orthonormal
the two stage errors add Pythagorean-style, so the total error stays
within ``delta_total``.
"""

from dataclasses import dataclass

import numpy as np

from .cpd import CPModel, cpd_als
from .epc import epc_correct
from .errors import InfeasibleBoundError
from .tensorops import _Checked, _finite_norm
from .tucker2 import _CUT_SLACK, tucker2_bounded

__all__ = ["HybridModel", "tkd_cpd_epc", "should_merge", "to_equivalent_cp"]

_BOUND_RTOL = 1e-9  # relative slack by which an error counts as within its bound


@dataclass
class HybridModel:
    """Tucker-2 factors wrapping a CP model of the core."""

    U: np.ndarray
    V: np.ndarray
    core_cp: CPModel

    @property
    def ranks(self):
        """(R1, R2, R): multilinear ranks and the core CP rank."""
        return (self.U.shape[1], self.V.shape[1], self.core_cp.rank)

    @property
    def shape(self):
        return (self.core_cp.shape[0], self.U.shape[0], self.V.shape[0])

    def param_count(self):
        """Weight count of the 5-layer factorized form."""
        r1, r2, r = self.ranks
        d2, s, t = self.shape
        return r1 * s + r2 * t + r * (d2 + r1 + r2)

    def to_tensor(self):
        return self.U @ self.core_cp.to_tensor() @ self.V.T


def _exact_core_model(core, rank):
    """Exact CP model of a core tensor from its mode-0 slices.

    Component (p, q), column ``q R1 + p``, is ``core[:, p, q] o e_p o e_q``;
    needs ``rank >= R1 * R2``.  Extra components are zero columns.
    """
    d2, r1, r2 = core.shape
    factors = (core.transpose(0, 2, 1).reshape(d2, r1 * r2), np.tile(np.eye(r1), r2),
               np.repeat(np.eye(r2), r1, axis=1))
    return CPModel(*(np.pad(f, ((0, 0), (0, rank - r1 * r2))) for f in factors))


def tkd_cpd_epc(tensor, delta_total, rank, theta=0.5, ranks=None, seed=0):
    """Decompose an order-3 kernel tensor as Tucker-2 around a CP core.

    Parameters
    ----------
    tensor : ndarray (D2, S, T)
    delta_total : float or None
        Absolute Frobenius error budget for the whole model, finite and
        >= 0; one of at least ``||tensor||`` is vacuous.  What the
        Tucker stage leaves of it is the core's budget, which ends the
        core's ALS fit at its first sweep inside it (see
        :func:`~convfactor.cpd.cpd_als`) and bounds the core's EPC.  None
        (with fixed `ranks`) fits the core to convergence and makes its
        correction error-preserving: EPC keeps the error of the core's CP
        fit.
    rank : int
        CP rank of the core.
    theta : float
        Fraction of the squared budget given to the Tucker stage; fixed
        `ranks` ignore it.
    ranks : (R1, R2), optional
        Fix the multilinear ranks instead of deriving them from the bound.
    seed : int
        Seed of the core's :func:`~convfactor.cpd.cpd_als` fit.
    """
    tensor, norm_t = checked = _finite_norm(tensor)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if delta_total is None:
        if ranks is None:
            raise ValueError(
                "tkd-cpd-epc needs an error bound (--delta) or fixed ranks (--ranks)"
            )
    elif not 0 <= delta_total < np.inf:  # rejects NaN
        raise ValueError("delta_total must be finite and >= 0")
    if not 0 <= theta <= 1:
        raise ValueError("theta must lie in [0, 1]")

    # no budget means fixed ranks, where tucker2_bounded ignores its bound
    delta_tkd = 0.0 if delta_total is None else np.sqrt(theta) * delta_total
    # an empty core (vacuous bound, zero tensor) has no CP: keep one per mode
    vacuous = ranks is None and norm_t**2 - delta_tkd**2 <= 0
    tkd = tucker2_bounded(checked, delta_tkd, ranks=(1, 1) if vacuous else ranks)
    # a projection of the checked kernel: the core solvers do not check it again
    core = _Checked(tkd.G, np.linalg.norm(tkd.G))
    delta_core = None  # no budget: EPC keeps the core fit's error
    if delta_total is not None:
        err_tkd2 = max(float(norm_t**2 - core.norm**2), 0.0)
        # a free cut may stop _CUT_SLACK·tr(Q) ≤ _CUT_SLACK·‖T‖² short of its bound
        if err_tkd2 > delta_total**2 * (1 + _BOUND_RTOL) + _CUT_SLACK * norm_t**2:
            raise InfeasibleBoundError(
                "the Tucker stage alone already exceeds the total budget; "
                "use larger fixed multilinear ranks",
                min_residual=err_tkd2,
                bound=delta_total**2,
            )
        delta_core = float(np.sqrt(max(delta_total**2 - err_tkd2, 0.0)))

    r1, r2 = tkd.ranks
    res = cpd_als(core, rank, seed=seed, delta=delta_core)
    err_core = res.rel_error * core.norm
    model = res.model
    if delta_core is not None and err_core > delta_core + _BOUND_RTOL * core.norm:
        if rank >= r1 * r2:
            model = _exact_core_model(core.tensor, rank)
        else:
            share = "" if ranks else " or give the Tucker stage a smaller share (theta)"
            raise InfeasibleBoundError(
                f"CP rank {rank} cannot meet the core budget; raise the rank{share}",
                min_residual=err_core**2,
                bound=delta_core**2,
            )

    corrected, _ = epc_correct(core, model, delta=delta_core)
    return HybridModel(tkd.U, tkd.V, corrected)


def should_merge(ranks):
    """True when the CP rank is below both multilinear ranks.

    In that case the back-to-back 1x1 convolutions of the 5-layer hybrid
    block can be merged, so the plain 3-layer CP block is smaller.
    """
    r1, r2, r = ranks
    if min(r1, r2, r) < 1:
        raise ValueError("ranks must be positive")
    return r < r1 and r < r2


def to_equivalent_cp(model):
    """Absorb the Tucker factors into the core CP factors.

    Returns a CP model of the full tensor with ``B' = U @ B`` and
    ``C' = V @ C``; orthonormality of U and V preserves column norms, and
    the reconstruction is identical.
    """
    core = model.core_cp
    return CPModel(core.A, model.U @ core.B, model.V @ core.C)
