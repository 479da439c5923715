"""Error-preserving correction: minimize sensitivity under an error bound.

Given a tensor and a CP model (typically a degenerate ALS result with huge
canceling components), re-optimize the factors to minimize sensitivity
subject to ``||t - [[A, B, C]]||_F <= delta``.  Each factor update is an
exact minimum-weighted-norm least-squares problem with a residual-ball
constraint, solved in closed form through a one-dimensional secular
equation in the Lagrange multiplier.
"""

from dataclasses import dataclass

import numpy as np

from .cpd import CPModel, balance_components, sensitivity
from .errors import InfeasibleBoundError
from .tensorops import Mttkrp, cp_residual_sq, khatri_rao

# The Gram-form error is used only where its roundoff bound resolves the
# squared error to this relative accuracy, so a recorded error sits within
# about 5e-11 relative of the dense one and can be checked against delta.
_ERROR_RTOL = 1e-10
_SECULAR_ROUNDOFF = 16 * np.finfo(np.float64).eps
_QP_TOL = 1e-10  # relative tolerance of the secular root and feasibility tests
_QP_MAX_ITERS = 200  # Newton/bisection steps of the secular root-find

__all__ = [
    "EpcOptions",
    "epc_correct",
    "factor_update_bounded",
    "spherical_qp",
]


@dataclass
class EpcOptions:
    """Knobs for :func:`epc_correct`.

    delta is the absolute Frobenius error bound; None means "preserve the
    current error of the input model".  ``unweighted_diag`` selects the
    plain diagonal ``diag(B'B + C'C)`` for the factor subproblems instead
    of the dimension-weighted diagonal that exactly matches the
    sensitivity formula.
    """

    delta: float | None = None
    max_sweeps: int = 100
    ss_tol: float = 1e-6
    unweighted_diag: bool = False

    def __post_init__(self):
        if self.delta is not None and not self.delta >= 0:  # rejects NaN
            raise ValueError("delta must be >= 0")
        if self.ss_tol <= 0:
            raise ValueError("ss_tol must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


def spherical_qp(y, zt, delta):
    """Minimum-norm matrix regression with a residual-ball constraint.

    Solves ``min ||X||_F^2  s.t.  ||Y - X Zt'||_F^2 <= delta^2``.

    A thin adapter: the solver only needs ``Y Zt``, ``Zt'Zt`` and
    ``||Y||^2``, which it passes to the secular-equation core that
    :func:`epc_correct` calls directly with Gram-form inputs.  The
    stationary family is ``X(mu) = mu Y Zt (I + mu Zt'Zt)^{-1}`` with
    multiplier mu >= 0; the residual is a strictly decreasing rational
    function of mu, evaluated stably in the eigenbasis of Zt'Zt and solved
    by Newton steps safeguarded with bisection.

    Returns
    -------
    (X, mu) : (ndarray, float)
        mu is 0 when the origin is feasible, inf when the bound equals the
        least-squares residual (exact-fit limit).

    Raises
    ------
    InfeasibleBoundError
        If even the unconstrained least-squares residual exceeds delta^2.
    RuntimeError
        If the scalar root-find does not converge within 200 steps.
    """
    y = np.asarray(y, dtype=np.float64)
    zt = np.asarray(zt, dtype=np.float64)
    return _secular_solve(y @ zt, zt.T @ zt, float(np.sum(y**2)), delta)


def _secular_solve(yz, gram, norm_y2, delta):
    """Core of :func:`spherical_qp` on ``Y Zt``, ``Zt'Zt`` and ``||Y||^2``.

    Costs one ``R x R`` eigendecomposition and ``O(n R^2)`` for an
    ``n x R`` unknown, whatever the length of the rows of Y.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    delta2 = delta**2

    if norm_y2 <= delta2 * (1 + 1e-15) or norm_y2 == 0.0:
        return np.zeros(yz.shape), 0.0

    lam, q = np.linalg.eigh((gram + gram.T) / 2)
    lam = np.maximum(lam, 0.0)
    p = yz @ q                          # columns in the eigenbasis
    s = np.sum(p**2, axis=0)            # component energies
    # eigenvalues below the relative cutoff carry no usable signal
    cutoff = 1e-12 * (lam[-1] if lam.size else 0.0)
    live = lam > cutoff

    # least-squares residual: energy outside the reachable subspace
    r_min = norm_y2 - float(np.sum(s[live] / lam[live])) if np.any(live) else norm_y2
    r_min = max(r_min, 0.0)
    scale = max(norm_y2, 1.0)
    if r_min > delta2 + _QP_TOL * scale:
        raise InfeasibleBoundError(
            f"least-squares residual {r_min:.6g} exceeds bound {delta2:.6g}",
            min_residual=r_min,
            bound=delta2,
        )

    lam_l = lam[live]
    s_l = s[live]

    def residual(mu):
        num = s_l * (2.0 * mu + mu**2 * lam_l)
        return norm_y2 - float(np.sum(num / (1.0 + mu * lam_l) ** 2))

    def residual_prime(mu):
        return -2.0 * float(np.sum(s_l / (1.0 + mu * lam_l) ** 3))

    def x_of(mu):
        # dead directions carry no residual signal; the min-norm solution
        # (and the secular residual above) puts exactly zero there
        coef = np.where(live, mu / (1.0 + mu * lam), 0.0)
        return (p * coef) @ q.T

    if delta2 <= r_min + _QP_TOL * scale:
        # active bound sits at the exact-fit limit: min-norm LS solution
        coef = np.zeros_like(lam)
        coef[live] = 1.0 / lam[live]
        return (p * coef) @ q.T, np.inf

    # the secular residual carries roundoff of order eps * ||Y||^2 (it is
    # r_min plus positive terms, and r_min cancels): aim inside the ball by
    # that much and accept a root to within half of it, so the bound holds
    # for the returned X and not just for the computed residual.  The
    # exact-fit test above keeps target > r_min.
    roundoff = _SECULAR_ROUNDOFF * norm_y2
    target = delta2 - roundoff
    f_tol = _QP_TOL * max(delta2, _QP_TOL) + 0.5 * roundoff

    # bracket [lo, hi] with residual(lo) > target > residual(hi)
    lo = 0.0
    hi = 1.0 / max(lam_l[-1], 1e-300)
    for _ in range(400):
        if residual(hi) < target:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError(
            f"could not bracket the multiplier (bracket [{lo:.3g}, {hi:.3g}])"
        )

    mu = lo
    for _ in range(_QP_MAX_ITERS):
        f = residual(mu) - target
        if abs(f) <= f_tol:
            return x_of(mu), mu
        if f > 0:
            lo = mu
        else:
            hi = mu
        step = mu - f / residual_prime(mu)
        mu = step if lo < step < hi else 0.5 * (lo + hi)
    f = residual(mu) - target
    if abs(f) <= 1e-6 * max(delta2, 1e-12) + 0.5 * roundoff:
        return x_of(mu), mu
    raise RuntimeError(
        f"secular root-find did not converge: mu={mu:.6g}, "
        f"bracket [{lo:.6g}, {hi:.6g}], residual gap {f:.6g}"
    )


def factor_update_bounded(k1, z, w, delta):
    """One bound-constrained factor update.

    Solves ``min ||A diag(w)||_F^2  s.t.  ||K1 - A Z'||_F^2 <= delta^2``
    via the change of variables ``At = A diag(w)``, ``Zt = Z diag(1/w)``,
    which turns the objective into a plain minimum-norm regression.  A
    thin adapter: it forms ``K1 Z``, ``Z'Z`` and ``||K1||^2`` and hands
    them to the same secular-equation core as :func:`spherical_qp`, which
    is what :func:`epc_correct` does with the MTTKRP and the Hadamard
    product of the factor Grams in place of ``K1 Z`` and ``Z'Z``.

    `w` must be strictly positive.
    """
    w = np.asarray(w, dtype=np.float64)
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    k1 = np.asarray(k1, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    return _weighted_update(k1 @ z, z.T @ z, float(np.sum(k1**2)), w, delta)


def _weighted_update(yz, gram, norm_y2, w, delta):
    """``A`` minimizing ``||A diag(w)||`` within the residual ball, from
    ``K1 Z``, ``Z'Z`` and ``||K1||^2``."""
    at, _ = _secular_solve(yz / w, gram / np.outer(w, w), norm_y2, delta)
    return at / w


def epc_correct(tensor, model, opts=None):
    """Minimize model sensitivity while keeping the approximation error
    within a bound.

    Sweeps A -> B -> C cyclically; each update is the exact constrained
    minimizer of the sensitivity terms involving that factor, so both the
    error bound and sensitivity monotonicity hold after every accepted
    update.  Components are magnitude-balanced across factors up front
    (free sensitivity reduction, reconstruction unchanged).

    A factor update needs only the factor's MTTKRP (see
    :class:`~convfactor.tensorops.Mttkrp`), the Hadamard product of the two
    fixed factors' Grams and ``||T||^2``.  For an I x J x K tensor a sweep
    therefore costs two ``O(I J K R)`` GEMMs plus ``O((I+J+K) R^2 + R^3)``
    for the Grams and the three secular solves; no ``(J*K) x R`` or
    ``(I*K) x R`` Khatri-Rao matrix is built.  The per-sweep error is the
    Gram form of :func:`~convfactor.tensorops.cp_residual_sq`; where that
    form cannot resolve the error to ``1e-10`` relative (close fits and
    large cancelling components), the dense residual, one more GEMM, is
    used instead, so every recorded error can be checked against the
    bound.

    Returns
    -------
    (CPModel, trace)
        The corrected model (weights absorbed into the factors) and a list
        of per-sweep records ``{"error": float, "ss": float}``, starting
        with the balanced input state.
    """
    if opts is None:
        opts = EpcOptions()
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got order {tensor.ndim}")
    if model.shape != tensor.shape:
        raise ValueError(f"model shape {model.shape} != tensor shape {tensor.shape}")

    norm_t = np.linalg.norm(tensor)
    norm_t2 = norm_t**2
    model = balance_components(model)
    a, b, c = model.A, model.B, model.C
    mt = Mttkrp(tensor)

    def dense_error(a, b, c):
        return float(np.linalg.norm(mt.t_k - khatri_rao(a, b) @ c.T))

    err0 = dense_error(a, b, c)
    delta = err0 if opts.delta is None else float(opts.delta)
    trace = [{"error": err0, "ss": sensitivity(CPModel(a, b, c))}]

    def update(mttkrp, g1, g2, dim1, dim2, name):
        """Bounded update of one factor from its MTTKRP; g1, g2 are the
        Grams of the two fixed factors, of extents dim1, dim2."""
        d1, d2 = np.diag(g1), np.diag(g2)
        if opts.unweighted_diag:
            w2 = d1 + d2
        else:
            w2 = dim2 * d1 + dim1 * d2
        # dead components (zero in both fixed factors) contribute nothing:
        # solve the problem on the live ones and zero the rest
        live = w2 > 1e-300
        new = np.zeros(mttkrp.shape)
        if not np.any(live):
            if norm_t > delta + _QP_TOL * max(norm_t, 1.0):
                raise InfeasibleBoundError(
                    f"all components vanished while updating {name} and the "
                    f"remaining residual exceeds the bound",
                    min_residual=norm_t2,
                    bound=delta**2,
                    factor=name,
                )
            return new
        try:
            new[:, live] = _weighted_update(
                mttkrp[:, live], (g1 * g2)[np.ix_(live, live)], norm_t2,
                np.sqrt(w2[live]), delta,
            )
        except InfeasibleBoundError as e:
            e.factor = name
            raise
        return new

    i, j, k = tensor.shape
    gb, gc = b.T @ b, c.T @ c
    prev_ss = trace[0]["ss"]
    for _ in range(opts.max_sweeps):
        w = mt.partial_c(c)
        a = update(mt.mode0(w, b), gb, gc, j, k, "A")
        ga = a.T @ a
        b = update(mt.mode1(w, a), ga, gc, i, k, "B")
        gb = b.T @ b
        m_c = mt.mode2(a, b)
        c = update(m_c, ga, gb, i, j, "C")
        gc = c.T @ c
        e2, slack = cp_residual_sq(norm_t2, m_c, c, (ga, gb, gc))
        # single-factor updates cannot move magnitude between factors;
        # rebalancing is free (reconstruction unchanged, ss non-increasing)
        balanced = balance_components(CPModel(a, b, c))
        a, b, c = balanced.A, balanced.B, balanced.C
        gb, gc = b.T @ b, c.T @ c
        ss = sensitivity(balanced)
        if slack <= _ERROR_RTOL * e2:
            err = float(np.sqrt(e2))
        else:
            err = dense_error(a, b, c)
        trace.append({"error": err, "ss": float(ss)})
        if prev_ss <= 0 or abs(prev_ss - ss) <= opts.ss_tol * max(prev_ss, 1e-300):
            break
        prev_ss = ss

    return CPModel(a, b, c), trace
