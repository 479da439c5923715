"""Error-preserving correction: minimize sensitivity under an error bound.

Given a tensor and a CP model (typically a degenerate ALS result with huge
canceling components), re-optimize the factors to minimize sensitivity
subject to ``||t - [[A, B, C]]||_F <= delta``.  Each factor update is an
exact minimum-weighted-norm least-squares problem with a residual-ball
constraint, solved in closed form through a one-dimensional secular
equation in the Lagrange multiplier.  Sweeps after the first start from
extrapolated fixed factors (Nesterov momentum), kept only when they lower
the sensitivity and otherwise restarted with a plain sweep, so every kept
sweep still meets the bound and the sensitivity never rises.
"""

import numpy as np

from .cpd import (_NULL_RTOL, CPModel, _gram_error, balance_components, rel_error,
                  sensitivity)
from .errors import InfeasibleBoundError
from .tensorops import _ROUNDOFF, _finite_norm, cp_sweep
# not used here: the benchmark's span tracer (benchmarks/tracing.py) wraps this name
from .tensorops import khatri_rao  # noqa: F401

# The Gram-form error is recorded only where its roundoff margin is at most
# this fraction of it, close enough to the dense error to check against delta.
_ERROR_RTOL = 1e-10
_QP_TOL = 1e-10  # relative tolerance of the secular root and feasibility tests
_QP_MAX_ITERS = 200  # Newton steps of the secular root-find
_MAX_SWEEPS = 100  # sweep cap of every correction
_SS_TOL = 1e-6  # stop once a sweep lowers the sensitivity by at most this, relative

__all__ = ["epc_correct", "spherical_qp"]


def spherical_qp(y, zt, delta):
    """Minimum-norm matrix regression with a residual-ball constraint.

    Solves ``min ||X||_F^2  s.t.  ||Y - X Zt'||_F^2 <= delta^2``.

    A thin adapter: the solver only needs ``Y Zt``, ``Zt'Zt`` and
    ``||Y||^2``, which it passes to the secular-equation core that
    :func:`epc_correct` calls directly with Gram-form inputs.  The
    stationary family is ``X(mu) = mu Y Zt (I + mu Zt'Zt)^{-1}`` with
    multiplier mu >= 0; the residual is a strictly decreasing rational
    function of mu, evaluated in the eigenbasis of Zt'Zt.  Newton steps on
    the reciprocal square root of its excess over the least-squares
    residual (Moré & Sorensen's trust-region iteration) rise monotonically
    to the root, aimed at ``delta^2 (1 - 1e-10)`` minus the evaluation's
    roundoff and accepted within ``1e-10 delta^2`` of that, so the returned
    residual is at most ``delta^2``.  The eigendecomposition's own roundoff,
    about ``eps (||Y||^2 + e_max ||X||^2)``, is not in that margin; it
    matters only for a very ill-conditioned Zt'Zt.

    Returns
    -------
    (X, mu) : (ndarray, float)
        mu is 0 when the origin is feasible, inf at the exact-fit limit:
        when the bound is within ``1e-10 ||Y||^2`` of the
        least-squares residual, the least-squares solution is returned.

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
    if not delta >= 0:  # rejects NaN
        raise ValueError("delta must be >= 0")
    delta2 = delta**2

    if norm_y2 <= delta2 * (1 + 1e-15) or norm_y2 == 0.0:
        return np.zeros(yz.shape), 0.0

    ev, q = np.linalg.eigh((gram + gram.T) / 2)
    ev = np.maximum(ev, 0.0)
    p = yz @ q                          # columns in the eigenbasis
    s = np.sum(p**2, axis=0)            # component energies
    # eigenvalues below the relative cutoff carry no usable signal
    cutoff = _NULL_RTOL * (ev[-1] if ev.size else 0.0)
    live = ev > cutoff
    ev_l = ev[live]
    c = s[live] / ev_l

    # least-squares residual: energy outside the reachable subspace
    r_min = max(norm_y2 - float(np.sum(c)), 0.0)
    if r_min > delta2 + _QP_TOL * norm_y2:
        raise InfeasibleBoundError(
            f"least-squares residual {r_min:.6g} exceeds bound {delta2:.6g}",
            min_residual=r_min,
            bound=delta2,
        )

    # the secular residual carries roundoff of order eps * ||Y||^2 (r_min
    # cancels): aim inside the ball by that much plus the acceptance
    # tolerance, so that an accepted residual is at most delta^2 - roundoff
    tol = _QP_TOL * delta2
    target = delta2 - tol - _ROUNDOFF * norm_y2
    if delta2 <= r_min + _QP_TOL * norm_y2 or target <= r_min:
        # active bound sits at the exact-fit limit: min-norm LS solution
        coef = np.zeros_like(ev)
        coef[live] = 1.0 / ev_l
        return (p * coef) @ q.T, np.inf

    # The residual is r_min + h(mu), h(mu) = sum_i c_i (1 + mu e_i)^-2 with
    # c_i = s_i / e_i.  h has the form of ||p||^2 in the trust-region
    # subproblem (Moré & Sorensen 1983), so h^(-1/2) is concave and
    # increasing, and Newton on h^(-1/2) = gap^(-1/2) from below the root
    # rises monotonically to it with no safeguard.  The start is below the
    # root: h(mu) >= C_k (1 + mu e_k)^-2, with C_k the sum of c_i over
    # e_i <= e_k (eigh sorts ascending).
    gap = target - r_min
    mu = max(float(np.max((np.sqrt(np.cumsum(c) / gap) - 1.0) / ev_l)), 0.0)
    for _ in range(_QP_MAX_ITERS):
        d = 1.0 / (1.0 + mu * ev_l)
        cd2 = c * d**2
        h = float(np.sum(cd2))
        if abs(h - gap) <= tol:
            # dead directions carry no residual signal; the min-norm
            # solution (and h) puts exactly zero there
            coef = np.where(live, mu / (1.0 + mu * ev), 0.0)
            return (p * coef) @ q.T, mu
        mu += h * (np.sqrt(h / gap) - 1.0) / float(np.sum(cd2 * ev_l * d))
    raise RuntimeError(
        f"secular root-find did not converge: mu={mu:.6g}, residual gap {h - gap:.6g}"
    )


def _factor_update(mttkrp, gram, w2, norm_y2, delta):
    """One bound-constrained factor update.

    Solves ``min ||A diag(w)||_F^2  s.t.  ||K1 - A Z'||_F^2 <= delta^2``
    from ``K1 Z`` (`mttkrp`), ``Z'Z`` (`gram`), ``||K1||^2`` and the squared
    weights `w2`.  The change of variables ``At = A diag(w)``,
    ``Zt = Z diag(1/w)`` turns it into the plain minimum-norm regression of
    :func:`_secular_solve`.  A dead component (``w2 <= 1e-300``: zero in
    both fixed factors, so zero in ``K1 Z`` and ``Z'Z``) gets weight 1,
    lies in the solver's null space and is returned as exact zeros, which
    eigh roundoff alone would not guarantee.
    """
    dead = w2 <= 1e-300
    w = np.sqrt(np.where(dead, 1.0, w2))
    at, _ = _secular_solve(mttkrp / w, gram / np.outer(w, w), norm_y2, delta)
    new = at / w
    new[:, dead] = 0.0
    return new


def epc_correct(tensor, model, delta=None):
    """Minimize model sensitivity while keeping the approximation error
    within `delta`, the absolute Frobenius error bound; None keeps the
    error of the input model.

    Each sweep is :func:`~convfactor.tensorops.cp_sweep`, the A -> B -> C
    sweep ALS runs too, with the least-squares factor update replaced by
    the exact constrained minimizer of the sensitivity terms involving that
    factor, so the error bound holds after every update.  The bound holds
    as stated whenever the ball is wider than the update's least-squares
    residual by more than the secular solve's tolerance (see
    :func:`spherical_qp`); at the exact-fit limit the least-squares update
    is returned, within ``1e-10 ||T||^2`` of the bound.  Components are
    magnitude-balanced across factors up front and after every sweep (free
    sensitivity reduction, reconstruction unchanged).

    Each sweep after an accepted one starts from extrapolated fixed
    factors ``B + beta (B - B_old)`` and ``C + beta (C - C_old)``, where
    B_old, C_old are those of the accepted point before (Nesterov momentum
    with restart; Mitchell, Ye & De Sterck, arXiv:1810.05846).  A needs
    none, since the sweep computes it from them first.  ``beta = (k - 1) /
    (k + 2)`` with k the points accepted since the last restart, that
    point included.  An extrapolated sweep is kept only if it lowers the
    balanced sensitivity; when it does not, or one of its updates finds
    the bound infeasible, it is discarded, k restarts at 1 and a plain
    sweep from the accepted point follows.  A plain sweep that would raise
    the sensitivity, which only the solver's margin at the bound can
    cause, ends the correction.  So every accepted sweep is three exact
    bounded updates and the sensitivity never rises.  Every correction
    computes at most ``_MAX_SWEEPS = 100`` sweeps, discarded ones included,
    and stops once an accepted sweep lowers the sensitivity by at most
    ``_SS_TOL = 1e-6`` relative.

    A factor update needs only the factor's MTTKRP and the two fixed
    factors' Grams, which ``cp_sweep`` hands it, and ``||T||^2``.  For an
    I x J x K tensor a sweep therefore costs ``O(I J K R)`` in GEMMs plus
    ``O((I+J+K) R^2 + R^3)`` for the Grams and the three secular solves, as
    an ALS sweep does, and builds no tensor-sized array.  The starting
    error is :func:`~convfactor.cpd.rel_error`; the per-sweep error is the
    Gram form of :func:`~convfactor.tensorops.cp_residual_sq`, or
    ``rel_error`` where that form cannot resolve it to ``1e-10`` relative
    (close fits and large cancelling components), so every recorded error
    can be checked against the bound.

    Returns
    -------
    (CPModel, trace)
        The corrected model, balanced (:func:`balance_components`), and a
        list of records ``{"error": float, "ss": float}``, one for the
        balanced input state and one per accepted sweep.  A sweep's record
        also holds ``"extrapolated"`` (bool), whether it started from the
        extrapolated factors, and ``"rejected"`` (int), how many
        extrapolated sweeps were discarded since the record before.
    """
    if delta is not None and not delta >= 0:  # rejects NaN
        raise ValueError("delta must be >= 0")
    tensor, norm_t = _finite_norm(tensor)
    if model.shape != tensor.shape:
        raise ValueError(f"model shape {model.shape} != tensor shape {tensor.shape}")

    norm_t2 = norm_t**2
    model = balance_components(model)
    a, b, c = model.A, model.B, model.C

    err0 = float(rel_error(tensor, model) * norm_t)
    delta = err0 if delta is None else float(delta)
    trace = [{"error": err0, "ss": sensitivity(CPModel(a, b, c))}]

    i, j, k = tensor.shape
    fixed_dims = {"A": (j, k), "B": (i, k), "C": (i, j)}

    def update(mttkrp, g1, g2, name):
        """Bounded update of factor `name` from its MTTKRP; g1, g2 are the
        Grams of the two fixed factors."""
        dim1, dim2 = fixed_dims[name]
        try:
            return _factor_update(mttkrp, g1 * g2,
                                  dim2 * np.diag(g1) + dim1 * np.diag(g2),
                                  norm_t2, delta)
        except InfeasibleBoundError as e:
            raise InfeasibleBoundError(
                f"the least-squares update of factor {name} cannot meet the bound",
                min_residual=e.min_residual, bound=e.bound, factor=name,
            ) from e

    def sweep(b, c):
        """A -> B -> C from the fixed factors B and C: the balanced model,
        its sensitivity and the Gram-form squared error with its roundoff
        allowance."""
        a, b, c, e2, slack = cp_sweep(tensor, norm_t2, b, c, update)
        # single-factor updates cannot move magnitude between factors;
        # rebalancing is free (reconstruction unchanged, ss non-increasing)
        balanced = balance_components(CPModel(a, b, c))
        return balanced, sensitivity(balanced), e2, slack

    prev_ss = trace[0]["ss"]
    b_old, c_old = b, c  # fixed factors of the accepted point before this one
    points = 1  # points accepted since the last restart, that one included
    rejected = 0
    for _ in range(_MAX_SWEEPS):
        beta = (points - 1) / (points + 2)
        if beta > 0:
            try:
                balanced, ss, e2, slack = sweep(b + beta * (b - b_old),
                                                c + beta * (c - c_old))
            except InfeasibleBoundError:
                ss = np.inf
            if not ss < prev_ss:
                # restart: the next sweep is a plain one from the accepted point
                rejected += 1
                points = 1
                continue
        else:
            balanced, ss, e2, slack = sweep(b, c)
            if ss > prev_ss:
                # an error-preserving start at an ALS optimum leaves no room
                # in the bound: keep the accepted point
                break
        b_old, c_old = b, c
        a, b, c = balanced.A, balanced.B, balanced.C
        err, margin = _gram_error(e2, slack)
        if margin > _ERROR_RTOL * err:
            err = rel_error(tensor, balanced) * norm_t
        trace.append({"error": float(err), "ss": float(ss),
                      "extrapolated": beta > 0, "rejected": rejected})
        rejected = 0
        points += 1
        if prev_ss <= 0 or abs(prev_ss - ss) <= _SS_TOL * max(prev_ss, 1e-300):
            break
        prev_ss = ss

    return CPModel(a, b, c), trace
