"""CP decomposition by ALS plus degeneracy diagnostics.

A rank-R CP model of an order-3 tensor is held as three factor matrices
(A, B, C); each component's magnitude lives in its three columns.
Degeneracy of a model is measured by two scalars:

* intensity: the sum of squared Frobenius norms of the rank-1 components;
* sensitivity: the expected squared reconstruction perturbation per unit
  variance of i.i.d. Gaussian noise added to every factor entry.

``monte_carlo_sensitivity`` estimates the defining expectation by sampling
and is the ground-truth oracle for the closed-form ``sensitivity``.
"""

from dataclasses import dataclass, field

import numpy as np  # numpy only: importing scipy.linalg adds ~0.4 s to CLI start-up

from .tensorops import _column_signs, _finite_norm, cp_sweep, reconstruct_cp
from .tucker2 import _leading_right_vecs, _projected_slices
# not used here: the benchmark's span tracer (benchmarks/tracing.py) wraps this name
from .tensorops import khatri_rao  # noqa: F401

__all__ = [
    "CPModel",
    "AlsResult",
    "cpd_als",
    "balance_components",
    "sign_components",
    "rel_error",
    "intensity",
    "sensitivity",
    "monte_carlo_sensitivity",
]


@dataclass
class CPModel:
    """Kruskal-format CP model: factors A (I x R), B (J x R), C (K x R)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        self.C = np.asarray(self.C, dtype=np.float64)
        if not (self.A.ndim == self.B.ndim == self.C.ndim == 2):
            raise ValueError("CP factors must be matrices")
        if not (self.A.shape[1] == self.B.shape[1] == self.C.shape[1]):
            raise ValueError(
                "factor column counts differ: "
                f"{self.A.shape[1]}, {self.B.shape[1]}, {self.C.shape[1]}"
            )

    @property
    def rank(self):
        return self.A.shape[1]

    @property
    def shape(self):
        return (self.A.shape[0], self.B.shape[0], self.C.shape[0])

    def to_tensor(self):
        return reconstruct_cp(self.A, self.B, self.C)


@dataclass
class AlsResult:
    """Outcome of :func:`cpd_als`: the restart it returned.

    ``rel_errors`` is the per-sweep relative error trace of the returned
    restart (non-increasing up to roundoff; empty for a zero tensor, where
    no sweep runs), and ``stop`` says why that restart ended: ``"bound"``
    (its error reached the bound), ``"tol"`` (a sweep changed the error by
    less than ``_TOL``) or ``"cap"`` (``_MAX_SWEEPS`` sweeps ran).
    """

    model: CPModel
    rel_error: float
    rel_errors: list = field(repr=False)
    stop: str = "cap"

    @property
    def n_iters(self):
        """The sweeps the returned restart ran, one per trace entry."""
        return len(self.rel_errors)

    @property
    def converged(self):
        """True unless the returned restart ran to the sweep cap."""
        return self.stop != "cap"


_MAX_SWEEPS = 1000  # sweep cap of every restart
_TOL = 1e-12  # stop once a sweep changes the relative error by less than this
_RESTARTS = 3  # restart 0 is SVD-seeded, the others random

# Largest tr(g) tr(g^-1) (an upper bound on cond(g)) for which _solve_psd
# uses the inverse; beyond it the eigh pseudo-inverse decides the null space.
_COND_MAX = 1e10
# Eigenvalues of a PSD Gram below this fraction of the largest are null, in
# the pseudo-inverse here and in EPC's secular solve.
_NULL_RTOL = 1e-12
# Entries of rel_error's residual buffer (256 KB): a slice is summed in
# blocks of rows that fit it
_RESIDUAL_BLOCK = 32768


def _pinv_psd(g):
    """Pseudo-inverse of a symmetric PSD matrix via eigendecomposition."""
    w, v = np.linalg.eigh((g + g.T) / 2)
    cutoff = _NULL_RTOL * max(w[-1], 0.0)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (v * inv) @ v.T


def _solve_psd(m, g):
    """``m @ g^-1`` for a symmetric PSD ``g``: the ALS normal-equation solve.

    The product uses ``inv(g)`` in one GEMM when ``tr(g) tr(g^-1)``, an upper
    bound on ``cond(g)``, lies in ``(0, _COND_MAX]``.  If the inverse fails
    or the trace product lies outside that range, the result is
    ``m @ _pinv_psd(g)``, so singular and near-singular systems (dead or
    duplicated components, rank above an extent) keep the eigh solve.

    No separate definiteness test is made.  A Hadamard product of Grams is
    PSD, so a negative computed eigenvalue is roundoff, of order
    ``R eps ||g||``; its term in ``tr(g^-1)`` makes the trace product
    negative, or far above ``_COND_MAX``, unless it nearly cancels the term
    of a positive eigenvalue as small.
    """
    try:
        inv = np.linalg.inv(g)  # LU can meet an exact zero pivot
    except np.linalg.LinAlgError:
        return m @ _pinv_psd(g)
    # traces as Python floats (an overflow gives inf or nan, never a warning);
    # a garbage inverse of a numerically singular g can have a negative trace
    if not 0 < sum(g.diagonal().tolist()) * sum(inv.diagonal().tolist()) <= _COND_MAX:
        return m @ _pinv_psd(g)
    return m @ inv


def _init_factors(tensor, rank, svd, rng):
    """A restart's starting ``(B, C)``; the first sweep computes A from them.
    With `svd`, each is the leading left singular vectors of its unfolding,
    the Tucker-2 step of that mode, padded with random columns where the
    rank exceeds them; without, all of its columns are random."""
    factors = []
    for mode in (1, 2):
        stack = _projected_slices(tensor, None, 3 - mode)  # a view; P'P is its Gram
        n = stack.shape[2]
        u = np.empty((n, 0))
        if svd:
            u = _leading_right_vecs(stack, 0.0, min(rank, n, stack.size // n))[0]
        factors.append(np.hstack([u, rng.standard_normal((n, rank - u.shape[1]))]))
    return factors


def cpd_als(tensor, rank, seed=0, delta=None):
    """Rank-`rank` CP decomposition of an order-3 tensor by ALS.

    Each sweep is :func:`~convfactor.tensorops.cp_sweep`, the sweep EPC
    runs too, with the exact least-squares update for A, B, C in turn,
    ``A <- M_A pinv(B'B * C'C)`` and cyclic analogues, where ``M_A`` is
    the MTTKRP of mode 0 (``T_(0)`` times the Khatri-Rao product of C and
    B) and ``*`` the Hadamard product, so the relative error is
    non-increasing per sweep.  For an I x J x K tensor a sweep costs
    ``O(I J K R)`` in GEMMs plus ``O((I+J+K) R^2 + R^3)`` for the Grams
    and the three normal-equation solves, and builds no tensor-sized
    array.  Each solve is one ``inv`` and one GEMM (:func:`_solve_psd`);
    it falls back to the ``eigh`` pseudo-inverse when the inverse fails or
    ``tr(G) tr(G^-1)`` is not in ``(0, _COND_MAX]``, ``_COND_MAX = 1e10``.

    Every fit has the settings of the module constants: up to
    ``_RESTARTS = 3`` restarts of at most ``_MAX_SWEEPS = 1000`` sweeps,
    each stopping once a sweep changes the error by less than
    ``_TOL = 1e-12``.  A restart starts from B and C alone, and its first
    sweep computes A from them.  Restart 0 takes the leading left singular
    vectors of the two channel unfoldings, by the Tucker-2 step of
    :mod:`~convfactor.tucker2` (padded with random columns where the rank
    exceeds them); restart ``n`` draws its random values from
    ``np.random.default_rng((seed, n))``.  Two rules end the fit early,
    once more sweeps cannot improve what the caller gets:

    * `delta`, an absolute Frobenius error bound (the one
      :func:`~convfactor.epc.epc_correct` then enforces), ends a restart at
      its first sweep whose dense error ``||T - [[A, B, C]]||`` is at most
      `delta`, and that restart is returned.  None (the default) sets no
      bound.
    * The random restarts run only when restart 0 cannot be trusted:
      restart 0 is returned alone when it stopped on ``_TOL`` with a
      trace that never rose by more than ``_TOL``.

    The per-sweep error comes from the Gram form of
    :func:`~convfactor.tensorops.cp_residual_sq`.  Once a sweep's change
    is within ``_TOL`` plus that form's roundoff margin, or the error is
    within that margin of the bound, the restart switches to the dense
    error :func:`rel_error` (re-evaluating the previous sweep too), one
    more ``O(I J K R)`` in slice-sized GEMMs, so convergence and the bound
    are only ever decided on dense errors.  Each restart's model is
    balanced (:func:`balance_components`, the minimum-sensitivity scaling
    of the same reconstruction) with components sorted by descending
    magnitude ``||a_r|| ||b_r|| ||c_r||``; its final error, the last entry
    of its trace, is :func:`rel_error` of that model.  Among restarts that
    all ran, the lowest final error wins, ties broken by lower sensitivity.

    Returns
    -------
    AlsResult
        ``stop`` says why the returned restart ended: ``"bound"``,
        ``"tol"`` or ``"cap"``.
    """
    tensor, norm_t = _finite_norm(tensor)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if delta is not None and not delta >= 0:  # rejects NaN
        raise ValueError("delta must be >= 0")

    if norm_t == 0.0:
        # Zero-tensor convention: rel_error 0, zero model, no sweep.
        zero = CPModel(*(np.zeros((n, rank)) for n in tensor.shape))
        return AlsResult(zero, 0.0, [], stop="tol")

    norm_t2 = norm_t**2
    bound = -np.inf if delta is None else delta / norm_t

    best = None
    for restart in range(_RESTARTS):
        rng = np.random.default_rng((seed, restart))
        b, c = _init_factors(tensor, rank, restart == 0, rng)
        errors = []
        prev_err = np.inf
        dense = False
        stop = "cap"
        for _ in range(_MAX_SWEEPS):
            a, b, c, e2, slack = cp_sweep(tensor, norm_t2, b, c,
                                          lambda m, g1, g2, _: _solve_psd(m, g1 * g2))
            if not dense:
                err, margin = (x / norm_t for x in _gram_error(e2, slack))
                # switch for good where the Gram form cannot resolve this step
                dense = (e2 <= slack or abs(prev_err - err) <= _TOL + margin
                         or err - margin <= bound)
                if dense and errors:
                    prev_err = errors[-1] = rel_error(tensor, CPModel(*prev))
            if dense:
                err = rel_error(tensor, CPModel(a, b, c))
            errors.append(err)
            if err <= bound:
                stop = "bound"
                break
            if abs(prev_err - err) < _TOL:
                stop = "tol"
                break
            prev, prev_err = (a, b, c), err

        magnitude = np.prod([np.linalg.norm(f, axis=0) for f in (a, b, c)], axis=0)
        order = np.argsort(-magnitude, kind="stable")
        model = balance_components(CPModel(a[:, order], b[:, order], c[:, order]))
        final = errors[-1] = rel_error(tensor, model)
        result = AlsResult(model, final, errors, stop=stop)
        if stop == "bound" or (
            restart == 0
            and stop == "tol"
            and all(e1 <= e0 + _TOL for e0, e1 in zip(errors, errors[1:]))
        ):
            # a restart inside the bound ends the fit, and a clean restart 0
            # is trusted without the random restarts
            return result
        if (
            best is None
            or final < best.rel_error - _TOL
            or (
                abs(final - best.rel_error) <= _TOL
                and sensitivity(model) < sensitivity(best.model)
            )
        ):
            best = result

    return best


def balance_components(model):
    """Distribute each component's magnitude across the three factors so the
    component's sensitivity contribution is minimal.

    For fixed rank-1 directions and magnitude p, the contribution
    ``K x^2 y^2 + I y^2 z^2 + J x^2 z^2`` with ``xyz = p`` is minimized at
    ``x^2 = cbrt(p^2 I^2 / (J K))`` and cyclic analogues.  Reconstruction
    is unchanged.
    """
    i, j, k = model.shape
    a, b, c = model.A.copy(), model.B.copy(), model.C.copy()
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    nc = np.linalg.norm(c, axis=0)
    p = na * nb * nc
    nz = p > 0
    # target squared norms per factor
    ta = np.cbrt(p**2 * i**2 / (j * k))
    tb = np.cbrt(p**2 * j**2 / (i * k))
    tc = np.cbrt(p**2 * k**2 / (i * j))
    a[:, nz] *= np.sqrt(ta[nz]) / na[nz]
    b[:, nz] *= np.sqrt(tb[nz]) / nb[nz]
    c[:, nz] *= np.sqrt(tc[nz]) / nc[nz]
    return CPModel(a, b, c)


def sign_components(model):
    """`model` with each component's signs fixed: in B and C each column's
    largest-magnitude entry is positive, and A takes the flips, so the
    reconstruction, the balance and the sensitivity are unchanged.

    ALS inherits its components' signs from its start.  Restart 0's seed
    has them fixed by ``_column_signs``, the Tucker-2 step's rule, so they
    do not depend on the signs LAPACK picks; this rule puts the fitted
    model, from any restart, in the same form.
    """
    sb, sc = _column_signs(model.B), _column_signs(model.C)
    return CPModel(model.A * (sb * sc), model.B * sb, model.C * sc)


def _gram_error(e2, slack):
    """``(err, margin)`` from :func:`~convfactor.tensorops.cp_residual_sq`'s
    ``(e2, slack)``: the true error lies within `margin` of `err`."""
    lo, hi = (np.sqrt(max(x, 0.0)) for x in (e2 - slack, e2 + slack))
    return np.sqrt(max(e2, 0.0)), hi - lo


def rel_error(slices, model):
    """``||T - [[A, B, C]]|| / ||T||``, one first-mode slice at a time.

    `slices` yields ``T[0], T[1], ...`` (an order-3 array will do).  Each
    slice's residual ``(B a_d) C' - T[d]`` is built in blocks of rows in one
    reused buffer of at most ``_RESIDUAL_BLOCK`` entries, so neither a dense
    model nor a slice-sized difference is built.  A zero T has error 0;
    ValueError when ``||T||`` is not finite (nan, inf or overflow).
    """
    ct = model.C.T
    s, t = model.B.shape[0], ct.shape[1]
    rows = max(_RESIDUAL_BLOCK // max(t, 1), 1)
    buf = np.empty((min(rows, s), t))
    err2 = norm2 = 0.0
    for t_d, a_d in zip(slices, model.A, strict=True):
        b_d = model.B * a_d
        for i in range(0, s, rows):
            diff = np.matmul(b_d[i:i + rows], ct, out=buf[:min(rows, s - i)])
            diff -= t_d[i:i + rows]
            err2 += float(np.vdot(diff, diff))
        norm2 += float(np.vdot(t_d, t_d))
    if not np.isfinite(norm2):
        raise ValueError("tensor norm is not finite (nan, inf or overflow)")
    return float(np.sqrt(err2 / norm2)) if norm2 else 0.0


def intensity(model):
    """Sum of squared Frobenius norms of the rank-1 components."""
    a, b, c = model.A, model.B, model.C
    return float(
        np.sum(
            np.sum(a**2, axis=0) * np.sum(b**2, axis=0) * np.sum(c**2, axis=0)
        )
    )


def sensitivity(model):
    """Closed-form sensitivity of a CP model.

    With mode extents (I, J, K)::

        ss = K tr{(A'A) * (B'B)} + I tr{(B'B) * (C'C)} + J tr{(A'A) * (C'C)}

    where ``*`` is the Hadamard product.  Equals the Gaussian-perturbation
    expectation estimated by :func:`monte_carlo_sensitivity`.
    """
    a, b, c = model.A, model.B, model.C
    i, j, k = model.shape
    sa = np.sum(a**2, axis=0)
    sb = np.sum(b**2, axis=0)
    sc = np.sum(c**2, axis=0)
    return float(k * np.dot(sa, sb) + i * np.dot(sb, sc) + j * np.dot(sa, sc))


def monte_carlo_sensitivity(model, sigma=1e-4, n_samples=2000, seed=0):
    """Sampling estimate of the sensitivity definition.

    Draws i.i.d. N(0, sigma^2) perturbations of every factor entry and
    averages ``||T - [[A+dA, B+dB, C+dC]]||_F^2 / sigma^2`` over
    `n_samples` draws.  The estimate converges to :func:`sensitivity` as
    sigma -> 0 (the sigma^2 normalization is pinned so the closed form and
    the estimate agree).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    a, b, c = model.A, model.B, model.C
    base = reconstruct_cp(a, b, c)
    rng = np.random.default_rng(seed)
    acc = 0.0
    for _ in range(n_samples):
        da = rng.normal(0.0, sigma, a.shape)
        db = rng.normal(0.0, sigma, b.shape)
        dc = rng.normal(0.0, sigma, c.shape)
        diff = base - reconstruct_cp(a + da, b + db, c + dc)
        acc += float(np.sum(diff**2))
    return acc / (n_samples * sigma**2)
