"""CP decomposition by ALS plus degeneracy diagnostics.

A rank-R CP model of an order-3 tensor is held as three factor matrices
(A, B, C) with an optional nonnegative weight vector ``lam`` used when the
columns are normalized to unit length.  Degeneracy of a model is measured
by two scalars:

* intensity: the sum of squared Frobenius norms of the rank-1 components;
* sensitivity: the expected squared reconstruction perturbation per unit
  variance of i.i.d. Gaussian noise added to every factor entry.

``monte_carlo_sensitivity`` estimates the defining expectation by sampling
and is the ground-truth oracle for the closed-form ``sensitivity``.
"""

from dataclasses import dataclass, field

import numpy as np  # numpy only: importing scipy.linalg adds ~0.4 s to CLI start-up

from .tensorops import Mttkrp, cp_residual_sq, khatri_rao, reconstruct_cp

__all__ = [
    "CPModel",
    "AlsOptions",
    "AlsResult",
    "cpd_als",
    "normalize",
    "balance_components",
    "intensity",
    "sensitivity",
    "monte_carlo_sensitivity",
]


@dataclass
class CPModel:
    """Kruskal-format CP model: factors A (I x R), B (J x R), C (K x R).

    ``lam`` holds per-component magnitudes when the factor columns are
    unit-normalized; ``lam=None`` means magnitudes live in the factors.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    lam: np.ndarray | None = None

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
        if self.lam is not None:
            self.lam = np.asarray(self.lam, dtype=np.float64)
            if self.lam.shape != (self.rank,):
                raise ValueError("lam must have one weight per component")
            for f in (self.A, self.B, self.C):
                norms = np.linalg.norm(f, axis=0)
                if np.any(np.abs(norms - 1.0) > 1e-8):
                    raise ValueError(
                        "factor columns must be unit-norm when lam is present"
                    )

    @property
    def rank(self):
        return self.A.shape[1]

    @property
    def shape(self):
        return (self.A.shape[0], self.B.shape[0], self.C.shape[0])

    def factors_folded(self):
        """Return (A, B, C) with ``lam`` folded into A."""
        if self.lam is None:
            return self.A, self.B, self.C
        return self.A * self.lam, self.B, self.C

    def to_tensor(self):
        return reconstruct_cp(self.A, self.B, self.C, weights=self.lam)


@dataclass
class AlsOptions:
    """Knobs for :func:`cpd_als`.

    init: "random" (seeded Gaussian), "svd" (leading singular vectors of
    each unfolding), or "mixed" (svd for the first restart, random for the
    rest; avoids the slow-convergence swamps of over-parameterized fits
    without losing restart diversity).
    """

    max_iters: int = 1000
    tol: float = 1e-8
    init: str = "random"
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.init not in ("random", "svd", "mixed"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class AlsResult:
    """Best-restart outcome of :func:`cpd_als`.

    ``rel_errors`` is the per-sweep relative error trace of the winning
    restart (non-increasing up to roundoff).
    """

    model: CPModel
    rel_error: float
    rel_errors: list = field(repr=False)
    n_iters: int = 0
    converged: bool = False

    def __iter__(self):
        # allow ``model, rel_error = cpd_als(...)``
        return iter((self.model, self.rel_error))


# Largest tr(g) tr(g^-1) (an upper bound on cond(g)) for which _solve_psd
# uses the inverse; beyond it the eigh pseudo-inverse decides the null space.
_COND_MAX = 1e10


def _pinv_psd(g, rcond=1e-12):
    """Pseudo-inverse of a symmetric PSD matrix via eigendecomposition."""
    w, v = np.linalg.eigh((g + g.T) / 2)
    cutoff = rcond * max(w[-1], 0.0)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (v * inv) @ v.T


def _solve_psd(m, g):
    """``m @ g^-1`` for a symmetric PSD ``g``: the ALS normal-equation solve.

    A Cholesky factorization certifies that ``g`` is positive definite;
    the product then uses ``inv(g)`` in one GEMM.  If either factorization
    fails or ``tr(g) tr(g^-1)`` exceeds ``_COND_MAX``, the result is
    ``m @ _pinv_psd(g)``, so singular and near-singular systems (dead or
    duplicated components, rank above an extent) keep the eigh solve.
    """
    try:
        np.linalg.cholesky(g)
        inv = np.linalg.inv(g)  # LU can still meet an exact zero pivot
    except np.linalg.LinAlgError:
        return m @ _pinv_psd(g)
    # traces as Python floats: an overflow gives inf or nan, never a warning
    if not sum(g.diagonal().tolist()) * sum(inv.diagonal().tolist()) <= _COND_MAX:
        return m @ _pinv_psd(g)
    return m @ inv


def _init_factors(shape, rank, init, rng, mt):
    if init == "random":
        return [rng.standard_normal((n, rank)) for n in shape]
    i, j, k = shape
    t_i = mt.t_k.reshape(i, j * k)
    grams = (t_i @ t_i.T, mt.t_j.T @ mt.t_j, mt.t_k.T @ mt.t_k)
    factors = []
    for n, other, gram in zip(shape, (j * k, i * k, i * j), grams):
        # leading left singular vectors of the unfolding, as the eigenvectors
        # of its Gram: no unfolding copy and no SVD workspace
        u = np.linalg.eigh(gram)[1][:, ::-1][:, : min(n, other)]
        if u.shape[1] >= rank:
            factors.append(np.ascontiguousarray(u[:, :rank]))
        else:
            # more components than singular vectors: pad with random columns
            pad = rng.standard_normal((n, rank - u.shape[1]))
            factors.append(np.hstack([u, pad]))
    return factors


def cpd_als(tensor, rank, opts=None):
    """Rank-`rank` CP decomposition of an order-3 tensor by ALS.

    Each sweep solves the exact least-squares update for A, B, C in turn,
    ``A <- M_A pinv(B'B * C'C)`` and cyclic analogues, where ``M_A`` is
    the MTTKRP ``unfold(T, 0) @ khatri_rao(C, B)`` and ``*`` the Hadamard
    product, so the relative error is non-increasing per sweep.  For an
    I x J x K tensor a sweep costs two ``O(I J K R)`` GEMMs (see
    :class:`~convfactor.tensorops.Mttkrp`; the contraction with C is
    shared by the A and B updates) plus ``O((I+J+K) R^2 + R^3)`` for the
    Grams and the three normal-equation solves.  Each solve is a
    Cholesky-certified inverse (:func:`_solve_psd`: one ``cholesky``, one
    ``inv``, one GEMM); it falls back to the ``eigh`` pseudo-inverse when
    the Cholesky or the inverse fails or ``tr(G) tr(G^-1)`` exceeds
    ``_COND_MAX = 1e10``.  No ``(J*K) x R`` or ``(I*K) x R`` Khatri-Rao
    matrix is built.

    The per-sweep error comes from the Gram form of
    :func:`~convfactor.tensorops.cp_residual_sq`.  Once a sweep's change
    is within ``opts.tol`` plus that form's roundoff margin, the restart
    switches to the dense residual ``||T - [[A, B, C]]||`` (re-evaluating
    the previous sweep too), so convergence is only ever decided on dense
    errors; the final error of every restart is dense as well.  A dense
    evaluation costs one more ``O(I J K R)`` GEMM and builds only the
    ``(I*J) x R`` Khatri-Rao product of A and B.  The best
    of ``opts.restarts`` runs is returned in normalized form (unit
    columns, weights sorted descending); ties in final error are broken by
    lower sensitivity.

    Returns
    -------
    AlsResult
        Unpacks as ``(model, rel_error)``.
    """
    if opts is None:
        opts = AlsOptions()
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got order {tensor.ndim}")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not np.all(np.isfinite(tensor)):
        raise ValueError("tensor contains non-finite values")

    norm_t = np.linalg.norm(tensor)
    shape = tensor.shape
    if norm_t == 0.0:
        # Zero-tensor convention: rel_error 0, zero model.
        zero = normalize(
            CPModel(
                np.zeros((shape[0], rank)),
                np.zeros((shape[1], rank)),
                np.zeros((shape[2], rank)),
            )
        )
        return AlsResult(zero, 0.0, [0.0], n_iters=0, converged=True)

    mt = Mttkrp(tensor)
    norm_t2 = norm_t**2

    def dense_error(a, b, c):
        return float(np.linalg.norm(mt.t_k - khatri_rao(a, b) @ c.T)) / norm_t

    best = None
    for restart in range(opts.restarts):
        rng = np.random.default_rng((opts.seed, restart))
        init = opts.init
        if init == "mixed":
            init = "svd" if restart == 0 else "random"
        a, b, c = _init_factors(shape, rank, init, rng, mt)
        gb, gc = b.T @ b, c.T @ c
        errors = []
        prev_err = np.inf
        dense = False
        n_iters = 0
        converged = False
        for sweep in range(opts.max_iters):
            prev = (a, b, c)
            w = mt.partial_c(c)
            a = _solve_psd(mt.mode0(w, b), gb * gc)
            ga = a.T @ a
            b = _solve_psd(mt.mode1(w, a), ga * gc)
            gb = b.T @ b
            m_c = mt.mode2(a, b)
            c = _solve_psd(m_c, ga * gb)
            gc = c.T @ c
            if dense:
                err = dense_error(a, b, c)
            else:
                e2, slack = cp_residual_sq(norm_t2, m_c, c, (ga, gb, gc))
                err = np.sqrt(max(e2, 0.0)) / norm_t
                margin = (
                    np.sqrt(max(e2 + slack, 0.0)) - np.sqrt(max(e2 - slack, 0.0))
                ) / norm_t
                if e2 <= slack or abs(prev_err - err) <= opts.tol + margin:
                    # the Gram form cannot resolve this step
                    dense = True
                    err = dense_error(a, b, c)
                    if errors:
                        prev_err = errors[-1] = dense_error(*prev)
            errors.append(err)
            n_iters = sweep + 1
            if abs(prev_err - err) < opts.tol:
                converged = True
                break
            prev_err = err
        if not dense:
            errors[-1] = dense_error(a, b, c)

        model = normalize(CPModel(a, b, c))
        final = errors[-1]
        if (
            best is None
            or final < best.rel_error - 1e-12
            or (
                abs(final - best.rel_error) <= 1e-12
                and sensitivity(model) < sensitivity(best.model)
            )
        ):
            best = AlsResult(model, final, errors, n_iters=n_iters, converged=converged)

    return best


def normalize(model):
    """Rescale factor columns to unit norm, collecting magnitudes in ``lam``.

    Components are sorted by descending weight.  An exactly zero column
    gets weight 0 and is replaced by the first standard basis vector, so
    the unit-norm invariant holds for every component.  Reconstruction is
    unchanged.
    """
    factors = []
    lam = np.ones(model.rank)
    if model.lam is not None:
        lam = lam * model.lam
    for f in (model.A, model.B, model.C):
        norms = np.linalg.norm(f, axis=0)
        unit = np.array(f, dtype=np.float64)
        zero = norms == 0.0
        nz = ~zero
        unit[:, nz] = unit[:, nz] / norms[nz]
        if np.any(zero):
            unit[:, zero] = 0.0
            unit[0, zero] = 1.0
        lam = lam * norms
        factors.append(unit)
    order = np.argsort(-lam, kind="stable")
    return CPModel(
        factors[0][:, order], factors[1][:, order], factors[2][:, order], lam[order]
    )


def balance_components(model):
    """Distribute each component's magnitude across the three factors so the
    component's sensitivity contribution is minimal.

    For fixed rank-1 directions and magnitude p, the contribution
    ``K x^2 y^2 + I y^2 z^2 + J x^2 z^2`` with ``xyz = p`` is minimized at
    ``x^2 = cbrt(p^2 I^2 / (J K))`` and cyclic analogues.  Reconstruction
    is unchanged; weights are absorbed into the factors (``lam=None``).
    """
    i, j, k = model.shape
    a, b, c = (np.array(f, dtype=np.float64) for f in model.factors_folded())
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


def intensity(model):
    """Sum of squared Frobenius norms of the rank-1 components."""
    a, b, c = model.factors_folded()
    return float(
        np.sum(
            np.sum(a**2, axis=0) * np.sum(b**2, axis=0) * np.sum(c**2, axis=0)
        )
    )


def sensitivity(model):
    """Closed-form sensitivity of a CP model.

    With mode extents (I, J, K) and weights folded into A::

        ss = K tr{(A'A) * (B'B)} + I tr{(B'B) * (C'C)} + J tr{(A'A) * (C'C)}

    where ``*`` is the Hadamard product.  Equals the Gaussian-perturbation
    expectation estimated by :func:`monte_carlo_sensitivity`.
    """
    a, b, c = model.factors_folded()
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
    the estimate agree; see the package notes on the weight convention).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    a, b, c = model.factors_folded()
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
