"""Bound-constrained Tucker-2 decomposition.

Model: ``t ~= G x_1 U x_2 V`` on the last two modes of an order-3 tensor
(the first mode is untouched), with orthonormal U (S x R1) and V (T x R2)
and core ``G = t x_1 U' x_2 V'``.  Rather than fixing ranks up front, the
solver picks them greedily to meet a Frobenius error bound, alternating
eigendecompositions of the two projected Gram matrices ``P' P``, ``P`` the
stacked slices ``V' K(d)'`` or ``U' K(d)``; each keeps as few eigenvectors
as the whole bound allows, so the ranks need not give the smallest model.
The tensor is read only through its slices ``K(d)``, and each step works at
the size of the stack's thin side.  A tall ``P`` sums its n x n Gram over
them in place (``sum_d K(d) K(d)'`` when V = I, with no copy); with a free
cut, a block subspace iteration finds the kept eigenvectors and certifies
that its cut is the one the full spectrum gives, and only an uncertified
result takes a full ``eigh``.  A wide one takes ``eigh`` of the small m x m
``P P'`` and one QR of ``P' u``.  The core is the last V-step's stack
``U' K(d)`` times V (Kolda & Bader, SIAM Rev. 2009, sec. 4.2), the product
:func:`core_closed_form` computes, so no pass over the tensor makes it.
The same step, at a fixed rank with V = I or U = I, seeds CP-ALS: restart 0
of :func:`~convfactor.cpd.cpd_als` starts B and C from it.
numpy does all of it: importing ``scipy.linalg`` would double the peak
memory of a ``convfactor`` process.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleBoundError
from .tensorops import _column_signs, _finite_norm

__all__ = [
    "Tucker2Model",
    "tucker2_bounded",
    "build_q1",
    "build_q2",
    "minimal_rank_eigvecs",
    "core_closed_form",
]

_ORTHO_TOL = 1e-6
_TIE_TOL = 1e-12  # relative gap under which eigenvalues tie with the cut
_ALTERNATIONS = 2  # U-step/V-step pairs of the bounded solver
_BLOCK = 32  # columns of the block iteration of a tall step's Gram
_BLOCK_ITERS = 4  # block iterations before the full eigh takes over
_CUT_ITERS = 2  # iterations within which the block must certify the cut
_RESIDUAL_TOL = 1e-10  # Ritz residual a block result may keep, over its gap
_CUT_SLACK = 1e-12  # a free cut's slack below its energy bound, over the trace


@dataclass
class Tucker2Model:
    """Tucker-2 model with core G (D2 x R1 x R2) and orthonormal U, V.

    ``history`` records one dict per eigendecomposition step of the
    bounded solver: kept ranks, kept energy, and squared error.
    """

    G: np.ndarray
    U: np.ndarray
    V: np.ndarray
    history: list = field(default_factory=list, repr=False, compare=False)

    @property
    def ranks(self):
        return (self.U.shape[1], self.V.shape[1])

    @property
    def shape(self):
        return (self.G.shape[0], self.U.shape[0], self.V.shape[0])

    def param_count(self):
        """Model size R1*S + R2*T + R1*R2*D2."""
        r1, r2 = self.ranks
        d2, s, t = self.shape
        return r1 * s + r2 * t + r1 * r2 * d2

    def to_tensor(self):
        return self.U @ self.G @ self.V.T


def _check_orthonormal(m, name):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if m.shape[1] == 0:
        return m
    gap = np.max(np.abs(m.T @ m - np.eye(m.shape[1])))
    if gap > _ORTHO_TOL:
        raise ValueError(f"{name} is not orthonormal (deviation {gap:.3g})")
    return m


def _projected_slices(tensor, basis, mode):
    """The slices ``P_d`` of the other mode (2 or 1) after projecting `mode`
    on `basis`, one batched GEMM: ``V' K(d)'`` (R2 x S) for mode 2,
    ``U' K(d)`` (R1 x T) for mode 1.  With ``basis=None`` nothing is
    projected and the stack is a view of `tensor`: for mode 2 the
    transposed slices ``K(d)'``."""
    if mode == 2:
        tensor = np.swapaxes(tensor, 1, 2)
    return tensor if basis is None else np.matmul(basis.T, tensor)


def _gram(stack):
    """``P' P`` for ``P`` the slices of `stack` stacked by rows, summed slice
    by slice in place into the first slice's product."""
    q = stack[0].T @ stack[0]
    for p in stack[1:]:
        q += p.T @ p
    return q


def _projected_gram(tensor, basis, mode):
    """Gram matrix ``sum_d P_d' P_d`` of :func:`_projected_slices`,
    symmetrized as (Q + Q') / 2."""
    tensor = np.asarray(tensor, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    if tensor.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got order {tensor.ndim}")
    if basis.ndim != 2 or basis.shape[0] != tensor.shape[mode]:
        raise ValueError(
            f"{'UV'[mode - 1]} shape {basis.shape} does not match mode-{mode} "
            f"extent {tensor.shape[mode]}"
        )
    q = _gram(_projected_slices(tensor, basis, mode))
    return (q + q.T) / 2


def build_q1(tensor, v):
    """S x S Gram matrix of the mode-1 slices after projecting mode 2 on V.

    ``Q1[i, j] = sum_r <K(:, i, :) v_r, K(:, j, :) v_r>``; with a full
    orthonormal V, ``tr(Q1) = ||t||_F^2``.  It is :func:`build_q2` with
    the last two modes swapped."""
    return _projected_gram(tensor, v, 2)


def build_q2(tensor, u):
    """T x T Gram matrix of the mode-2 slices after projecting mode 1 on U:
    ``P' P`` with ``P`` the ``(D2 R1) x T`` stack of the slices ``U' K(d)``."""
    return _projected_gram(tensor, u, 1)


def _eigh_desc(q):
    w, vecs = np.linalg.eigh((q + q.T) / 2)
    return w[::-1], vecs[:, ::-1]


def _cut(w, energy_bound, rank=None):
    """How many of the descending eigenvalues `w` to keep, and their sum
    (clipped at 0): `rank`, or the fewest whose sum reaches `energy_bound`
    plus any tied with the last one kept."""
    w = np.maximum(w, 0.0)
    if rank is None:
        total = float(np.sum(w))
        target = energy_bound - _CUT_SLACK * total
        if target > total * (1 + 1e-10):
            raise InfeasibleBoundError(
                f"energy bound {energy_bound:.6g} exceeds tr(Q) = {total:.6g}",
                min_residual=total,
                bound=float(energy_bound),
            )
        rank = 0
        if energy_bound > 0:
            rank = min(int(np.searchsorted(np.cumsum(w), target) + 1), len(w))
            lam_cut = w[rank - 1]
            while rank < len(w) and w[rank] >= lam_cut * (1 - _TIE_TOL) and w[rank] > 0:
                rank += 1
    return rank, float(np.sum(w[:rank]))


def _leading_eigvecs(q, energy_bound, rank=None):
    """Leading eigenvectors of the symmetric `q`, kept by :func:`_cut`, and
    the sum of their eigenvalues."""
    w, vecs = _eigh_desc(q)
    rank, energy = _cut(w, energy_bound, rank)
    vecs = vecs[:, :rank]
    return vecs * _column_signs(vecs), energy


def _block_eigvecs(q, energy_bound):
    """:func:`_leading_eigvecs` of the symmetric PSD `q` with a free cut, by
    block subspace iteration with Rayleigh-Ritz (Halko, Martinsson & Tropp,
    SIAM Review 2011), or None when the result is not certified.

    The block is ``_BLOCK`` columns, started from the columns of `q` with the
    largest diagonal entries (no random start), then ``X <- qr(q X)``.  With
    Ritz values ``theta`` and ``rest = tr(q) - sum(theta)``, the energy of
    `q` outside ``span(X)``, interlacing and Ky Fan give ``theta_i <=
    lambda_i``, ``sum(lambda[:k]) <= sum(theta[:k]) + rest`` and
    ``lambda_(r+1) <= theta_(r+1) + rest``.  So the Ritz cut r is the cut of
    the full spectrum when ``sum(theta[:r])`` reaches the bound,
    ``sum(theta[:r-1]) + rest`` stays below it, and ``theta_(r+1) + rest``
    is not tied with ``theta_r``.  Each margin must also clear ``8 n b eps
    tr(q)``, above the roundoff of the Ritz values and of a full ``eigh``.
    The kept Ritz vectors are returned once their residual is within
    ``_RESIDUAL_TOL`` of the certified gap ``theta_r - theta_(r+1) - rest``:
    by Davis-Kahan, they then span the leading eigenspace to that accuracy.

    None, for the full ``eigh``, when the cut needs ``_BLOCK`` or more Ritz
    values, is not certified within ``_CUT_ITERS`` iterations, or its
    vectors not within ``_BLOCK_ITERS``.
    """
    n = q.shape[0]
    if energy_bound <= 0:
        return np.zeros((n, 0)), 0.0
    trace = float(np.trace(q))
    target = energy_bound - _CUT_SLACK * trace  # _cut's target
    allow = 8 * n * _BLOCK * np.finfo(np.float64).eps * trace
    start = np.argsort(-q.diagonal(), kind="stable")[:_BLOCK]
    x = np.linalg.qr(q[:, start])[0]
    for it in range(_BLOCK_ITERS):
        qx = q @ x
        theta, y = _eigh_desc(x.T @ qx)
        rank = int(np.searchsorted(np.cumsum(theta) - allow, target) + 1)
        if rank >= _BLOCK:
            return None
        rest = trace - float(np.sum(theta)) + allow
        lower = theta[rank - 1] - allow  # <= lambda_r
        upper = theta[rank] + rest  # >= lambda_(r+1)
        if (float(np.sum(theta[: rank - 1])) + rest + allow < target
                and upper < lower * (1 - _TIE_TOL)):
            vecs = x @ y[:, :rank]
            residual = np.linalg.norm(qx @ y[:, :rank] - vecs * theta[:rank])
            if residual <= _RESIDUAL_TOL * (lower - upper):
                return vecs * _column_signs(vecs), float(np.sum(theta[:rank]))
        elif it >= _CUT_ITERS - 1:
            return None
        x = np.linalg.qr(qx)[0]
    return None


def _leading_right_vecs(stack, energy_bound, rank=None):
    """:func:`_leading_eigvecs` of ``P' P`` for ``P`` the slices of `stack`
    stacked by rows, m x n, at the size of its thin side.

    A tall or square ``P`` sums the n x n Gram over the slices; with a free
    cut and ``n >= 4 _BLOCK`` it tries :func:`_block_eigvecs` before the
    full ``eigh``.  A wide one takes ``eigh`` of the m x m ``P P'``: its
    eigenvalues, padded with n - m zeros, are the Gram's, so the cut sees the
    same n of them.  The kept right vectors are ``P' u / sigma``, taken as
    the QR of ``P' u``: the QR keeps their span and makes them orthonormal
    to roundoff, which ``P' u / sigma`` is only to about ``eps`` times the
    ratio of the first to the last kept eigenvalue.  A cut past m takes the
    complete QR, whose extra columns lie in the null space of ``P``.
    """
    m, n = stack.shape[0] * stack.shape[1], stack.shape[2]
    if m >= n:
        q = _gram(stack)
        if rank is None and n >= 4 * _BLOCK:
            found = _block_eigvecs(q, energy_bound)
            if found is not None:
                return found
        return _leading_eigvecs(q, energy_bound, rank)
    p = stack.reshape(m, n)
    w, u = _eigh_desc(p @ p.T)
    rank, energy = _cut(np.concatenate([w, np.zeros(n - m)]), energy_bound, rank)
    mode = "complete" if rank > m else "reduced"
    vecs = np.linalg.qr(p.T @ u[:, :rank], mode=mode)[0][:, :rank]
    return vecs * _column_signs(vecs), energy


def minimal_rank_eigvecs(q, energy_bound):
    """Fewest principal eigenvectors of a PSD matrix holding an energy bound.

    Returns ``(basis, rank)`` where rank is the smallest R with
    ``sum of top-R eigenvalues >= energy_bound``; R = 0 when the bound is
    <= 0.  Eigenvalues tied with the cut (relative gap below 1e-12) are
    kept as a cluster, so no basis of a tied eigenspace is split.
    """
    basis, _ = _leading_eigvecs(np.asarray(q, dtype=np.float64), energy_bound)
    return basis, basis.shape[1]


def core_closed_form(tensor, u, v):
    """Optimal core for given orthonormal factors: ``G = t x_1 U' x_2 V'``.

    Orthonormality makes the error Pythagorean:
    ``||t - G x U x V||^2 = ||t||^2 - ||G||^2``.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got order {tensor.ndim}")
    u = _check_orthonormal(u, "U")
    v = _check_orthonormal(v, "V")
    return np.matmul(u.T, tensor) @ v


def tucker2_bounded(tensor, delta, ranks=None):
    """Tucker-2 model meeting a Frobenius error bound, ranks chosen greedily.

    Alternates a U-step and a V-step (HOOI), twice, from V = I.  Each step
    takes the leading eigenvectors of the projected Gram
    ``P' P = sum_d P_d' P_d`` (``P_d`` is ``V' K(d)'`` or ``U' K(d)``): the
    fewest whose energy reaches ``||t||^2 - delta^2`` (plus ties with the
    last kept one), so the error stays within `delta` after every step, or
    with ``ranks=(R1, R2)`` exactly R1 or R2 of them.  The first U-step thus
    spends the whole budget, and the ranks need not give the fewest
    parameters that meet it.  No step takes the whole n x n spectrum when it
    can avoid it, while the ranks and energies stay those of a full
    ``eigh`` of the Gram:

    * a step whose ``P`` has fewer rows than columns takes ``eigh`` of the
      m x m ``P P'`` and the right vectors ``P' u``, orthonormalized by one
      QR, complete when the cut passes m;
    * a tall step with a free cut and n of at least ``4 _BLOCK`` runs a few
      block iterations on its Gram, started from the Gram's largest-diagonal
      columns, and keeps their Ritz vectors only under a certificate that
      the cut is exact (see :func:`_block_eigvecs`); otherwise it takes the
      full ``eigh``.

    Each kept column's largest-magnitude entry is positive, so U and V do
    not depend on the signs LAPACK picks.  The core G is the last V-step's
    stack ``U' K(d)`` times V: bitwise :func:`core_closed_form` of U and V,
    without another pass over the tensor.

    Returns a :class:`Tucker2Model`; ``model.history`` holds per-step
    records ``{"step", "ranks", "energy", "sq_error"}``, where energy is
    the sum of the kept eigenvalues.
    """
    tensor, norm_t = _finite_norm(tensor)
    if not delta >= 0:  # rejects NaN
        raise ValueError("delta must be >= 0")
    _, s, t = tensor.shape
    norm2 = float(norm_t) ** 2
    bound = norm2 - delta**2

    fixed = None if ranks is None else {"U": int(ranks[0]), "V": int(ranks[1])}
    if fixed and not (0 < fixed["U"] <= s and 0 < fixed["V"] <= t):
        raise ValueError(f"fixed ranks {ranks} out of range for shape {tensor.shape}")

    history = []

    def step(stack, label, other_rank):
        rank = None if fixed is None else fixed[label]
        basis, energy = _leading_right_vecs(stack, bound, rank)
        rank = basis.shape[1]
        history.append({
            "step": label,
            "ranks": (rank, other_rank) if label == "U" else (other_rank, rank),
            "energy": energy,
            "sq_error": max(norm2 - energy, 0.0),
        })
        return basis

    v = None  # V = I: the first U-step reads the tensor's slices through a view
    for _ in range(_ALTERNATIONS):
        u = step(_projected_slices(tensor, v, 2), "U", t if v is None else v.shape[1])
        projected = _projected_slices(tensor, u, 1)
        v = step(projected, "V", u.shape[1])

    # the last V-step's stack U' K(d) times V: core_closed_form's product
    return Tucker2Model(projected @ v, u, v, history=history)
