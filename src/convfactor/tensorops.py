"""Dense tensor primitives: Khatri-Rao and Kruskal algebra, the CP sweep.

Tensors are plain numpy arrays in C (row-major) memory order.  The mode-n
unfolding ``T_(n)`` has one row per index of mode n and enumerates the other
modes with the first remaining mode fastest: element (i, j, k) of an
I x J x K tensor sits in column ``j + k*J`` of ``T_(0)``.  With this
convention ``T_(0)`` of a Kruskal tensor ``[[A, B, C]]`` equals
``A @ khatri_rao(C, B).T``.
All decomposition work is done in float64; float32 is accepted at the
boundaries and promoted.

The CP solvers, ALS and EPC, both run :func:`cp_sweep` on an I x J x K
tensor (a ``D^2 x S x T`` kernel) and differ only in the factor update they
pass it.  One sweep over the three factors costs O(D^2 S T R) in GEMMs,
``(IJ x K) @ (K x R)`` and one ``(R x J) @ (J x K)`` per first-mode slice,
plus O((I+J+K) R^2) of Gram algebra.  The Khatri-Rao matrices of the
textbook MTTKRP, and copies of the tensor, are never built, and the
residual norm is evaluated from the factor Grams instead of a dense
reconstruction (:func:`cp_residual_sq`; Kolda & Bader, SIAM Rev. 2009,
sec. 3.4).
"""

from typing import NamedTuple

import numpy as np

__all__ = [
    "khatri_rao",
    "reconstruct_cp",
    "cp_sweep",
    "cp_residual_sq",
    "reshape_kernel",
    "restore_kernel",
]


def khatri_rao(a, b):
    """Column-wise Kronecker (Khatri-Rao) product of two matrices.

    Column r of the result is ``kron(a[:, r], b[:, r])``; with this
    convention the mode-0 unfolding of ``reconstruct_cp(A, B, C)`` is
    ``A @ khatri_rao(C, B).T``.

    Parameters
    ----------
    a : ndarray (m, R)
    b : ndarray (n, R)

    Returns
    -------
    ndarray (m*n, R)
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    return np.einsum("ir,jr->ijr", a, b).reshape(a.shape[0] * b.shape[0], a.shape[1])


def reconstruct_cp(a, b, c):
    """Rebuild the dense tensor of the Kruskal model ``[[A, B, C]]``:
    ``t[i, j, k] = sum_r A[i, r] * B[j, r] * C[k, r]``.
    """
    a, b, c = (np.asarray(f, dtype=np.float64) for f in (a, b, c))
    if a.ndim != 2 or b.ndim != 2 or c.ndim != 2:
        raise ValueError("factors must be matrices")
    if not (a.shape[1] == b.shape[1] == c.shape[1]):
        raise ValueError(
            f"factor column counts differ: {a.shape[1]}, {b.shape[1]}, {c.shape[1]}"
        )
    # one GEMM: the (IJ x K) mode-2 unfolding is the C-order (I, J, K) layout
    return (khatri_rao(a, b) @ c.T).reshape(a.shape[0], b.shape[0], c.shape[0])


# Roundoff allowance, in units of machine epsilon times the magnitude of the
# terms, for a cancelling sum: the Gram-form residual of
# :func:`cp_residual_sq` and EPC's secular residual.
_ROUNDOFF = 16 * np.finfo(np.float64).eps
# Norms a nonzero tensor may have: every solver tolerance is relative, and
# fits of every method were scale-free from about 1e-114 to 1e114 in a probe
_NORM_RANGE = (1e-50, 1e50)


class _Checked(NamedTuple):
    """A tensor that passed :func:`_finite_norm`, and its norm."""

    tensor: np.ndarray
    norm: float


def _finite_norm(tensor):
    """``_Checked(tensor, ||tensor||_F)`` with `tensor` as a C-contiguous
    float64 array, or ValueError when it is not of order 3, has an empty
    mode, or fails :func:`_norm_in_range`: the one input check of a solver
    entry.  A ``_Checked`` argument, which one entry hands another, comes
    back as is."""
    if isinstance(tensor, _Checked):
        return tensor
    tensor = np.ascontiguousarray(tensor, dtype=np.float64)
    if tensor.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got order {tensor.ndim}")
    if 0 in tensor.shape:
        raise ValueError(f"tensor of shape {tensor.shape} has an empty mode")
    return _Checked(tensor, _norm_in_range(tensor))


def _norm_in_range(array):
    """``||array||_F`` in one pass, or ValueError when it is not finite (nan,
    inf or overflow) or, for a nonzero array, outside ``_NORM_RANGE``
    (underflow included).  Only a zero norm reads the array again.  The rule
    of a kernel, and of a block file's layer weights and biases."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        norm = np.linalg.norm(array)
    if not np.isfinite(norm):
        raise ValueError("tensor norm is not finite (nan, inf or overflow)")
    if not _NORM_RANGE[0] <= norm <= _NORM_RANGE[1] and (norm > 0 or array.any()):
        raise ValueError(f"tensor norm {norm:.3g} of a nonzero tensor is outside "
                         f"{_NORM_RANGE}; rescale it")
    return norm


def _column_signs(f):
    """``+-1`` per column of `f`: the factor that makes the column's
    largest-magnitude entry positive.  A basis or factor scaled by it does
    not depend on the signs LAPACK picks."""
    return np.where(f[np.argmax(np.abs(f), axis=0), np.arange(f.shape[1])] < 0,
                    -1.0, 1.0)


def cp_sweep(tensor, norm_t2, b, c, update):
    """One A -> B -> C sweep of a rank-R CP fit of an order-3 tensor.

    `tensor` is a C-contiguous float64 I x J x K array, so its ``(I*J, K)``
    reshape is a view; `norm_t2` is ``||T||^2``.  Each factor in turn is
    ``update(m, g1, g2, name)``, with `name` "A", "B" or "C", `m` its MTTKRP
    from the latest other two factors (``T_(0) @ khatri_rao(C, B)`` for A,
    cyclic analogues for B and C) and `g1`, `g2` the Grams of those two, in
    mode order.  The contraction ``W = T x_3 C'``, of shape (I, J, R),
    serves the A and B updates (Phan, Tichavsky & Cichocki, IEEE TSP 2013);
    the C update contracts ``B' T[i]``, one GEMM per first-mode slice, with
    A.  No Khatri-Rao temporary and no copy of the tensor is built.

    Returns
    -------
    (a, b, c, e2, slack)
        The new factors and :func:`cp_residual_sq` of their model.
    """
    i, j, k = tensor.shape
    gb, gc = b.T @ b, c.T @ c
    w = (tensor.reshape(i * j, k) @ c).reshape(i, j, -1)
    a = update(np.einsum("ijr,jr->ir", w, b), gb, gc, "A")
    ga = a.T @ a
    b = update(np.einsum("ijr,ir->jr", w, a), ga, gc, "B")
    gb = b.T @ b
    m_c = np.einsum("irk,ir->kr", np.matmul(b.T, tensor), a)
    c = update(m_c, ga, gb, "C")
    return (a, b, c, *cp_residual_sq(norm_t2, m_c, c, (ga, gb, c.T @ c)))


def cp_residual_sq(norm_t2, m_c, c, grams):
    """Squared residual ``||T - [[A, B, C]]||_F^2`` without reconstruction.

    Evaluates ``||T||^2 - 2<M_C, C> + 1'(A'A * B'B * C'C)1`` from the
    mode-2 MTTKRP ``M_C`` of the current A and B, the factor C and the
    three factor Grams.  The sum cancels when the fit is close or the
    components are large and cancelling, so a roundoff bound on the result
    is returned with it.

    Returns
    -------
    (e2, slack) : (float, float)
        The estimate and the absolute roundoff allowance on it; the true
        value lies within ``e2 +- slack``.
    """
    inner = float(np.vdot(m_c, c))
    had = grams[0] * grams[1] * grams[2]
    e2 = norm_t2 - 2.0 * inner + float(np.sum(had))
    slack = _ROUNDOFF * (norm_t2 + 2.0 * abs(inner) + float(np.sum(np.abs(had))))
    return e2, slack


def reshape_kernel(kernel4):
    """Flatten the two spatial axes of a D x D x S x T kernel into one.

    Slice ``d`` of the (D*D, S, T) result is tap ``(d // D, d % D)``, numpy's
    row-major order, so the result of a C-contiguous kernel is a view of it,
    not a copy.  :func:`restore_kernel` inverts the mapping bitwise.
    """
    kernel4 = np.asarray(kernel4)
    if kernel4.ndim != 4:
        raise ValueError(f"expected an order-4 kernel, got order {kernel4.ndim}")
    kh, kw, s, t = kernel4.shape
    return kernel4.reshape(kh * kw, s, t)


def restore_kernel(kernel3, d):
    """Inverse of :func:`reshape_kernel` for a square D x D spatial window:
    slice ``d`` becomes tap ``(d // D, d % D)``.  The result is a view of
    `kernel3` (a reshape that splits the first axis never copies)."""
    kernel3 = np.asarray(kernel3)
    if kernel3.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got order {kernel3.ndim}")
    d = int(d)
    if kernel3.shape[0] != d * d:
        raise ValueError(
            f"first extent {kernel3.shape[0]} is not the square of d={d}"
        )
    return kernel3.reshape(d, d, *kernel3.shape[1:])
