"""Shared test helpers: unfolding and mode-product oracles, synthetic
tensors and degenerate CP starts."""

import numpy as np
from hypothesis import strategies as st

from convfactor import CPModel, reconstruct_cp


def unfold(tensor, mode):
    """Mode-`mode` unfolding (matricization) of `tensor`.

    Parameters
    ----------
    tensor : ndarray
    mode : int
        0-based mode index in ``range(tensor.ndim)``.

    Returns
    -------
    ndarray of shape ``(tensor.shape[mode], prod(other extents))``
        Columns enumerate the remaining modes with the first remaining
        mode fastest: for an I x J x K tensor and mode 0, the column of
        element (i, j, k) is ``j + k*J``.
    """
    tensor = np.asarray(tensor)
    if not 0 <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for order-{tensor.ndim} tensor")
    return np.reshape(
        np.moveaxis(tensor, mode, 0), (tensor.shape[mode], -1), order="F"
    )


def fold(matrix, mode, shape):
    """Inverse of :func:`unfold`: rebuild a tensor of `shape` from its unfolding.

    ``fold(unfold(t, mode), mode, t.shape)`` restores `t` bitwise.
    """
    matrix = np.asarray(matrix)
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    other = shape[:mode] + shape[mode + 1 :]
    expected = (shape[mode], int(np.prod(other, dtype=np.int64)))
    if matrix.shape != expected:
        raise ValueError(
            f"matrix shape {matrix.shape} inconsistent with shape {shape}, "
            f"mode {mode} (expected {expected})"
        )
    moved = np.reshape(matrix, (shape[mode],) + other, order="F")
    return np.ascontiguousarray(np.moveaxis(moved, 0, mode))


def mode_product(tensor, matrix, mode):
    """Mode-`mode` product ``tensor x_mode matrix``.

    Contracts the `mode` axis of `tensor` (extent n) with the columns of
    `matrix` (shape m x n); the result has extent m at `mode`.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    if not 0 <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for order-{tensor.ndim} tensor")
    if matrix.ndim != 2 or matrix.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"matrix shape {matrix.shape} does not match extent "
            f"{tensor.shape[mode]} at mode {mode}"
        )
    out = np.tensordot(matrix, tensor, axes=(1, mode))
    return np.ascontiguousarray(np.moveaxis(out, 0, mode))


def random_cp_tensor(rng, dims, rank):
    """Tensor with an exact rank-`rank` CP structure, plus its factors."""
    a = rng.standard_normal((dims[0], rank))
    b = rng.standard_normal((dims[1], rank))
    c = rng.standard_normal((dims[2], rank))
    return reconstruct_cp(a, b, c), (a, b, c)


def random_tucker2_tensor(rng, dims, ranks):
    """Tensor with exact multilinear ranks on modes 1 and 2."""
    d2, s, t = dims
    r1, r2 = ranks
    core = rng.standard_normal((d2, r1, r2))
    u, _ = np.linalg.qr(rng.standard_normal((s, r1)))
    v, _ = np.linalg.qr(rng.standard_normal((t, r2)))
    return mode_product(mode_product(core, u, 1), v, 2), (core, u, v)


def hybrid_structured_tensor(rng, dims, ml_ranks, cp_rank, noise=0.0):
    """Tensor that is exactly Tucker-2 with a CP core, plus optional noise."""
    d2, s, t = dims
    r1, r2 = ml_ranks
    core = reconstruct_cp(
        rng.standard_normal((d2, cp_rank)),
        rng.standard_normal((r1, cp_rank)),
        rng.standard_normal((r2, cp_rank)),
    )
    u, _ = np.linalg.qr(rng.standard_normal((s, r1)))
    v, _ = np.linalg.qr(rng.standard_normal((t, r2)))
    tensor = mode_product(mode_product(core, u, 1), v, 2)
    if noise:
        bump = rng.standard_normal(dims)
        tensor = tensor + noise * np.linalg.norm(tensor) * bump / np.linalg.norm(bump)
    return tensor


def degenerate_pair(rng, dims, scale=100.0, noise=0.01):
    """Rank-1-plus-noise tensor and a two-component canceling start.

    The start reconstructs the rank-1 part exactly while its two component
    intensities are about `scale` times the data norm, mimicking diverging
    ALS solutions.
    """
    vecs = [rng.standard_normal(n) for n in dims]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    a, b, c = vecs
    n = rng.standard_normal(dims)
    n /= np.linalg.norm(n)
    tensor = np.einsum("i,j,k->ijk", a, b, c) + noise * n
    eps = 1.0 / (2.0 * scale)
    model = CPModel(
        np.stack([(1 + eps) / (2 * eps) * a, -(1 - eps) / (2 * eps) * a], axis=1),
        np.stack([b, b], axis=1),
        np.stack([c, c], axis=1),
    )
    return tensor, model


@st.composite
def well_posed_cp_problems(draw):
    """(dims, rank) whose exact rank-`rank` tensors have a unique CP.

    Kruskal's condition k_A + k_B + k_C >= 2R + 2 holds for generic
    factors once two extents are at least R and the third at least 2, so
    the smallest extent may be below the rank; rank 1 is always unique,
    which admits 1 x 1 kernels (I = 1).  Fits with more components than
    the data supports leave the normal equations near-singular; there the
    float64 ALS trace is not monotone to 1e-12 and the EPC bound is met
    only to about 1e-7 relative, in the Khatri-Rao formulation as well.
    """
    rank = draw(st.integers(1, 4))
    small = draw(st.integers(1 if rank == 1 else 2, 4))
    dims = [small, draw(st.integers(rank, 6)), draw(st.integers(rank, 6))]
    order = draw(st.permutations([0, 1, 2]))
    return tuple(dims[m] for m in order), rank
