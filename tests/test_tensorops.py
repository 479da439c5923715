import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fold, mode_product, unfold
from convfactor import (
    CPModel,
    reconstruct_cp,
    reshape_kernel,
    restore_kernel,
)
from convfactor.tensorops import cp_residual_sq, cp_sweep, khatri_rao


def cp_loop(a, b, c):
    """Brute-force triple-loop Kruskal reconstruction (oracle)."""
    i, j, k = a.shape[0], b.shape[0], c.shape[0]
    out = np.zeros((i, j, k))
    for r in range(a.shape[1]):
        for ii in range(i):
            for jj in range(j):
                for kk in range(k):
                    out[ii, jj, kk] += a[ii, r] * b[jj, r] * c[kk, r]
    return out


class TestUnfoldFold:
    def test_zero_tensor_mode0(self):
        m = unfold(np.zeros((2, 2, 2)), 0)
        assert m.shape == (2, 4)
        assert np.all(m == 0)

    def test_mode_aligned_values(self):
        t = np.empty((2, 2, 2))
        for i in range(2):
            t[i] = i + 1  # value tracks the first index
        m = unfold(t, 0)
        assert np.array_equal(m[0], np.full(4, 1.0))
        assert np.array_equal(m[1], np.full(4, 2.0))

    @pytest.mark.parametrize("mode", [0, 1, 2])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=st.lists(st.integers(1, 4), min_size=3, max_size=5),
           kernel=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
           seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_exact(self, mode, shape, kernel, seed):
        # extents of 1 included: unfolding and the kernel reshape must not
        # lose or reorder a single bit in the degenerate layouts either
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(shape)
        assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)
        d, s, tt = kernel
        k = rng.standard_normal((d, d, s, tt))
        assert np.array_equal(restore_kernel(reshape_kernel(k), d), k)

    def test_column_order_first_remaining_fastest(self):
        t = np.random.default_rng(0).standard_normal((3, 4, 5))
        m = unfold(t, 0)
        # column of (j, k) is j + k*4
        assert m[1, 2 + 3 * 4] == t[1, 2, 3]

    def test_fold_zeros_and_scalar(self):
        assert np.all(fold(np.zeros((2, 4)), 0, (2, 2, 2)) == 0)
        t = fold(np.array([[7.0]]), 1, (1, 1, 1))
        assert t.shape == (1, 1, 1) and t[0, 0, 0] == 7.0

    def test_errors(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2, 2)), 3)
        with pytest.raises(ValueError):
            fold(np.zeros((2, 5)), 0, (2, 2, 2))


class TestKhatriRao:
    def test_unit_vectors(self):
        b = np.array([[1.0], [0.0]])
        c = np.array([[1.0], [1.0]])
        assert np.array_equal(khatri_rao(c, b), np.array([[1.0], [0.0], [1.0], [0.0]]))

    def test_identity_columns(self):
        out = khatri_rao(np.eye(2), np.eye(2))
        expect = np.zeros((4, 2))
        expect[0, 0] = 1.0
        expect[3, 1] = 1.0
        assert np.array_equal(out, expect)

    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        assert np.allclose(khatri_rao(a, b), scipy.linalg.khatri_rao(a, b))

    def test_kruskal_unfolding_identity(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        c = rng.standard_normal((6, 3))
        t = reconstruct_cp(a, b, c)
        assert np.max(np.abs(unfold(t, 0) - a @ khatri_rao(c, b).T)) < 1e-12

    def test_mismatch_error(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


class TestReconstructCp:
    def test_rank1_basis(self):
        e1 = np.array([[1.0], [0.0]])
        t = reconstruct_cp(e1, e1, e1)
        expect = np.zeros((2, 2, 2))
        expect[0, 0, 0] = 1.0
        assert np.array_equal(t, expect)

    def test_zero_factors(self):
        z = np.zeros((3, 2))
        assert np.all(reconstruct_cp(z, z, z) == 0)

    def test_against_triple_loop(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 3))
        c = rng.standard_normal((2, 3))
        assert np.max(np.abs(reconstruct_cp(a, b, c) - cp_loop(a, b, c))) < 1e-12

    def test_hadamard_norm_identity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        c = rng.standard_normal((6, 3))
        t = reconstruct_cp(a, b, c)
        gram = (a.T @ a) * (b.T @ b) * (c.T @ c)
        assert np.sum(t**2) == pytest.approx(np.sum(gram), rel=1e-10)

    def test_rank_mismatch_error(self):
        with pytest.raises(ValueError):
            reconstruct_cp(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))

    @pytest.mark.parametrize("dims, rank", [((9, 128, 128), 32), ((1, 5, 7), 4),
                                            ((3, 1, 2), 6)])
    def test_gemm_matches_einsum(self, dims, rank):
        rng = np.random.default_rng(sum(dims) + rank)
        a, b, c = (rng.standard_normal((n, rank)) for n in dims)
        ref = np.einsum("ir,jr,kr->ijk", a, b, c)
        got = reconstruct_cp(a, b, c)
        assert got.shape == dims
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestCpSweep:
    @pytest.mark.parametrize("dims, rank", [((9, 16, 12), 5), ((1, 4, 6), 3),
                                            ((4, 1, 3), 7), ((3, 5, 1), 2)])
    def test_updates_see_khatri_rao_products(self, dims, rank):
        # each update gets its MTTKRP from the latest other two factors and
        # their Grams; the returned error is that of the new factors
        rng = np.random.default_rng(rank)
        t = rng.standard_normal(dims)
        b, c = (rng.standard_normal((n, rank)) for n in dims[1:])
        new = {name: rng.standard_normal((n, rank)) for name, n in zip("ABC", dims)}
        seen = {}

        def update(m, g1, g2, name):
            seen[name] = (m, g1, g2)
            return new[name]

        a1, b1, c1, e2, slack = cp_sweep(t, np.sum(t**2), b, c, update)
        assert all(f is new[name] for f, name in zip((a1, b1, c1), "ABC"))
        expect = {
            "A": (unfold(t, 0) @ khatri_rao(c, b), b, c),
            "B": (unfold(t, 1) @ khatri_rao(c, a1), a1, c),
            "C": (unfold(t, 2) @ khatri_rao(b1, a1), a1, b1),
        }
        for name, (m_ref, f1, f2) in expect.items():
            m, g1, g2 = seen[name]
            assert m.shape == m_ref.shape
            assert np.max(np.abs(m - m_ref)) <= 1e-12 * max(1.0, np.max(np.abs(m_ref)))
            assert np.array_equal(g1, f1.T @ f1) and np.array_equal(g2, f2.T @ f2)
        dense = np.sum((t - reconstruct_cp(a1, b1, c1)) ** 2)
        assert abs(e2 - dense) <= slack

    def test_no_tensor_sized_temporary(self):
        # the (I*J, K) view of a C-contiguous tensor is contracted in place:
        # a sweep at rank 3 allocates far less than one copy of the tensor
        rng = np.random.default_rng(0)
        t = rng.standard_normal((8, 60, 80))
        b, c = rng.standard_normal((60, 3)), rng.standard_normal((80, 3))
        norm_t2 = np.sum(t**2)
        tracemalloc.start()
        try:
            cp_sweep(t, norm_t2, b, c, lambda m, g1, g2, name: m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * t.nbytes


class TestCpResidualSq:
    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_matches_dense_within_slack(self, scale):
        # scale inflates two factors in opposite directions: large
        # cancelling terms, the case the roundoff bound must cover
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 5, 6))
        a, b, c = (rng.standard_normal((n, 3)) for n in t.shape)
        a, b = a * scale, b / scale
        m_c = unfold(t, 2) @ khatri_rao(b, a)
        e2, slack = cp_residual_sq(np.sum(t**2), m_c, c,
                                   (a.T @ a, b.T @ b, c.T @ c))
        dense = np.sum((t - reconstruct_cp(a, b, c)) ** 2)
        assert abs(e2 - dense) <= slack
        assert slack < 1e-12 * np.sum(t**2)

    def test_exact_model_is_within_slack_of_zero(self):
        rng = np.random.default_rng(4)
        a, b, c = (rng.standard_normal((n, 2)) for n in (3, 4, 5))
        t = CPModel(a, b, c).to_tensor()
        e2, slack = cp_residual_sq(np.sum(t**2), unfold(t, 2) @ khatri_rao(b, a), c,
                                   (a.T @ a, b.T @ b, c.T @ c))
        assert abs(e2) <= slack


class TestModeProduct:
    def test_identity(self):
        t = np.random.default_rng(6).standard_normal((3, 4, 5))
        assert np.allclose(mode_product(t, np.eye(4), 1), t)

    def test_rank1_multilinearity(self):
        rng = np.random.default_rng(7)
        a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        m = rng.standard_normal((6, 4))
        t = np.einsum("i,j,k->ijk", a, b, c)
        expect = np.einsum("i,j,k->ijk", a, m @ b, c)
        assert np.max(np.abs(mode_product(t, m, 1) - expect)) < 1e-12

    def test_orthonormal_norm_preserved(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((3, 4, 5))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert np.linalg.norm(mode_product(t, q.T, 1)) == pytest.approx(
            np.linalg.norm(t), abs=1e-12
        )

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((3, 4, 5))
        m1 = rng.standard_normal((2, 4))
        m2 = rng.standard_normal((6, 5))
        left = mode_product(mode_product(t, m1, 1), m2, 2)
        right = mode_product(mode_product(t, m2, 2), m1, 1)
        assert np.max(np.abs(left - right)) < 1e-12

    def test_shape_error(self):
        with pytest.raises(ValueError):
            mode_product(np.zeros((3, 4, 5)), np.zeros((2, 3)), 1)


class TestReshapeKernel:
    def test_1x1_identity_data(self):
        k = np.random.default_rng(10).standard_normal((1, 1, 3, 4))
        out = reshape_kernel(k)
        assert out.shape == (1, 3, 4)
        assert np.array_equal(out[0], k[0, 0])

    def test_roundtrip_distinct_entries(self):
        k = np.arange(3 * 3 * 2 * 2, dtype=np.float64).reshape(3, 3, 2, 2)
        assert np.array_equal(restore_kernel(reshape_kernel(k), 3), k)

    def test_index_mapping(self):
        k = np.random.default_rng(11).standard_normal((3, 3, 2, 2))
        out = reshape_kernel(k)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(out[i * 3 + j], k[i, j])

    def test_view_of_a_contiguous_kernel(self):
        k = np.random.default_rng(12).standard_normal((3, 3, 4, 5))
        out = reshape_kernel(k)
        assert np.shares_memory(out, k)
        back = restore_kernel(out, 3)
        assert np.shares_memory(back, k)
        assert np.array_equal(back, k)

    def test_zero(self):
        assert np.all(reshape_kernel(np.zeros((2, 2, 3, 4))) == 0)

    def test_errors(self):
        with pytest.raises(ValueError):
            reshape_kernel(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            restore_kernel(np.zeros((5, 2, 2)), 2)
