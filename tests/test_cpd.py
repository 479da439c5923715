import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cp_tensor, unfold, well_posed_cp_problems
from convfactor import (
    CPModel,
    cpd,
    cpd_als,
    intensity,
    monte_carlo_sensitivity,
    sensitivity,
    tucker2,
)
from convfactor.cpd import _pinv_psd, _solve_psd, balance_components
from convfactor.fileio import read_tensor_matrices, write_tensor
from convfactor.tensorops import khatri_rao, reconstruct_cp, restore_kernel


def reference_als(tensor, b, c, sweeps, tol=0.0):
    """Textbook ALS on materialized Khatri-Rao matrices (oracle).

    Starts from B and C, runs at most `sweeps` sweeps, stopping once the
    dense relative error changes by less than `tol`; returns the factors
    and the error after each sweep.
    """
    norm_t = np.linalg.norm(tensor)
    units = [unfold(tensor, m) for m in range(3)]
    errors = []
    for _ in range(sweeps):
        a = units[0] @ khatri_rao(c, b) @ np.linalg.pinv((c.T @ c) * (b.T @ b))
        b = units[1] @ khatri_rao(c, a) @ np.linalg.pinv((c.T @ c) * (a.T @ a))
        zc = khatri_rao(b, a)
        c = units[2] @ zc @ np.linalg.pinv((b.T @ b) * (a.T @ a))
        errors.append(np.linalg.norm(units[2] - c @ zc.T) / norm_t)
        if len(errors) > 1 and abs(errors[-2] - errors[-1]) < tol:
            break
    return (a, b, c), errors


def svd_init(tensor, rank, seed):
    """The documented start of restart 0, B and C: the leading left
    singular vectors of the mode-1 and mode-2 unfoldings, padded where the
    rank exceeds them with Gaussian columns drawn from
    ``default_rng((seed, 0))``, B's first."""
    rng = np.random.default_rng((seed, 0))
    factors = []
    for mode in (1, 2):
        u = np.linalg.svd(unfold(tensor, mode), full_matrices=False)[0][:, :rank]
        pad = rng.standard_normal((u.shape[0], rank - u.shape[1]))
        factors.append(np.hstack([u, pad]))
    return factors


def sign_aligned(got, want):
    """`got` with each column's sign flipped to agree with `want`: singular
    vectors, and so the ALS iterates started from them, are defined up to
    the sign of each column."""
    return got * np.where(np.sum(got * want, axis=0) < 0, -1.0, 1.0)


def magnitudes(model):
    """Per-component ``||a_r|| ||b_r|| ||c_r||``."""
    return np.prod([np.linalg.norm(f, axis=0) for f in (model.A, model.B, model.C)],
                   axis=0)


def balanced_sorted(a, b, c):
    """The output form of :func:`cpd_als`: components sorted by descending
    magnitude, then balanced."""
    order = np.argsort(-magnitudes(CPModel(a, b, c)), kind="stable")
    return balance_components(CPModel(a[:, order], b[:, order], c[:, order]))


def dense_rel_error(tensor, model):
    return np.linalg.norm(tensor - model.to_tensor()) / np.linalg.norm(tensor)


class TestAls:
    def test_rank1_exact(self):
        rng = np.random.default_rng(0)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 1)
        res = cpd_als(t, 1)
        assert res.rel_error <= 1e-10

    def test_construct_then_recover_r3(self):
        rng = np.random.default_rng(1)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 3)
        res = cpd_als(t, 3)
        assert res.rel_error <= 1e-6

    def test_zero_tensor_convention(self):
        res = cpd_als(np.zeros((3, 4, 5)), 2)
        assert res.rel_error == 0.0
        assert all(np.all(f == 0.0) for f in (res.model.A, res.model.B, res.model.C))
        assert np.all(res.model.to_tensor() == 0.0)
        # no sweep runs, so the trace is empty and n_iters, its length, is 0
        assert (res.rel_errors, res.n_iters, res.stop) == ([], 0, "tol")
        with pytest.raises(AttributeError):
            res.n_iters = 1

    def test_per_sweep_monotone(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((5, 6, 7))
        res = cpd_als(t, 3)
        errs = res.rel_errors
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))

    def test_normalized_output(self):
        rng = np.random.default_rng(3)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 2)
        model = cpd_als(t, 2).model
        # balanced: ||a_r||^2 / I = ||b_r||^2 / J = ||c_r||^2 / K per component
        per_extent = [np.linalg.norm(f, axis=0) ** 2 / f.shape[0]
                      for f in (model.A, model.B, model.C)]
        assert np.allclose(per_extent[0], per_extent[1], rtol=1e-12)
        assert np.allclose(per_extent[0], per_extent[2], rtol=1e-12)
        assert np.all(np.diff(magnitudes(model)) <= 0)

    def test_svd_init(self, monkeypatch):
        rng = np.random.default_rng(4)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 2)
        # one restart is the SVD-seeded start alone
        monkeypatch.setattr(cpd, "_RESTARTS", 1)
        res = cpd_als(t, 2)
        assert res.rel_error <= 1e-8

    def test_mixed_init_rank_above_extents(self):
        # components can outnumber a mode extent; the svd-leading start
        # pads with random columns
        rng = np.random.default_rng(20)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 3)
        res = cpd_als(t, 8)
        assert res.rel_error <= 1e-8

    def test_mixed_init_avoids_overparameterized_swamp(self, monkeypatch):
        rng = np.random.default_rng(21)
        t, _ = random_cp_tensor(rng, (10, 12, 14), 4)
        monkeypatch.setattr(cpd, "_RESTARTS", 1)  # the SVD-seeded restart alone
        res = cpd_als(t, 8)
        assert res.rel_error <= 1e-8

    def test_restart_selection_deterministic(self, monkeypatch):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((4, 4, 4))
        monkeypatch.setattr(cpd, "_MAX_SWEEPS", 50)
        r1 = cpd_als(t, 2)
        r2 = cpd_als(t, 2)
        assert r1.rel_error == r2.rel_error
        assert np.array_equal(r1.model.A, r2.model.A)

    def test_errors(self):
        with pytest.raises(ValueError):
            cpd_als(np.zeros((2, 2)), 1)
        with pytest.raises(ValueError):
            cpd_als(np.zeros((2, 2, 2)), 0)
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            cpd_als(bad, 1)
        for delta in (-1.0, np.nan):
            with pytest.raises(ValueError, match="delta"):
                cpd_als(np.ones((2, 2, 2)), 1, delta=delta)


def noisy_rank3(seed):
    """A 4x5x6 rank-3 tensor plus 5% noise: ALS at rank 3 converges in
    tens of sweeps."""
    rng = np.random.default_rng(seed)
    t, _ = random_cp_tensor(rng, (4, 5, 6), 3)
    return t + 0.05 * np.linalg.norm(t) * rng.standard_normal(t.shape) / np.sqrt(t.size)


# exact rank-2 tensors fitted at rank 4: (dims, seed) of the factors
OVER_RANK_CASES = [((3, 5, 5), 7), ((3, 5, 5), 125), ((4, 6, 6), 19), ((2, 5, 5), 123)]


def exact_rank2(dims, seed):
    """An exact rank-2 tensor with standard normal factors."""
    rng = np.random.default_rng(seed)
    return reconstruct_cp(*(rng.standard_normal((n, 2)) for n in dims))


class TestStopRules:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bounded_fit_ends_at_the_bound(self, seed):
        t = noisy_rank3(seed)
        free = cpd_als(t, 3, seed=seed)
        assert free.stop == "tol" and free.converged
        delta = 1.1 * free.rel_error * np.linalg.norm(t)
        res = cpd_als(t, 3, seed=seed, delta=delta)
        bound = delta / np.linalg.norm(t)
        assert res.stop == "bound" and res.converged
        assert res.rel_errors[-1] <= bound
        assert all(err > bound for err in res.rel_errors[:-1])
        assert res.n_iters == len(res.rel_errors) < free.n_iters
        assert abs(res.rel_error - dense_rel_error(t, res.model)) <= 1e-12
        model = res.model
        ref = balanced_sorted(model.A, model.B, model.C)
        for got, want in ((model.A, ref.A), (model.B, ref.B), (model.C, ref.C)):
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_vacuous_bound_ends_after_one_sweep(self):
        t = noisy_rank3(1)
        res = cpd_als(t, 3, delta=np.linalg.norm(t))
        assert (res.stop, res.n_iters) == ("bound", 1)

    @staticmethod
    def count_inits(monkeypatch):
        """Record the `svd` flag of every restart's start (True for restart 0)."""
        calls = []
        init = cpd._init_factors

        def spy(tensor, rank, svd, rng):
            calls.append(svd)
            return init(tensor, rank, svd, rng)

        monkeypatch.setattr(cpd, "_init_factors", spy)
        return calls

    def test_clean_restart_zero_skips_the_random_restarts(self, monkeypatch):
        calls = self.count_inits(monkeypatch)
        res = cpd_als(noisy_rank3(0), 3)
        assert calls == [True]
        assert res.stop == "tol"

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("bounded", [False, True])
    def test_n_iters_counts_the_sweeps(self, monkeypatch, seed, bounded):
        # one cp_sweep per sweep of the returned restart 0, and one trace
        # entry each, so n_iters can stand for the sweeps a fit computed
        t = noisy_rank3(seed)
        delta = None
        if bounded:
            delta = 1.1 * cpd_als(t, 3, seed=seed).rel_error * np.linalg.norm(t)
        inits = self.count_inits(monkeypatch)
        sweeps = []
        cp_sweep = cpd.cp_sweep
        monkeypatch.setattr(cpd, "cp_sweep",
                            lambda *args: sweeps.append(None) or cp_sweep(*args))
        res = cpd_als(t, 3, seed=seed, delta=delta)
        assert inits == [True]
        assert res.stop == ("bound" if bounded else "tol")
        assert len(sweeps) == res.n_iters == len(res.rel_errors)

    def test_capped_restart_zero_runs_every_restart(self, monkeypatch):
        calls = self.count_inits(monkeypatch)
        monkeypatch.setattr(cpd, "_MAX_SWEEPS", 5)
        res = cpd_als(noisy_rank3(0), 3)
        assert calls == [True, False, False]
        assert res.stop == "cap" and not res.converged

    @pytest.mark.parametrize("dims, seed", OVER_RANK_CASES)
    def test_non_monotone_restart_zero_is_not_trusted(self, dims, seed):
        # exact rank-2 tensors fitted at rank 4 have near-singular normal
        # equations; should restart 0's error jump up mid-fit, stall, and
        # stop on the tolerance far from the exact fit, the monotone
        # condition of the restart rule hands the fit to the random
        # restarts.  Roundoff decides which cases jump, so it differs
        # between BLAS builds; the exact fit is expected either way.
        res = cpd_als(exact_rank2(dims, seed), 4, seed=seed)
        assert res.rel_error < 1e-10

    @pytest.mark.parametrize("dims, seed", OVER_RANK_CASES)
    def test_restart_zero_alone_is_monotone_over_rank(self, monkeypatch, dims, seed):
        # the normal-equation solve falls back to the eigh pseudo-inverse
        # where the inverse is untrustworthy, so restart 0 alone never jumps
        monkeypatch.setattr(cpd, "_RESTARTS", 1)
        res = cpd_als(exact_rank2(dims, seed), 4, seed=seed)
        errors = res.rel_errors
        assert all(e1 <= e0 + cpd._TOL for e0, e1 in zip(errors, errors[1:]))
        assert res.rel_error < 1e-9


class TestSeed:
    @pytest.mark.parametrize("dims, rank", [
        ((9, 6, 7), 3),   # both stacks tall
        ((1, 12, 4), 3),  # mode 1's stack is 4 x 12, wide
        ((2, 3, 5), 4),   # rank beyond mode 1's extent: one pad column
    ])
    def test_restart_zero_seeds_b_and_c_by_the_tucker_step(self, dims, rank):
        t = np.random.default_rng(40).standard_normal(dims)
        got = cpd._init_factors(t, rank, True, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        want = []
        for stack in (np.swapaxes(t, 1, 2), t):  # the slices of modes 1 and 2
            m, n = stack.shape[0] * stack.shape[1], stack.shape[2]
            u = tucker2._leading_right_vecs(stack, 0.0, min(rank, n, m))[0]
            want.append(np.hstack([u, rng.standard_normal((n, rank - u.shape[1]))]))
        assert len(got) == 2
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_restart_zero_takes_no_first_mode_eigh(self, monkeypatch):
        # A is the first sweep's update from B and C, so no D^2 x D^2 Gram
        # of the first mode is decomposed
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda g, *args: shapes.append(g.shape) or eigh(g, *args))
        monkeypatch.setattr(cpd, "_RESTARTS", 1)
        t, _ = random_cp_tensor(np.random.default_rng(41), (9, 16, 16), 3)
        assert cpd_als(t, 3).rel_error <= 1e-8
        assert (16, 16) in shapes and (9, 9) not in shapes


class TestAlsMatchesKhatriRaoReference:
    """Restart 0 alone, sweep by sweep, against :func:`reference_als`."""

    @staticmethod
    def restart_zero(monkeypatch, max_sweeps, tol):
        monkeypatch.setattr(cpd, "_RESTARTS", 1)
        monkeypatch.setattr(cpd, "_MAX_SWEEPS", max_sweeps)
        monkeypatch.setattr(cpd, "_TOL", tol)

    @pytest.mark.parametrize("dims, rank", [((4, 5, 6), 3), ((9, 12, 10), 5),
                                            ((1, 6, 7), 2)])
    def test_twenty_sweeps_from_same_init(self, monkeypatch, dims, rank):
        rng = np.random.default_rng(30)
        t = rng.standard_normal(dims)
        self.restart_zero(monkeypatch, 20, 1e-15)
        res = cpd_als(t, rank, seed=7)
        (a, b, c), ref_errors = reference_als(t, *svd_init(t, rank, 7), 20, 1e-15)
        # a 1 x J x K tensor is a matrix, and its SVD start is already the
        # best fit: that run stops at sweep 2, the others run all 20
        assert res.n_iters == len(ref_errors) == (2 if dims[0] == 1 else 20)
        assert res.converged == (res.n_iters < 20)
        ref = balanced_sorted(a, b, c)
        for got, want in ((res.model.A, ref.A), (res.model.B, ref.B),
                          (res.model.C, ref.C)):
            got = sign_aligned(got, want)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert np.max(np.abs(np.array(res.rel_errors) - ref_errors)) <= 1e-12

    @pytest.mark.parametrize("noise, tol", [(0.0, 1e-12), (0.0, 1e-9), (1e-3, 1e-12)])
    def test_converges_on_the_same_sweep(self, monkeypatch, noise, tol):
        # convergence is decided on dense errors, as in the reference; the
        # exact fit drives the Gram-form error into cancellation first
        rng = np.random.default_rng(32)
        dims, rank = (4, 5, 6), 3
        t, _ = random_cp_tensor(rng, dims, rank)
        t = t + noise * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
        self.restart_zero(monkeypatch, 3000, tol)
        res = cpd_als(t, rank, seed=3)
        _, ref_errors = reference_als(t, *svd_init(t, rank, 3), 3000, tol)
        assert res.converged
        assert res.n_iters == len(ref_errors)
        assert abs(res.rel_error - ref_errors[-1]) <= 1e-12
        # before the switch the trace holds Gram-form errors, good to about
        # eps ||T||^2 / err (cancellation in the squared error); over
        # hundreds of sweeps the two iterations also drift apart by roundoff
        ref_errors = np.array(ref_errors)
        assert np.all(np.abs(np.array(res.rel_errors) - ref_errors)
                      <= 1e-10 + 1e-14 / ref_errors)

    @pytest.mark.parametrize("dims, true_rank, rank, noise, iters", [
        ((4, 5, 6), 3, 3, 0.0, 2000),     # exact fit: dense fallback, converges
        ((4, 5, 6), 3, 3, 1e-2, 2000),    # noisy fit, converges
        ((9, 16, 16), 6, 4, 0.1, 30),     # capped
        ((2, 3, 3), 2, 5, 0.0, 300),      # rank above every extent
    ])
    def test_reported_error_is_dense(self, monkeypatch, dims, true_rank, rank, noise,
                                     iters):
        rng = np.random.default_rng(31)
        t, _ = random_cp_tensor(rng, dims, true_rank)
        t = t + noise * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
        monkeypatch.setattr(cpd, "_MAX_SWEEPS", iters)
        res = cpd_als(t, rank)
        assert res.rel_error == res.rel_errors[-1]
        assert abs(res.rel_error - dense_rel_error(t, res.model)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problem=well_posed_cp_problems(), exact=st.booleans(),
       seed=st.integers(0, 2**16))
def test_als_trace_non_increasing(problem, exact, seed):
    # exact tensors drive the error to roundoff, where the Gram-form error
    # cancels and the dense fallback must take over
    dims, rank = problem
    rng = np.random.default_rng(seed)
    t, _ = random_cp_tensor(rng, dims, rank)
    if not exact:
        t = t + 0.05 * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
    with mock.patch.object(cpd, "_MAX_SWEEPS", 300):
        res = cpd_als(t, rank, seed=seed)
    errs = res.rel_errors
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    assert abs(res.rel_error - dense_rel_error(t, res.model)) <= 1e-12


def hadamard_gram(*factors):
    g = np.ones((factors[0].shape[1],) * 2)
    for f in factors:
        g = g * (f.T @ f)
    return g


def dead_component(rng):
    b, c = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
    b[:, 2] = 0.0
    return hadamard_gram(b, c)


def duplicated_component(rng):
    b, c = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
    b[:, 3], c[:, 3] = b[:, 1], c[:, 1]
    return hadamard_gram(b, c)


def rank_above_extents(rng):
    # factors 2x5 and 2x5: the 4x5 Khatri-Rao product has rank <= 4
    return hadamard_gram(rng.standard_normal((2, 5)), rng.standard_normal((2, 5)))


def cond_1e13(rng):
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    g = (q * np.logspace(0, -13, 6)) @ q.T
    return (g + g.T) / 2


class TestSolvePsd:
    """``_solve_psd`` against the eigh pseudo-inverse it replaces."""

    @staticmethod
    def solve_counting_fallbacks(monkeypatch, m, g):
        calls = []

        def pinv(g_):
            calls.append(1)
            return _pinv_psd(g_)

        monkeypatch.setattr("convfactor.cpd._pinv_psd", pinv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _solve_psd(m, g), len(calls)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rank, extents", [
        (1, (1, 3)), (2, (2, 9)), (5, (5, 12)), (16, (16, 20)), (32, (32, 39)),
        # rank above both extents, yet the Gram of the 6x5 Khatri-Rao
        # product of generic factors is definite
        (5, (2, 3)),
    ])
    def test_matches_pinv_on_definite_grams(self, monkeypatch, seed, rank, extents):
        # both solves are accurate to about cond(g) eps, far below the
        # tolerance for these Grams
        rng = np.random.default_rng((seed, rank, *extents))
        g = hadamard_gram(*(rng.standard_normal((n, rank)) for n in extents))
        m = rng.standard_normal((7, rank))
        got, fallbacks = self.solve_counting_fallbacks(monkeypatch, m, g)
        want = m @ _pinv_psd(g)
        assert fallbacks == 0
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("make_gram", [
        dead_component, duplicated_component, rank_above_extents, cond_1e13,
    ], ids=lambda f: f.__name__)
    def test_singular_and_near_singular_fall_back(self, monkeypatch, make_gram):
        rng = np.random.default_rng(41)
        g = make_gram(rng)
        m = rng.standard_normal((3, g.shape[0]))
        got, fallbacks = self.solve_counting_fallbacks(monkeypatch, m, g)
        assert fallbacks == 1
        assert np.array_equal(got, m @ _pinv_psd(g))

    def test_negative_trace_inverse_falls_back(self, monkeypatch):
        # a garbage inverse of a numerically singular Gram that still passes
        # Cholesky can have a negative trace; its trace product is negative
        # and must not pass the condition test
        rng = np.random.default_rng(5)
        g = hadamard_gram(rng.standard_normal((4, 3)), rng.standard_normal((6, 3)))
        m = rng.standard_normal((2, 3))
        monkeypatch.setattr(np.linalg, "inv", lambda a: -np.eye(a.shape[0]))
        assert np.array_equal(_solve_psd(m, g), m @ _pinv_psd(g))


class TestRelError:
    @pytest.fixture(scope="class")
    def wide(self):
        # slices of 300 x 200 entries: row blocks of 163 rows, then 137
        rng = np.random.default_rng(11)
        model = CPModel(*(rng.standard_normal((n, 5)) for n in (9, 300, 200)))
        t = model.to_tensor() + 0.1 * rng.standard_normal((9, 300, 200))
        assert 200 * 300 > cpd._RESIDUAL_BLOCK >= 200 * 150
        return t, model, dense_rel_error(t, model)

    def test_slices_in_several_row_blocks(self, wide):
        t, model, dense = wide
        assert cpd.rel_error(t, model) == pytest.approx(dense, rel=1e-12)

    def test_taps_drawn_from_a_file(self, wide, tmp_path):
        # as verify reads a kernel
        t, model, dense = wide
        write_tensor(tmp_path / "k.kten", restore_kernel(t, 3))
        _, taps = read_tensor_matrices(tmp_path / "k.kten")
        assert cpd.rel_error(taps, model) == pytest.approx(dense, rel=1e-12)

    def test_slice_within_one_block_is_one_product(self):
        # the 64- and 128-channel kernels' scores stay bitwise what they were
        rng = np.random.default_rng(12)
        model = CPModel(*(rng.standard_normal((n, 24)) for n in (9, 128, 128)))
        t = model.to_tensor() + 0.1 * rng.standard_normal((9, 128, 128))
        err2 = norm2 = 0.0
        for t_d, a_d in zip(t, model.A):
            diff = (model.B * a_d) @ model.C.T - t_d
            err2 += float(np.vdot(diff, diff))
            norm2 += float(np.vdot(t_d, t_d))
        assert cpd.rel_error(t, model) == np.sqrt(err2 / norm2)


class TestIntensity:
    def test_scaled_rank1(self):
        a = np.array([[2.0], [0.0]])
        e = np.array([[1.0], [0.0]])
        assert intensity(CPModel(a, e, e)) == pytest.approx(4.0)

    def test_against_componentwise_oracle(self):
        rng = np.random.default_rng(6)
        m = CPModel(
            rng.standard_normal((4, 3)),
            rng.standard_normal((5, 3)),
            rng.standard_normal((6, 3)),
        )
        expect = 0.0
        for r in range(3):
            comp = np.einsum("i,j,k->ijk", m.A[:, r], m.B[:, r], m.C[:, r])
            expect += np.sum(comp**2)
        assert intensity(m) == pytest.approx(expect, rel=1e-10)


class TestSensitivity:
    def test_identity_factors(self):
        m = CPModel(np.eye(2), np.eye(2), np.eye(2))
        assert sensitivity(m) == pytest.approx(12.0)

    def test_rank1_unit(self):
        rng = np.random.default_rng(7)
        dims = (3, 5, 7)
        vecs = [rng.standard_normal(n) for n in dims]
        vecs = [(v / np.linalg.norm(v))[:, None] for v in vecs]
        assert sensitivity(CPModel(*vecs)) == pytest.approx(sum(dims), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = CPModel(
                rng.standard_normal((3, 2)),
                rng.standard_normal((4, 2)),
                rng.standard_normal((5, 2)),
            )
            assert sensitivity(m) >= 0
            assert intensity(m) >= 0

    def test_matches_monte_carlo(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            m = CPModel(
                rng.standard_normal((5, 3)),
                rng.standard_normal((6, 3)),
                rng.standard_normal((7, 3)),
            )
            mc = monte_carlo_sensitivity(m, sigma=1e-4, n_samples=2000, seed=seed)
            assert mc == pytest.approx(sensitivity(m), rel=0.02)

    def test_scale_move_between_factors(self):
        # moving a scalar between factors keeps the reconstruction and
        # intensity but changes sensitivity exactly as the formula predicts
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal((5, 2))
        c = rng.standard_normal((6, 2))
        m = CPModel(a, b, c)
        s = 3.0
        scaled = CPModel(a / s, b * s, c)
        assert np.max(np.abs(m.to_tensor() - scaled.to_tensor())) < 1e-12
        assert intensity(scaled) == pytest.approx(intensity(m), rel=1e-12)
        i, j, k = m.shape
        sa, sb, sc = (np.sum(f**2, axis=0) for f in (a / s, b * s, c))
        expect = k * sa @ sb + i * sb @ sc + j * sa @ sc
        assert sensitivity(scaled) == pytest.approx(expect, rel=1e-12)
        assert sensitivity(scaled) != pytest.approx(sensitivity(m), rel=1e-3)


class TestMonteCarlo:
    def test_zero_model(self):
        z = np.zeros((3, 1))
        m = CPModel(z, z, z)
        assert monte_carlo_sensitivity(m, sigma=1e-5, n_samples=200) < 1e-6

    def test_sigma_halving_limit(self):
        rng = np.random.default_rng(10)
        m = CPModel(
            rng.standard_normal((4, 2)),
            rng.standard_normal((5, 2)),
            rng.standard_normal((6, 2)),
        )
        # common seed isolates the sigma dependence from sampling noise
        est1 = monte_carlo_sensitivity(m, sigma=1e-4, n_samples=500, seed=11)
        est2 = monte_carlo_sensitivity(m, sigma=2e-4, n_samples=500, seed=11)
        assert abs(est2 - est1) / est1 < 0.01

    def test_symbolic_rank1(self):
        # for a unit rank-1 2x2x2 model the limit is I+J+K = 6
        e = np.array([[1.0], [0.0]])
        m = CPModel(e, e, e)
        est = monte_carlo_sensitivity(m, sigma=1e-4, n_samples=4000, seed=12)
        assert est == pytest.approx(6.0, rel=0.05)


class TestBalance:
    def test_grid_oracle_rank1(self):
        # brute-force grid over the two free scale parameters of a rank-1
        # component; the closed-form balanced value must match the grid min
        rng = np.random.default_rng(13)
        dims = (3, 5, 7)
        vecs = [rng.standard_normal(n) for n in dims]
        vecs = [(v / np.linalg.norm(v))[:, None] for v in vecs]
        p = 4.0
        i, j, k = dims
        best = np.inf
        for s in np.geomspace(0.05, 50, 160):
            for t in np.geomspace(0.05, 50, 160):
                u = p / (s * t)
                best = min(best, k * s**2 * t**2 + i * t**2 * u**2 + j * s**2 * u**2)
        m = CPModel(vecs[0] * p, vecs[1], vecs[2])
        bal = balance_components(m)
        assert sensitivity(bal) <= best * (1 + 1e-3)
        assert sensitivity(bal) == pytest.approx(
            3 * np.cbrt(i * j * k * p**4), rel=1e-12
        )
        assert np.max(np.abs(bal.to_tensor() - m.to_tensor())) < 1e-12

    def test_never_increases(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            m = CPModel(
                5 * rng.standard_normal((4, 2)),
                rng.standard_normal((5, 2)) / 3,
                rng.standard_normal((6, 2)),
            )
            assert sensitivity(balance_components(m)) <= sensitivity(m) + 1e-10
