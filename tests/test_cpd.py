import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cp_tensor, well_posed_cp_problems
from convfactor import (
    AlsOptions,
    CPModel,
    balance_components,
    cpd_als,
    intensity,
    khatri_rao,
    monte_carlo_sensitivity,
    normalize,
    sensitivity,
    unfold,
)
from convfactor.cpd import _pinv_psd, _solve_psd


def reference_als(tensor, a, b, c, sweeps, tol=0.0):
    """Textbook ALS on materialized Khatri-Rao matrices (oracle).

    Runs at most `sweeps` sweeps, stopping once the dense relative error
    changes by less than `tol`; returns the factors and the error after
    each sweep.
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


def random_init(dims, rank, seed):
    """The documented "random" init of restart 0: Gaussian factors drawn
    from ``default_rng((seed, 0))`` in mode order."""
    rng = np.random.default_rng((seed, 0))
    return [rng.standard_normal((n, rank)) for n in dims]


def dense_rel_error(tensor, model):
    return np.linalg.norm(tensor - model.to_tensor()) / np.linalg.norm(tensor)


class TestAls:
    def test_rank1_exact(self):
        rng = np.random.default_rng(0)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 1)
        res = cpd_als(t, 1, AlsOptions(max_iters=500, tol=1e-14))
        assert res.rel_error <= 1e-10

    def test_construct_then_recover_r3(self):
        rng = np.random.default_rng(1)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 3)
        res = cpd_als(t, 3, AlsOptions(max_iters=2000, tol=1e-14, restarts=5))
        assert res.rel_error <= 1e-6

    def test_zero_tensor_convention(self):
        res = cpd_als(np.zeros((3, 4, 5)), 2)
        assert res.rel_error == 0.0
        assert np.all(res.model.lam == 0.0)
        assert np.all(res.model.to_tensor() == 0.0)

    def test_per_sweep_monotone(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((5, 6, 7))
        res = cpd_als(t, 3, AlsOptions(max_iters=200, tol=1e-14))
        errs = res.rel_errors
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))

    def test_normalized_output(self):
        rng = np.random.default_rng(3)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 2)
        model, _ = cpd_als(t, 2, AlsOptions(max_iters=300))
        for f in (model.A, model.B, model.C):
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-8)
        assert np.all(np.diff(model.lam) <= 0)

    def test_svd_init(self):
        rng = np.random.default_rng(4)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 2)
        res = cpd_als(t, 2, AlsOptions(init="svd", max_iters=2000, tol=1e-14))
        assert res.rel_error <= 1e-8

    def test_mixed_init_rank_above_extents(self):
        # components can outnumber a mode extent; the svd-leading start
        # pads with random columns
        rng = np.random.default_rng(20)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 3)
        res = cpd_als(t, 8, AlsOptions(init="mixed", restarts=2, max_iters=500,
                                       tol=1e-13))
        assert res.rel_error <= 1e-8

    def test_mixed_init_avoids_overparameterized_swamp(self):
        rng = np.random.default_rng(21)
        t, _ = random_cp_tensor(rng, (10, 12, 14), 4)
        res = cpd_als(t, 8, AlsOptions(init="mixed", max_iters=1000, tol=1e-12))
        assert res.rel_error <= 1e-8

    def test_restart_selection_deterministic(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((4, 4, 4))
        r1 = cpd_als(t, 2, AlsOptions(restarts=3, max_iters=50))
        r2 = cpd_als(t, 2, AlsOptions(restarts=3, max_iters=50))
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


class TestAlsMatchesKhatriRaoReference:
    @pytest.mark.parametrize("dims, rank", [((4, 5, 6), 3), ((9, 12, 10), 5),
                                            ((1, 6, 7), 2)])
    def test_twenty_sweeps_from_same_init(self, dims, rank):
        rng = np.random.default_rng(30)
        t = rng.standard_normal(dims)
        res = cpd_als(t, rank, AlsOptions(max_iters=20, tol=1e-15, seed=7))
        (a, b, c), ref_errors = reference_als(t, *random_init(dims, rank, 7), 20)
        assert res.n_iters == 20 and not res.converged
        ref = normalize(CPModel(a, b, c))
        for got, want in ((res.model.A, ref.A), (res.model.B, ref.B),
                          (res.model.C, ref.C), (res.model.lam, ref.lam)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert np.max(np.abs(np.array(res.rel_errors) - ref_errors)) <= 1e-12

    @pytest.mark.parametrize("noise, tol", [(0.0, 1e-12), (0.0, 1e-9), (1e-3, 1e-12)])
    def test_converges_on_the_same_sweep(self, noise, tol):
        # convergence is decided on dense errors, as in the reference; the
        # exact fit drives the Gram-form error into cancellation first
        rng = np.random.default_rng(32)
        dims, rank = (4, 5, 6), 3
        t, _ = random_cp_tensor(rng, dims, rank)
        t = t + noise * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
        res = cpd_als(t, rank, AlsOptions(max_iters=3000, tol=tol, seed=3))
        _, ref_errors = reference_als(t, *random_init(dims, rank, 3), 3000, tol)
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
    def test_reported_error_is_dense(self, dims, true_rank, rank, noise, iters):
        rng = np.random.default_rng(31)
        t, _ = random_cp_tensor(rng, dims, true_rank)
        t = t + noise * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
        res = cpd_als(t, rank, AlsOptions(max_iters=iters, tol=1e-12, restarts=2))
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
    res = cpd_als(t, rank, AlsOptions(max_iters=300, tol=1e-12, seed=seed))
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


class TestIntensity:
    def test_scaled_rank1(self):
        a = np.array([[2.0], [0.0]])
        e = np.array([[1.0], [0.0]])
        assert intensity(CPModel(a, e, e)) == pytest.approx(4.0)

    def test_normalized_with_lambda(self):
        e = np.array([[1.0, 0.0], [0.0, 1.0]])
        m = CPModel(e, e, e, lam=np.array([3.0, 4.0]))
        assert intensity(m) == pytest.approx(25.0)

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


class TestNormalize:
    def test_already_normalized(self):
        e = np.eye(3)[:, :2]
        m = CPModel(e, e, e, lam=np.array([2.0, 1.0]))
        out = normalize(m)
        assert np.array_equal(out.lam, m.lam)
        assert np.array_equal(out.A, e)

    def test_scale_covariance(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal((5, 2))
        c = rng.standard_normal((6, 2))
        n1 = normalize(CPModel(a, b, c))
        n2 = normalize(CPModel(10 * a, b, c))
        assert np.allclose(n2.lam, 10 * n1.lam)
        assert np.max(np.abs(n2.to_tensor() - 10 * n1.to_tensor())) < 1e-10

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(12)
        m = CPModel(
            rng.standard_normal((4, 3)),
            rng.standard_normal((5, 3)),
            rng.standard_normal((6, 3)),
        )
        assert np.max(np.abs(normalize(m).to_tensor() - m.to_tensor())) < 1e-12

    def test_zero_column_convention(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        m = CPModel(a, a, a)
        out = normalize(m)
        assert out.lam[1] == 0.0
        assert np.allclose(np.linalg.norm(out.A, axis=0), 1.0)


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
