import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import degenerate_pair, random_cp_tensor, well_posed_cp_problems
from convfactor import (
    AlsOptions,
    CPModel,
    EpcOptions,
    InfeasibleBoundError,
    balance_components,
    cpd_als,
    epc_correct,
    factor_update_bounded,
    khatri_rao,
    sensitivity,
    spherical_qp,
    unfold,
)


def reference_epc(tensor, model, delta, sweeps):
    """EPC sweeps on materialized Khatri-Rao matrices through the public
    ``spherical_qp(y, zt, delta)`` adapter (oracle for the Gram-form path)."""
    m = balance_components(model)
    a, b, c = m.A, m.B, m.C
    i, j, k = tensor.shape
    units = [unfold(tensor, mode) for mode in range(3)]

    def update(y, f1, f2, dim1, dim2):
        # weighted objective ||X diag(w)||^2 as a plain min-norm problem
        w = np.sqrt(dim2 * np.sum(f1**2, axis=0) + dim1 * np.sum(f2**2, axis=0))
        x, _ = spherical_qp(y, khatri_rao(f2, f1) / w, delta)
        return x / w

    for _ in range(sweeps):
        a = update(units[0], b, c, j, k)
        b = update(units[1], a, c, i, k)
        c = update(units[2], a, b, i, j)
        m = balance_components(CPModel(a, b, c))
        a, b, c = m.A, m.B, m.C
    return m


def qp_instance(seed, shape_y=(6, 12), rank=4):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(shape_y)
    zt = rng.standard_normal((shape_y[1], rank))
    ls_res = np.linalg.norm(y - y @ zt @ np.linalg.pinv(zt.T @ zt) @ zt.T)
    return y, zt, ls_res


class TestSphericalQp:
    def test_origin_feasible(self):
        y, zt, _ = qp_instance(0)
        x, mu = spherical_qp(y, zt, np.linalg.norm(y) * 1.5)
        assert mu == 0.0
        assert np.all(x == 0)

    def test_scalar_geometry(self):
        x, mu = spherical_qp(np.array([[2.0]]), np.array([[1.0]]), 1.0)
        assert x[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert mu == pytest.approx(1.0, rel=1e-8)

    def test_orthonormal_interpolation(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        y = rng.standard_normal((4, 3)) @ q.T  # rows in range(q)
        x, mu = spherical_qp(y, q, 0.0)
        assert mu == np.inf
        assert np.max(np.abs(x - y @ q)) < 1e-10

    def test_residual_strictly_decreasing(self):
        y, zt, _ = qp_instance(2)
        gram = zt.T @ zt
        lam, q = np.linalg.eigh(gram)
        p = y @ zt @ q
        s = np.sum(p**2, axis=0)

        def residual(mu):
            num = s * (2 * mu + mu**2 * lam)
            return np.sum(y**2) - np.sum(num / (1 + mu * lam) ** 2)

        mus = np.geomspace(1e-4, 1e4, 10)
        vals = [residual(m) for m in mus]
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    @pytest.mark.parametrize("seed", range(8))
    def test_kkt(self, seed):
        y, zt, ls_res = qp_instance(seed)
        delta = np.sqrt(0.3 * ls_res**2 + 0.7 * np.sum(y**2))
        x, mu = spherical_qp(y, zt, delta)
        # stationarity
        lhs = x @ (np.eye(zt.shape[1]) + mu * zt.T @ zt)
        rhs = mu * y @ zt
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, np.max(np.abs(rhs)))
        # complementarity: active constraint
        res = np.sum((y - x @ zt.T) ** 2)
        assert res == pytest.approx(delta**2, rel=1e-8)

    def test_infeasible(self):
        y, zt, ls_res = qp_instance(3)
        with pytest.raises(InfeasibleBoundError) as e:
            spherical_qp(y, zt, ls_res * 0.5)
        assert e.value.min_residual > e.value.bound

    def test_zero_regressor(self):
        y = np.ones((2, 3))
        zt = np.zeros((3, 2))
        x, mu = spherical_qp(y, zt, np.linalg.norm(y))
        assert mu == 0.0 and np.all(x == 0)
        with pytest.raises(InfeasibleBoundError):
            spherical_qp(y, zt, 0.5 * np.linalg.norm(y))


class TestFactorUpdateBounded:
    def test_scalar(self):
        a = factor_update_bounded(
            np.array([[2.0]]), np.array([[1.0]]), np.array([1.0]), 1.0
        )
        assert a[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_origin_when_bound_vacuous(self):
        rng = np.random.default_rng(4)
        k1 = rng.standard_normal((3, 8))
        z = rng.standard_normal((8, 2))
        a = factor_update_bounded(k1, z, np.array([1.0, 2.0]), np.linalg.norm(k1) + 1)
        assert np.all(a == 0)

    def test_kkt_with_weights(self):
        rng = np.random.default_rng(5)
        k1 = rng.standard_normal((6, 12))
        z = rng.standard_normal((12, 4))
        w = np.ones(4)
        ls_res = np.linalg.norm(k1 - k1 @ z @ np.linalg.pinv(z.T @ z) @ z.T)
        delta = np.sqrt(0.5 * (ls_res**2 + np.sum(k1**2)))
        a = factor_update_bounded(k1, z, w, delta)
        assert np.sum((k1 - a @ z.T) ** 2) == pytest.approx(delta**2, rel=1e-8)

    def test_nonpositive_weight_error(self):
        with pytest.raises(ValueError):
            factor_update_bounded(
                np.ones((2, 2)), np.ones((2, 2)), np.array([1.0, 0.0]), 1.0
            )

    def test_matches_direct_weighted_formulation(self):
        # independent route: solve min ||A diag(w)||^2 s.t. residual <= delta^2
        # through its own stationarity A(mu) = mu K1 Z (diag(w^2) + mu Z'Z)^-1
        # with brentq on the residual, and compare
        rng = np.random.default_rng(6)
        k1 = rng.standard_normal((5, 12))
        z = rng.standard_normal((12, 3))
        w = rng.uniform(0.5, 2.0, 3)
        ls_res2 = np.sum(
            (k1 - k1 @ z @ np.linalg.pinv(z.T @ z) @ z.T) ** 2
        )
        delta2 = 0.4 * ls_res2 + 0.6 * np.sum(k1**2)

        def a_of(mu):
            return mu * k1 @ z @ np.linalg.inv(np.diag(w**2) + mu * z.T @ z)

        def gap(mu):
            return np.sum((k1 - a_of(mu) @ z.T) ** 2) - delta2

        mu_star = brentq(gap, 1e-12, 1e12, xtol=1e-14, rtol=1e-15)
        a_direct = a_of(mu_star)
        a_ours = factor_update_bounded(k1, z, w, np.sqrt(delta2))
        assert np.max(np.abs(a_direct - a_ours)) < 1e-8


class TestEpcCorrect:
    def test_exact_input_delta_zero(self):
        rng = np.random.default_rng(7)
        t, (a, b, c) = random_cp_tensor(rng, (4, 5, 6), 2)
        unbalanced = CPModel(a * 50, b / 50, c)  # same reconstruction
        ss_in = sensitivity(unbalanced)
        out, trace = epc_correct(t, unbalanced, EpcOptions(delta=0.0))
        assert np.linalg.norm(t - out.to_tensor()) <= 1e-8 * np.linalg.norm(t)
        assert sensitivity(out) < ss_in  # strictly better for unbalanced input
        assert all(rec["error"] <= 1e-8 * np.linalg.norm(t) for rec in trace)

    def test_degenerate_pair_corrected(self):
        rng = np.random.default_rng(8)
        t, model = degenerate_pair(rng, (4, 5, 6))
        err0 = np.linalg.norm(t - model.to_tensor())
        ss0 = sensitivity(model)
        out, trace = epc_correct(t, model, EpcOptions(delta=err0))
        assert sensitivity(out) <= ss0 / 10
        assert np.linalg.norm(t - out.to_tensor()) <= err0 + 1e-8 * np.linalg.norm(t)
        ss_seq = [rec["ss"] for rec in trace]
        assert all(ss_seq[i + 1] <= ss_seq[i] + 1e-10 for i in range(len(ss_seq) - 1))

    def test_vacuous_bound_collapses_model(self):
        rng = np.random.default_rng(9)
        t, model = degenerate_pair(rng, (4, 5, 6))
        out, _ = epc_correct(t, model, EpcOptions(delta=np.linalg.norm(t) * 1.1))
        assert sensitivity(out) <= sensitivity(model)

    def test_default_delta_preserves_error(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((4, 5, 6))
        from convfactor import AlsOptions, cpd_als

        model, rel = cpd_als(t, 2, AlsOptions(max_iters=200))
        out, _ = epc_correct(t, model, EpcOptions())
        err = np.linalg.norm(t - out.to_tensor())
        assert err <= rel * np.linalg.norm(t) * (1 + 1e-8) + 1e-12

    def test_infeasible_bound_identifies_factor(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((4, 5, 6))
        from convfactor import AlsOptions, cpd_als

        model, rel = cpd_als(t, 2, AlsOptions(max_iters=300))
        with pytest.raises(InfeasibleBoundError) as e:
            epc_correct(t, model, EpcOptions(delta=rel * np.linalg.norm(t) * 0.2))
        assert e.value.factor == "A"
        assert e.value.min_residual is not None

    def test_unweighted_diag_variant(self):
        # on cubic tensors the plain diagonal is proportional to the
        # dimension-weighted one, so the updates coincide; either way the
        # bound must hold
        rng = np.random.default_rng(12)
        t, model = degenerate_pair(rng, (5, 5, 5))
        err0 = np.linalg.norm(t - model.to_tensor())
        exact, _ = epc_correct(t, model, EpcOptions(delta=err0))
        compat, _ = epc_correct(t, model, EpcOptions(delta=err0, unweighted_diag=True))
        assert np.max(np.abs(exact.A - compat.A)) < 1e-8
        rng = np.random.default_rng(13)
        t2, model2 = degenerate_pair(rng, (4, 6, 9))
        err0 = np.linalg.norm(t2 - model2.to_tensor())
        out, _ = epc_correct(t2, model2, EpcOptions(delta=err0, unweighted_diag=True))
        assert np.linalg.norm(t2 - out.to_tensor()) <= err0 + 1e-8 * np.linalg.norm(t2)
        assert sensitivity(out) <= sensitivity(model2) / 10

    def test_shape_mismatch_error(self):
        with pytest.raises(ValueError):
            epc_correct(
                np.zeros((3, 3, 3)),
                CPModel(np.zeros((4, 1)), np.zeros((3, 1)), np.zeros((3, 1))),
            )

    @pytest.mark.parametrize("delta", [-1.0, np.nan])
    def test_invalid_delta_rejected(self, delta):
        with pytest.raises(ValueError):
            EpcOptions(delta=delta)


class TestGramPathMatchesAdapter:
    @pytest.mark.parametrize("dims, rank, sweeps", [((4, 5, 6), 2, 1), ((9, 8, 7), 3, 4),
                                                    ((1, 6, 5), 3, 2)])
    def test_factor_updates(self, dims, rank, sweeps):
        rng = np.random.default_rng(40 + rank)
        t, _ = random_cp_tensor(rng, dims, rank)
        t = t + 0.1 * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
        model = cpd_als(t, rank, AlsOptions(max_iters=5)).model
        delta = 1.2 * np.linalg.norm(t - model.to_tensor())
        out, trace = epc_correct(t, model, EpcOptions(delta=delta, max_sweeps=sweeps,
                                                      ss_tol=1e-300))
        ref = reference_epc(t, model, delta, sweeps)
        assert len(trace) == sweeps + 1
        for got, want in ((out.A, ref.A), (out.B, ref.B), (out.C, ref.C)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        # the recorded errors are those of the models
        assert trace[-1]["error"] == pytest.approx(
            np.linalg.norm(t - out.to_tensor()), rel=1e-10)

    @pytest.mark.parametrize("perturb", [1e-3, 1e-5])
    def test_recorded_error_near_exact_fit(self, perturb):
        # at these errors the Gram form has lost digits to cancellation;
        # the recorded error must still be the model's own
        rng = np.random.default_rng(43)
        t, (a, b, c) = random_cp_tensor(rng, (4, 5, 6), 2)
        model = CPModel(*(f * (1 + perturb * rng.standard_normal(f.shape))
                          for f in (a, b, c)))
        out, trace = epc_correct(t, model, EpcOptions(max_sweeps=1))
        dense = np.linalg.norm(t - out.to_tensor())
        assert trace[1]["error"] == pytest.approx(dense, rel=1e-10)
        assert trace[1]["error"] <= trace[0]["error"] * (1 + 1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    problem=well_posed_cp_problems(),
    noise=st.sampled_from([0.0, 1e-3, 0.1]),
    loosen=st.floats(1.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_epc_bound_holds_every_sweep(problem, noise, loosen, seed):
    # noise 0 and 1e-3 put the error where the Gram form cancels and the
    # dense fallback must decide
    dims, rank = problem
    rng = np.random.default_rng(seed)
    t, _ = random_cp_tensor(rng, dims, rank)
    t = t + noise * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
    model = cpd_als(t, rank, AlsOptions(max_iters=50, seed=seed)).model
    err0 = np.linalg.norm(t - model.to_tensor())
    delta = loosen * max(err0, 1e-6 * np.linalg.norm(t))
    out, trace = epc_correct(t, model, EpcOptions(delta=delta, max_sweeps=30))
    assert all(rec["error"] <= delta * (1 + 1e-9) for rec in trace)
    assert np.linalg.norm(t - out.to_tensor()) <= delta * (1 + 1e-9)


class TestEqIdentity:
    def test_weighted_trace_equals_scaled_norm(self):
        # tr{(A'A) * W} depends only on diag(W): it equals ||A diag(w)||^2
        # with w = sqrt(diag(W)); this is what reduces the sensitivity
        # objective to a weighted regression
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((6, 3))
        c = rng.standard_normal((7, 3))
        w_full = b.T @ b + c.T @ c
        w = np.sqrt(np.diag(w_full))
        assert np.trace((a.T @ a) * w_full) == pytest.approx(
            np.sum((a * w) ** 2), rel=1e-12
        )

    def test_khatri_rao_diag_scaling_identity(self):
        # the change of variables keeps the product: A Z' == At Zt'
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 3))
        z = khatri_rao(rng.standard_normal((4, 3)), rng.standard_normal((6, 3)))
        w = rng.uniform(0.5, 2.0, 3)
        assert np.max(np.abs(a @ z.T - (a * w) @ (z / w).T)) < 1e-12
