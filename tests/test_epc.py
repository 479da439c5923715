from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import (
    degenerate_pair,
    random_cp_tensor,
    unfold,
    well_posed_cp_problems,
)
from convfactor import (
    CPModel,
    cpd,
    cpd_als,
    epc,
    epc_correct,
    sensitivity,
)
from convfactor.cpd import balance_components
from convfactor.epc import spherical_qp
from convfactor.errors import InfeasibleBoundError
from convfactor.tensorops import khatri_rao


def reference_epc(tensor, model, delta, sweeps, momentum=True):
    """EPC on materialized Khatri-Rao matrices through the public
    ``spherical_qp(y, zt, delta)`` adapter (oracle for the Gram-form path).

    Computes at most `sweeps` sweeps, rejected ones included, and stops as
    ``epc_correct`` does.  With `momentum`, a sweep starts from B + beta (B -
    B_old) and C + beta (C - C_old), B_old and C_old those of the accepted
    point before, with beta = (k - 1) / (k + 2) over the k points accepted
    since the last restart.  A sweep with beta > 0 is kept only if it lowers
    the sensitivity; otherwise k restarts at 1, so that a plain sweep
    follows.  A plain sweep that raises the sensitivity ends the run.
    Returns the model and the numbers of sweeps accepted and computed.
    """
    m = balance_components(model)
    i, j, k = tensor.shape
    units = [unfold(tensor, mode) for mode in range(3)]

    def update(y, f1, f2, dim1, dim2):
        # weighted objective ||X diag(w)||^2 as a plain min-norm problem
        w = np.sqrt(dim2 * np.sum(f1**2, axis=0) + dim1 * np.sum(f2**2, axis=0))
        x, _ = spherical_qp(y, khatri_rao(f2, f1) / w, delta)
        return x / w

    def sweep(b, c):
        a = update(units[0], b, c, j, k)
        b = update(units[1], a, c, i, k)
        c = update(units[2], a, b, i, j)
        new = balance_components(CPModel(a, b, c))
        return new, sensitivity(new)

    old, ss = m, sensitivity(m)
    accepted = computed = 0
    n_points = 1
    while computed < sweeps:
        computed += 1
        beta = (n_points - 1) / (n_points + 2) if momentum else 0.0
        if beta > 0:
            try:
                new, new_ss = sweep(m.B + beta * (m.B - old.B), m.C + beta * (m.C - old.C))
            except InfeasibleBoundError:
                new_ss = np.inf
            if not new_ss < ss:
                n_points = 1
                continue
        else:
            new, new_ss = sweep(m.B, m.C)
            if new_ss > ss:
                break
        old, m = m, new
        accepted += 1
        n_points += 1
        if ss <= 0 or abs(ss - new_ss) <= epc._SS_TOL * max(ss, 1e-300):
            break
        ss = new_ss
    return m, accepted, computed


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

    def test_nan_bound_rejected(self):
        y, zt, _ = qp_instance(0)
        with pytest.raises(ValueError, match="delta"):
            spherical_qp(y, zt, float("nan"))

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

    @pytest.mark.parametrize("gap", [1.00002e-10, 1e-9, 1e-7])
    def test_bound_holds_near_the_least_squares_residual(self, gap):
        # the least-squares residual is 1 (the first entry of y is out of
        # reach); the first gap lies just outside the exact-fit test, where
        # the aim, delta^2 less tolerance and roundoff, falls below it
        y = np.array([[1.0, 1e-3]])
        zt = np.array([[0.0], [1.0]])
        delta2 = 1.0 + gap
        x, _ = spherical_qp(y, zt, np.sqrt(delta2))
        assert np.sum((y - x @ zt.T) ** 2) <= delta2

    @pytest.mark.parametrize("draw, budget", [("test_04", 10), ("near_ls", 6)])
    def test_step_budget(self, monkeypatch, draw, budget):
        # test_04's instances with Zt columns scaled across 1e-4 to 1.  Its
        # draw of delta^2, 0.2-0.95 of the way from the least-squares residual
        # to ||Y||^2, needs up to 10 evaluations, as plain Newton on the
        # residual did; 1e-6-1e-2 of the way, the regime of EPC's updates,
        # needs up to 4 where plain Newton needed 21.
        monkeypatch.setattr(epc, "_QP_MAX_ITERS", budget)
        eps = np.finfo(np.float64).eps
        for seed in range(200):
            rng = np.random.default_rng(4000 + seed)
            rows = int(rng.integers(3, 8))
            cols = int(rng.integers(6, 15))
            rank = int(rng.integers(2, min(6, cols)))
            y = rng.standard_normal((rows, cols))
            zt = rng.standard_normal((cols, rank)) * 10.0 ** rng.uniform(-4, 0, rank)
            ls_res2 = np.sum((y - y @ zt @ np.linalg.pinv(zt.T @ zt) @ zt.T) ** 2)
            frac = rng.uniform(0.2, 0.95) if draw == "test_04" else 10 ** rng.uniform(-6, -2)
            delta2 = frac * np.sum(y**2) + (1 - frac) * ls_res2
            x, _ = spherical_qp(y, zt, np.sqrt(delta2))
            res = np.sum((y - x @ zt.T) ** 2)
            # the solver evaluates the residual in the eigenbasis of Zt'Zt,
            # where eigh's roundoff moves it by about
            # eps (||Y||^2 + e_max ||X||^2): 3e-10 of delta^2 at cond 1e8
            slack = 16 * eps * (np.sum(y**2) + np.linalg.norm(zt, 2) ** 2 * np.sum(x**2))
            assert delta2 * (1 - 3 * epc._QP_TOL) - slack <= res <= delta2 + slack


def weighted_update(k1, z, w, delta):
    """The bounded factor update ``epc_correct`` runs, on dense inputs."""
    return epc._factor_update(k1 @ z, z.T @ z, w**2, float(np.sum(k1**2)), delta)


class TestFactorUpdateBounded:
    def test_scalar(self):
        a = weighted_update(
            np.array([[2.0]]), np.array([[1.0]]), np.array([1.0]), 1.0
        )
        assert a[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_origin_when_bound_vacuous(self):
        rng = np.random.default_rng(4)
        k1 = rng.standard_normal((3, 8))
        z = rng.standard_normal((8, 2))
        a = weighted_update(k1, z, np.array([1.0, 2.0]), np.linalg.norm(k1) + 1)
        assert np.all(a == 0)

    def test_kkt_with_weights(self):
        rng = np.random.default_rng(5)
        k1 = rng.standard_normal((6, 12))
        z = rng.standard_normal((12, 4))
        w = np.ones(4)
        ls_res = np.linalg.norm(k1 - k1 @ z @ np.linalg.pinv(z.T @ z) @ z.T)
        delta = np.sqrt(0.5 * (ls_res**2 + np.sum(k1**2)))
        a = weighted_update(k1, z, w, delta)
        assert np.sum((k1 - a @ z.T) ** 2) == pytest.approx(delta**2, rel=1e-8)

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
        a_ours = weighted_update(k1, z, w, np.sqrt(delta2))
        assert np.max(np.abs(a_direct - a_ours)) < 1e-8


class TestEpcCorrect:
    def test_exact_input_delta_zero(self):
        rng = np.random.default_rng(7)
        t, (a, b, c) = random_cp_tensor(rng, (4, 5, 6), 2)
        unbalanced = CPModel(a * 50, b / 50, c)  # same reconstruction
        ss_in = sensitivity(unbalanced)
        out, trace = epc_correct(t, unbalanced, delta=0.0)
        assert np.linalg.norm(t - out.to_tensor()) <= 1e-8 * np.linalg.norm(t)
        assert sensitivity(out) < ss_in  # strictly better for unbalanced input
        assert all(rec["error"] <= 1e-8 * np.linalg.norm(t) for rec in trace)

    def test_degenerate_pair_corrected(self):
        rng = np.random.default_rng(8)
        t, model = degenerate_pair(rng, (4, 5, 6))
        err0 = np.linalg.norm(t - model.to_tensor())
        ss0 = sensitivity(model)
        out, trace = epc_correct(t, model, delta=err0)
        assert sensitivity(out) <= ss0 / 10
        assert np.linalg.norm(t - out.to_tensor()) <= err0 + 1e-8 * np.linalg.norm(t)
        ss_seq = [rec["ss"] for rec in trace]
        assert all(ss_seq[i + 1] <= ss_seq[i] + 1e-10 for i in range(len(ss_seq) - 1))

    def test_vacuous_bound_collapses_model(self):
        rng = np.random.default_rng(9)
        t, model = degenerate_pair(rng, (4, 5, 6))
        out, _ = epc_correct(t, model, delta=np.linalg.norm(t) * 1.1)
        assert sensitivity(out) <= sensitivity(model)

    def test_default_delta_preserves_error(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((4, 5, 6))
        fit = cpd_als(t, 2)
        out, _ = epc_correct(t, fit.model)
        err = np.linalg.norm(t - out.to_tensor())
        assert err <= fit.rel_error * np.linalg.norm(t) * (1 + 1e-8) + 1e-12

    @pytest.mark.parametrize("seed", [0, 2, 3, 7])
    def test_error_preserving_after_converged_als_is_a_no_op(self, seed):
        # an ALS sweep leaves each factor at its least-squares optimum, so at
        # delta = the ALS error that point is all the bound admits
        rng = np.random.default_rng(seed)
        t, _ = random_cp_tensor(rng, (4, 5, 6), 3)
        t += 0.05 * np.linalg.norm(t) * rng.standard_normal(t.shape) / np.sqrt(t.size)
        fit = cpd_als(t, 3, seed=seed)
        assert fit.stop == "tol"
        out, _ = epc_correct(t, fit.model)
        ss = sensitivity(fit.model)
        assert abs(sensitivity(out) - ss) <= 1e-6 * ss

    def test_infeasible_bound_identifies_factor(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((4, 5, 6))
        fit = cpd_als(t, 2)
        with pytest.raises(InfeasibleBoundError) as e:
            epc_correct(t, fit.model, delta=fit.rel_error * np.linalg.norm(t) * 0.2)
        assert e.value.factor == "A"
        assert e.value.min_residual is not None

    def test_all_zero_model(self):
        # no live component: the update can only return zeros, which the
        # bound admits only when it covers the whole tensor
        t = np.random.default_rng(3).standard_normal((3, 4, 5))
        zero = CPModel(*(np.zeros((n, 2)) for n in t.shape))
        norm_t = np.linalg.norm(t)
        with pytest.raises(InfeasibleBoundError) as e:
            epc_correct(t, zero, delta=0.5 * norm_t)
        assert e.value.factor == "A"
        out, _ = epc_correct(t, zero, delta=1.01 * norm_t)
        assert not any(np.any(f) for f in (out.A, out.B, out.C))

    @pytest.mark.parametrize("seed", [5, 22])
    def test_sweep_raising_sensitivity_rejected(self, seed):
        # at a converged ALS fit the error-preserving bound leaves no room:
        # the sweeps only trade the solver's margin at the bound for a higher
        # sensitivity, so the balanced start is kept
        t = np.random.default_rng(seed).standard_normal((4, 3, 3))
        fit = cpd_als(t, 3, seed=0)
        out, trace = epc_correct(t, fit.model)
        ss_seq = [rec["ss"] for rec in trace]
        assert all(b <= a for a, b in zip(ss_seq, ss_seq[1:]))
        assert sensitivity(out) <= ss_seq[0]
        assert np.linalg.norm(t - out.to_tensor()) <= trace[0]["error"] * (1 + 1e-12)

    def test_shape_mismatch_error(self):
        model = CPModel(np.zeros((4, 1)), np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            epc_correct(np.zeros((3, 3, 3)), model)
        with pytest.raises(ValueError, match="order-3"):
            epc_correct(np.zeros((3, 3)), model)

    @pytest.mark.parametrize("delta", [-1.0, np.nan])
    def test_invalid_delta_rejected(self, delta):
        model = CPModel(np.ones((2, 1)), np.ones((3, 1)), np.ones((4, 1)))
        with pytest.raises(ValueError, match="delta"):
            epc_correct(model.to_tensor(), model, delta=delta)


class TestGramPathMatchesAdapter:
    # at 6 sweeps the (4, 5, 6) case rejects its fourth sweep and restarts
    @pytest.mark.parametrize("dims, rank, sweeps", [((4, 5, 6), 2, 1), ((9, 8, 7), 3, 4),
                                                    ((1, 6, 5), 3, 2), ((4, 5, 6), 2, 6)])
    def test_factor_updates(self, monkeypatch, dims, rank, sweeps):
        rng = np.random.default_rng(40 + rank)
        t, _ = random_cp_tensor(rng, dims, rank)
        t = t + 0.1 * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
        monkeypatch.setattr(cpd, "_MAX_SWEEPS", 5)
        model = cpd_als(t, rank).model
        delta = 1.2 * np.linalg.norm(t - model.to_tensor())
        monkeypatch.setattr(epc, "_MAX_SWEEPS", sweeps)
        monkeypatch.setattr(epc, "_SS_TOL", 1e-300)
        out, trace = epc_correct(t, model, delta=delta)
        ref, accepted, _ = reference_epc(t, model, delta, sweeps)
        assert len(trace) == accepted + 1
        for got, want in ((out.A, ref.A), (out.B, ref.B), (out.C, ref.C)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        # the recorded errors are those of the models
        assert trace[-1]["error"] == pytest.approx(
            np.linalg.norm(t - out.to_tensor()), rel=1e-10)

    @pytest.mark.parametrize("perturb", [1e-3, 1e-5])
    def test_recorded_error_near_exact_fit(self, monkeypatch, perturb):
        # at these errors the Gram form has lost digits to cancellation;
        # the recorded error must still be the model's own
        rng = np.random.default_rng(43)
        t, (a, b, c) = random_cp_tensor(rng, (4, 5, 6), 2)
        model = CPModel(*(f * (1 + perturb * rng.standard_normal(f.shape))
                          for f in (a, b, c)))
        monkeypatch.setattr(epc, "_MAX_SWEEPS", 1)
        out, trace = epc_correct(t, model)
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
    with mock.patch.object(cpd, "_MAX_SWEEPS", 50):
        model = cpd_als(t, rank, seed=seed).model
    err0 = np.linalg.norm(t - model.to_tensor())
    delta = loosen * max(err0, 1e-6 * np.linalg.norm(t))
    with mock.patch.object(epc, "_MAX_SWEEPS", 30):
        out, trace = epc_correct(t, model, delta=delta)
    assert all(rec["error"] <= delta * (1 + 1e-9) for rec in trace)
    assert np.linalg.norm(t - out.to_tensor()) <= delta * (1 + 1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    problem=well_posed_cp_problems(),
    noise=st.sampled_from([0.0, 1e-3, 0.1]),
    loosen=st.floats(1.01, 2.0),
    seed=st.integers(0, 2**16),
)
def test_epc_bound_holds_exactly_off_the_exact_fit_limit(problem, noise, loosen, seed):
    # a ball wider than the error of the ALS fit leaves each update room
    # beyond the solver's tolerance, so the bound holds with no slack
    dims, rank = problem
    rng = np.random.default_rng(seed)
    t, _ = random_cp_tensor(rng, dims, rank)
    t = t + noise * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
    with mock.patch.object(cpd, "_MAX_SWEEPS", 50):
        model = cpd_als(t, rank, seed=seed).model
    err0 = np.linalg.norm(t - model.to_tensor())
    delta = loosen * max(err0, 1e-6 * np.linalg.norm(t))
    with mock.patch.object(epc, "_MAX_SWEEPS", 30):
        out, trace = epc_correct(t, model, delta=delta)
    assert all(rec["error"] <= delta for rec in trace)
    assert np.linalg.norm(t - out.to_tensor()) <= delta


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    problem=well_posed_cp_problems(),
    noise=st.sampled_from([0.0, 1e-3, 0.1]),
    loosen=st.floats(1.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_epc_ends_near_plain_sweeps(problem, noise, loosen, seed):
    # against plain sweeps run to their own stop.  EPC is not convex, so this
    # is not a theorem: in 1 of 1,000 random draws of this family the
    # momentum path settled 3% higher, at another stationary point
    dims, rank = problem
    rng = np.random.default_rng(seed)
    t, _ = random_cp_tensor(rng, dims, rank)
    t = t + noise * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
    with mock.patch.object(cpd, "_MAX_SWEEPS", 50):
        model = cpd_als(t, rank, seed=seed).model
    delta = loosen * max(np.linalg.norm(t - model.to_tensor()), 1e-6 * np.linalg.norm(t))
    out, trace = epc_correct(t, model, delta=delta)
    plain, _, _ = reference_epc(t, model, delta, epc._MAX_SWEEPS, momentum=False)
    assert sensitivity(out) <= sensitivity(plain) * (1 + 1e-3)
    assert np.linalg.norm(t - out.to_tensor()) <= delta * (1 + 1e-9)
    ss_seq = [rec["ss"] for rec in trace]
    assert all(b <= a for a, b in zip(ss_seq, ss_seq[1:]))


def cancelling_pair(seed, eps, dims=(4, 5, 6), noise=0.01):
    """Tensor and model with two components of size 1/eps that cancel:
    A = [x, -x]/eps, B = [b, b + eps n], C = [c, c + eps n'] (Phan,
    Tichavsky & Cichocki, IEEE TSP 2019), plus `noise` relative noise."""
    rng = np.random.default_rng(seed)
    x, b, c = (rng.standard_normal(d) for d in dims)
    n_b, n_c = rng.standard_normal(dims[1]), rng.standard_normal(dims[2])
    model = CPModel(np.stack([x, -x], axis=1) / eps, np.stack([b, b + eps * n_b], axis=1),
                    np.stack([c, c + eps * n_c], axis=1))
    clean = model.to_tensor()
    bump = rng.standard_normal(dims)
    return clean + noise * np.linalg.norm(clean) * bump / np.linalg.norm(bump), model


@pytest.mark.parametrize("seed", range(5))
def test_error_preserving_epc_repairs_a_cancelling_pair(seed):
    # plain sweeps crawl along the bound here: at the 100-sweep cap they had
    # cut the sensitivity 5-20x from the balanced start
    t, model = cancelling_pair(seed, 1e-4)
    err0 = np.linalg.norm(t - model.to_tensor())
    out, trace = epc_correct(t, model)
    assert trace[-1]["ss"] <= trace[0]["ss"] / 1e3
    assert np.linalg.norm(t - out.to_tensor()) <= err0


def test_epc_computes_fewer_sweeps_than_plain_sweeps(monkeypatch):
    # 9 x 24 x 24 kernels of decaying CP rank 12 plus 5% noise, fitted at
    # rank 8 and corrected within 10%, like the cpd-epc benchmark job; one
    # cp_sweep per sweep computed, extrapolated or plain, kept or not
    calls = []
    cp_sweep = epc.cp_sweep
    monkeypatch.setattr(epc, "cp_sweep",
                        lambda *args: calls.append(None) or cp_sweep(*args))
    computed = plain_computed = 0
    traces = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal((n, 12)) for n in (9, 24, 24))
        t = np.einsum("ir,jr,kr->ijk", a * 0.7 ** np.arange(12), b, c)
        t += 0.05 * np.linalg.norm(t) * rng.standard_normal(t.shape) / np.sqrt(t.size)
        delta = 0.1 * np.linalg.norm(t)
        model = cpd_als(t, 8, seed=seed, delta=delta).model
        calls.clear()
        _, trace = epc_correct(t, model, delta=delta)
        computed += len(calls)
        traces.append(trace)
        plain_computed += reference_epc(t, model, delta, epc._MAX_SWEEPS, momentum=False)[2]
    assert computed <= 0.8 * plain_computed
    # the trace counts every sweep but those after its last record: at most
    # a discarded extrapolation and the plain sweep that ended the run
    recorded = sum(1 + rec["rejected"] for trace in traces for rec in trace[1:])
    assert computed - 2 * len(traces) <= recorded <= computed


def with_dead_columns(f, dead):
    """`f` with all-zero columns inserted so that they land at `dead`."""
    out = np.zeros((f.shape[0], f.shape[1] + len(dead)))
    out[:, np.setdiff1d(np.arange(out.shape[1]), dead)] = f
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_live=st.integers(1, 4),
    n_dead=st.integers(1, 3),
    rows=st.integers(1, 6),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_factor_update_returns_dead_components_as_exact_zeros(
        n_live, n_dead, rows, share, seed):
    # a dead component is zero in both fixed factors: a zero column of K1 Z,
    # a zero row and column of Z'Z and a zero weight.  eigh roundoff alone
    # leaves it nonzero in about a third of these draws
    rng = np.random.default_rng(seed)
    dead = np.sort(rng.choice(n_live + n_dead, n_dead, replace=False))
    k1 = rng.standard_normal((rows, 12))
    z = rng.standard_normal((12, n_live))
    w = rng.uniform(0.5, 2.0, n_live)
    ls_res2 = np.sum((k1 - k1 @ z @ np.linalg.pinv(z.T @ z) @ z.T) ** 2)
    delta = np.sqrt(share * ls_res2 + (1 - share) * np.sum(k1**2))
    live = weighted_update(k1, z, w, delta)
    got = weighted_update(k1, with_dead_columns(z, dead),
                          with_dead_columns(w[None], dead)[0], delta)
    assert np.all(got[:, dead] == 0)
    kept = np.delete(got, dead, axis=1)
    assert np.max(np.abs(kept - live)) <= 1e-12 * max(np.max(np.abs(live)), 1e-300)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    problem=well_posed_cp_problems(),
    n_dead=st.integers(1, 3),
    noise=st.sampled_from([0.0, 1e-3, 0.1]),
    loosen=st.floats(1.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_epc_keeps_dead_components_exact_zeros(problem, n_dead, noise, loosen, seed):
    # through a whole correction a dead component stays dead, and the live
    # ones follow the correction of the model without it
    dims, rank = problem
    rng = np.random.default_rng(seed)
    t, _ = random_cp_tensor(rng, dims, rank)
    t = t + noise * np.linalg.norm(t) * rng.standard_normal(dims) / np.sqrt(t.size)
    with mock.patch.object(cpd, "_MAX_SWEEPS", 50):
        model = cpd_als(t, rank, seed=seed).model
    delta = loosen * max(np.linalg.norm(t - model.to_tensor()), 1e-6 * np.linalg.norm(t))
    dead = np.sort(rng.choice(rank + n_dead, n_dead, replace=False))
    padded = CPModel(*(with_dead_columns(f, dead) for f in (model.A, model.B, model.C)))
    with mock.patch.object(epc, "_MAX_SWEEPS", 30):
        want, _ = epc_correct(t, model, delta=delta)
        out, _ = epc_correct(t, padded, delta=delta)
    for f, g in ((out.A, want.A), (out.B, want.B), (out.C, want.C)):
        assert np.all(f[:, dead] == 0)
        # roundoff of the wider Grams, compounded over the sweeps
        assert np.max(np.abs(np.delete(f, dead, axis=1) - g)) <= 1e-9 * np.max(np.abs(g))


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
