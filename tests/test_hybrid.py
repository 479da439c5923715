import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hybrid_structured_tensor, mode_product, random_tucker2_tensor
from convfactor import (
    CPModel,
    core_closed_form,
    cpd_als,
    epc_correct,
    sensitivity,
    tkd_cpd_epc,
    to_equivalent_cp,
    tucker2_bounded,
)
from convfactor.cpd import AlsResult
from convfactor.errors import InfeasibleBoundError
from convfactor.hybrid import HybridModel


def stage_errors(tensor, model):
    """(err_total, err_tkd, err_core) of a hybrid model, recomputed."""
    g = core_closed_form(tensor, model.U, model.V)
    tkd_recon = mode_product(mode_product(g, model.U, 1), model.V, 2)
    err_tkd = np.linalg.norm(tensor - tkd_recon)
    err_core = np.linalg.norm(g - model.core_cp.to_tensor())
    err_total = np.linalg.norm(tensor - model.to_tensor())
    return err_total, err_tkd, err_core


class TestTkdCpdEpc:
    def test_construct_then_recover(self):
        rng = np.random.default_rng(0)
        t = hybrid_structured_tensor(rng, (9, 6, 7), (2, 3), 4)
        norm = np.linalg.norm(t)
        model = tkd_cpd_epc(t, 1e-8 * norm, 4)
        assert model.ranks[:2] == (2, 3)
        assert np.linalg.norm(t - model.to_tensor()) <= 1e-6 * norm

    def test_theta_one_full_budget_to_tucker(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((4, 6, 5))
        from convfactor import tucker2_bounded

        pre = tucker2_bounded(t, 0.0, ranks=(2, 2))
        err_fix = np.linalg.norm(t - pre.to_tensor())
        # the Tucker stage eats the whole budget, so the core budget is ~0
        # and the core must be fit exactly; rank R1*R2 always suffices
        model = tkd_cpd_epc(
            t, err_fix * (1 + 1e-12), rank=4, theta=1.0, ranks=(2, 2)
        )
        err_total, err_tkd, err_core = stage_errors(t, model)
        assert err_core <= 1e-8 * np.linalg.norm(t)
        assert err_total <= err_fix * (1 + 1e-6)

    def test_exact_core_model_when_als_misses_the_core_budget(self, monkeypatch):
        # a core ALS fit outside its budget at rank >= R1*R2 falls back to
        # the exact CP of the core's mode-0 slices
        rng = np.random.default_rng(3)
        t, _ = random_tucker2_tensor(rng, (4, 6, 5), (2, 3))
        delta_total = 1e-3 * np.linalg.norm(t)
        seen = []

        def zero_fit(core, rank, seed, delta):
            seen.append(core)
            d2, r1, r2 = core.tensor.shape
            zero = CPModel(np.zeros((d2, rank)), np.zeros((r1, rank)),
                           np.zeros((r2, rank)))
            return AlsResult(zero, 1.0, [1.0])

        corrected = []

        def spy_epc(core, model, delta):
            corrected.append((core, model))
            return epc_correct(core, model, delta=delta)

        monkeypatch.setattr("convfactor.hybrid.cpd_als", zero_fit)
        monkeypatch.setattr("convfactor.hybrid.epc_correct", spy_epc)
        model = tkd_cpd_epc(t, delta_total, rank=7, ranks=(2, 3))
        assert len(seen) == 1
        core, start = corrected[0]
        assert core is seen[0] and start.rank == 7
        assert np.array_equal(start.to_tensor(), core.tensor)
        assert np.linalg.norm(t - model.to_tensor()) <= delta_total * (1 + 1e-9)

    @pytest.mark.parametrize("delta_rel", [None, 0.3])
    def test_core_fit_gets_the_core_budget(self, monkeypatch, delta_rel):
        rng = np.random.default_rng(5)
        t = hybrid_structured_tensor(rng, (4, 7, 6), (3, 3), 4, noise=0.1)
        delta_total = None if delta_rel is None else delta_rel * np.linalg.norm(t)
        deltas = []

        def spy_fit(core, rank, seed, delta):
            deltas.append(delta)
            return cpd_als(core, rank, seed=seed, delta=delta)

        monkeypatch.setattr("convfactor.hybrid.cpd_als", spy_fit)
        model = tkd_cpd_epc(t, delta_total, rank=3, ranks=(3, 3))
        if delta_total is None:
            assert deltas == [None]
        else:
            _, err_tkd, _ = stage_errors(t, model)
            assert deltas[0] == pytest.approx(np.sqrt(delta_total**2 - err_tkd**2),
                                              rel=1e-9)

    def test_infeasible_core_rank_raises(self):
        rng = np.random.default_rng(2)
        t, _ = random_tucker2_tensor(rng, (6, 8, 7), (3, 3))
        norm = np.linalg.norm(t)
        with pytest.raises(InfeasibleBoundError):
            tkd_cpd_epc(t, 1e-10 * norm, rank=1, theta=1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_pythagorean_identity(self, seed):
        rng = np.random.default_rng(100 + seed)
        t = hybrid_structured_tensor(rng, (4, 7, 6), (2, 2), 3, noise=0.08)
        norm = np.linalg.norm(t)
        model = tkd_cpd_epc(t, 0.3 * norm, rank=3, theta=0.5)
        err_total, err_tkd, err_core = stage_errors(t, model)
        assert abs(err_total**2 - err_tkd**2 - err_core**2) <= 1e-8 * norm**2
        assert err_total <= 0.3 * norm * (1 + 1e-9)

    def test_error_preserving_with_fixed_ranks(self):
        # no budget: the core's EPC keeps the error of the core's own CP fit
        rng = np.random.default_rng(5)
        t = hybrid_structured_tensor(rng, (4, 7, 6), (3, 3), 4, noise=0.1)
        model = tkd_cpd_epc(t, None, rank=3, ranks=(3, 3), seed=2)
        g = core_closed_form(t, model.U, model.V)
        fit = cpd_als(g, 3, seed=2)
        err_core = np.linalg.norm(g - model.core_cp.to_tensor())
        assert err_core <= fit.rel_error * np.linalg.norm(g) * (1 + 1e-8)
        assert sensitivity(model.core_cp) <= sensitivity(fit.model) * (1 + 1e-9)
        with pytest.raises(ValueError):
            tkd_cpd_epc(t, None, rank=3)

    def test_fixed_ranks_mode(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 8, 6))
        norm = np.linalg.norm(t)
        # rank 9 = R1*R2 keeps the exact-fit fallback available
        model = tkd_cpd_epc(t, 0.8 * norm, rank=9, ranks=(3, 3))
        assert model.ranks == (3, 3, 9)

    def test_core_sensitivity_not_worse_than_uncorrected(self):
        rng = np.random.default_rng(4)
        t = hybrid_structured_tensor(rng, (9, 8, 8), (3, 3), 5)
        norm = np.linalg.norm(t)
        model = tkd_cpd_epc(t, 0.05 * norm, rank=5)
        g = core_closed_form(t, model.U, model.V)
        raw = cpd_als(g, 5).model
        assert sensitivity(model.core_cp) <= sensitivity(raw) * (1 + 1e-9)

    @pytest.mark.parametrize("kernel, theta", [
        (np.zeros((4, 5, 6)), 0.5),
        (np.random.default_rng(6).standard_normal((4, 5, 6)), 1.0),
    ], ids=["zero-kernel", "vacuous-delta"])
    def test_vacuous_tucker_bound_solved_once(self, monkeypatch, kernel, theta):
        # a Tucker share at ||t|| keeps no rank: the stage is solved once, at
        # one rank per mode, so that the core has a CP
        calls = []

        def spy(tensor, delta, ranks=None):
            calls.append(ranks)
            return tucker2_bounded(tensor, delta, ranks=ranks)

        monkeypatch.setattr("convfactor.hybrid.tucker2_bounded", spy)
        model = tkd_cpd_epc(kernel, np.linalg.norm(kernel), rank=2, theta=theta)
        assert calls == [(1, 1)]
        assert model.ranks == (1, 1, 2)

    def test_fixed_ranks_errors_do_not_advise_theta(self):
        # fixed ranks ignore theta, so neither stage's error suggests it
        t, _ = random_tucker2_tensor(np.random.default_rng(2), (6, 8, 7), (3, 3))
        norm = np.linalg.norm(t)
        with pytest.raises(InfeasibleBoundError, match="exceeds the total") as e:
            tkd_cpd_epc(t, 0.01 * norm, rank=2, ranks=(1, 1))
        assert "theta" not in str(e.value)
        with pytest.raises(InfeasibleBoundError, match="raise the rank$") as e:
            tkd_cpd_epc(t, 1e-10 * norm, rank=1, ranks=(3, 3))

    def test_errors(self):
        t = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            tkd_cpd_epc(np.zeros((2, 2)), 0.0, 1)
        with pytest.raises(ValueError):
            tkd_cpd_epc(t, -0.5, 1)
        with pytest.raises(ValueError, match="finite"):
            tkd_cpd_epc(t, np.inf, 1, theta=0.0)
        with pytest.raises(ValueError):
            tkd_cpd_epc(t, 0.0, 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(1, 5), st.integers(1, 7), st.integers(1, 7)),
    cp_rank=st.integers(1, 5),
    core_scale=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**16),
)
def test_hybrid_pythagorean_identity(dims, cp_rank, core_scale, seed):
    # any CP core inside orthonormal U, V: total^2 = tkd^2 + core^2
    rng = np.random.default_rng(seed)
    d2, s, t = dims
    r1, r2 = int(rng.integers(1, s + 1)), int(rng.integers(1, t + 1))
    u, _ = np.linalg.qr(rng.standard_normal((s, r1)))
    v, _ = np.linalg.qr(rng.standard_normal((t, r2)))
    core_cp = CPModel(
        core_scale * rng.standard_normal((d2, cp_rank)),
        rng.standard_normal((r1, cp_rank)),
        rng.standard_normal((r2, cp_rank)),
    )
    tensor = rng.standard_normal(dims)
    err_total, err_tkd, err_core = stage_errors(tensor, HybridModel(u, v, core_cp))
    scale = np.sum(tensor**2) + err_core**2
    assert abs(err_total**2 - err_tkd**2 - err_core**2) <= 1e-10 * scale


class TestToEquivalentCp:
    def test_identity_factors_unchanged(self):
        rng = np.random.default_rng(5)
        core = CPModel(
            rng.standard_normal((4, 3)),
            rng.standard_normal((5, 3)),
            rng.standard_normal((6, 3)),
        )
        h = HybridModel(np.eye(5), np.eye(6), core)
        flat = to_equivalent_cp(h)
        assert np.array_equal(flat.B, core.B)
        assert np.array_equal(flat.C, core.C)

    def test_reconstruction_identical(self):
        rng = np.random.default_rng(6)
        core = CPModel(
            rng.standard_normal((4, 3)),
            rng.standard_normal((2, 3)),
            rng.standard_normal((3, 3)),
        )
        u, _ = np.linalg.qr(rng.standard_normal((7, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        h = HybridModel(u, v, core)
        assert np.max(np.abs(to_equivalent_cp(h).to_tensor() - h.to_tensor())) < 1e-12

    def test_param_counts_before_and_after_merge(self):
        d2, s, t = 9, 16, 14
        r1, r2, r = 3, 4, 2
        rng = np.random.default_rng(7)
        core = CPModel(
            rng.standard_normal((d2, r)),
            rng.standard_normal((r1, r)),
            rng.standard_normal((r2, r)),
        )
        u, _ = np.linalg.qr(rng.standard_normal((s, r1)))
        v, _ = np.linalg.qr(rng.standard_normal((t, r2)))
        h = HybridModel(u, v, core)
        assert h.param_count() == r1 * s + r2 * t + r * (d2 + r1 + r2)
        flat = to_equivalent_cp(h)
        merged_params = flat.A.size + flat.B.size + flat.C.size
        assert merged_params == r * (d2 + s + t)
