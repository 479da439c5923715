"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import math
import time

import numpy as np

from conftest import (
    degenerate_pair,
    hybrid_structured_tensor,
    mode_product,
    random_cp_tensor,
    random_tucker2_tensor,
)
from convfactor import (
    ConvSpec,
    CPModel,
    Evaluator,
    binary_search_rank,
    build_q1,
    build_q2,
    compose_forward,
    conv2d_reference,
    core_closed_form,
    cpd,
    cpd_als,
    emit_cpd_block,
    emit_svd_block,
    emit_tkd_cpd_block,
    epc_correct,
    monte_carlo_sensitivity,
    restore_kernel,
    sensitivity,
    tkd_cpd_epc,
    tucker2_bounded,
)
from convfactor.convblocks import block_to_kernel
from convfactor.epc import spherical_qp
from convfactor.hybrid import HybridModel
from convfactor.pipeline import fit


def report(num, name, passed):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}) failed"


def test_01_sensitivity_closed_form_vs_definition():
    start = time.monotonic()
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        dims = rng.integers(4, 9, size=3)
        rank = int(rng.integers(2, 6))
        model = CPModel(*(rng.standard_normal((d, rank)) for d in dims))
        mc = monte_carlo_sensitivity(model, sigma=1e-4, n_samples=2000, seed=seed)
        closed = sensitivity(model)
        ok &= abs(mc - closed) <= 0.02 * closed
    elapsed = time.monotonic() - start
    report(1, "sensitivity closed form vs Monte-Carlo (2%)", ok and elapsed < 10)


def test_02_degeneracy_correction():
    start = time.monotonic()
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        dims = (int(rng.integers(4, 9)), int(rng.integers(4, 9)), int(rng.integers(4, 9)))
        tensor, model = degenerate_pair(rng, dims, scale=100.0)
        # component intensities at least 100x the data norm
        comp = np.linalg.norm(model.A[:, 0]) * np.linalg.norm(
            model.B[:, 0]
        ) * np.linalg.norm(model.C[:, 0])
        assert comp >= 100 * np.linalg.norm(tensor)
        err0 = np.linalg.norm(tensor - model.to_tensor())
        ss0 = sensitivity(model)
        corrected, _ = epc_correct(tensor, model, delta=err0)
        err1 = np.linalg.norm(tensor - corrected.to_tensor())
        ok &= sensitivity(corrected) <= ss0 / 10
        ok &= err1 <= err0 + 1e-8 * np.linalg.norm(tensor)
    elapsed = time.monotonic() - start
    report(2, "EPC cuts sensitivity >= 10x within the error bound", ok and elapsed < 30)


def test_03_epc_error_preservation_and_monotonicity(monkeypatch):
    ok = True
    monkeypatch.setattr(cpd, "_MAX_SWEEPS", 200)
    for seed in range(6):
        rng = np.random.default_rng(3000 + seed)
        if seed < 3:
            tensor, model = degenerate_pair(rng, (5, 6, 7))
            delta = np.linalg.norm(tensor - model.to_tensor())
        else:
            tensor = rng.standard_normal((5, 6, 7))
            model = cpd_als(tensor, 3, seed=seed).model
            delta = np.linalg.norm(tensor - model.to_tensor()) * 1.05
        _, trace = epc_correct(tensor, model, delta=delta)
        norm_t = np.linalg.norm(tensor)
        ok &= all(rec["error"] <= delta + 1e-8 * norm_t for rec in trace)
        ss = [rec["ss"] for rec in trace]
        ok &= all(ss[i + 1] <= ss[i] + 1e-10 for i in range(len(ss) - 1))
    report(3, "EPC keeps the bound every sweep, sensitivity non-increasing", ok)


def test_04_spherical_qp_kkt():
    ok = True
    count = 0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        rows = int(rng.integers(3, 8))
        cols = int(rng.integers(6, 15))
        rank = int(rng.integers(2, min(6, cols)))
        y = rng.standard_normal((rows, cols))
        zt = rng.standard_normal((cols, rank))
        ls_res2 = np.sum((y - y @ zt @ np.linalg.pinv(zt.T @ zt) @ zt.T) ** 2)
        frac = rng.uniform(0.2, 0.95)
        delta2 = frac * np.sum(y**2) + (1 - frac) * ls_res2
        x, mu = spherical_qp(y, zt, np.sqrt(delta2))
        count += 1
        stat = x @ (np.eye(rank) + mu * zt.T @ zt) - mu * y @ zt
        ok &= np.max(np.abs(stat)) <= 1e-8 * max(1.0, mu * np.max(np.abs(y @ zt)))
        res = np.sum((y - x @ zt.T) ** 2)
        ok &= mu == 0.0 or abs(res - delta2) <= 1e-8 * delta2
    report(4, f"spherical QP KKT on {count} random instances", ok and count >= 100)


def test_05_tucker2_bound_and_minimality():
    ok = True
    rng = np.random.default_rng(5000)
    for frac in (0.05, 0.1, 0.2):
        tensor = rng.standard_normal((16, 32, 32))
        delta = frac * np.linalg.norm(tensor)
        model = tucker2_bounded(tensor, delta)
        err = np.linalg.norm(tensor - model.to_tensor())
        ok &= err <= delta + 1e-8 * np.linalg.norm(tensor)
        bound = np.sum(tensor**2) - delta**2
        for q, rank in (
            (build_q1(tensor, model.V), model.ranks[0]),
            (build_q2(tensor, model.U), model.ranks[1]),
        ):
            w = np.sort(np.linalg.eigvalsh(q))[::-1]
            ok &= np.sum(w[: rank - 1]) < bound
    exact, _ = random_tucker2_tensor(rng, (16, 32, 32), (4, 5))
    model = tucker2_bounded(exact, 1e-12 * np.linalg.norm(exact))
    ok &= model.ranks == (4, 5)
    rel = np.linalg.norm(exact - model.to_tensor()) / np.linalg.norm(exact)
    ok &= rel <= 1e-10
    report(5, "Tucker-2 meets the bound with minimal ranks", ok)


def test_06_hybrid_pythagorean_identity():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(6000 + seed)
        tensor = hybrid_structured_tensor(rng, (9, 10, 8), (3, 3), 3, noise=0.05)
        norm = np.linalg.norm(tensor)
        model = tkd_cpd_epc(tensor, 0.2 * norm, rank=3, theta=0.5)
        g = core_closed_form(tensor, model.U, model.V)
        tkd_recon = mode_product(mode_product(g, model.U, 1), model.V, 2)
        err_tkd2 = np.sum((tensor - tkd_recon) ** 2)
        err_core2 = np.sum((g - model.core_cp.to_tensor()) ** 2)
        err_total2 = np.sum((tensor - model.to_tensor()) ** 2)
        ok &= abs(err_total2 - err_tkd2 - err_core2) <= 1e-8 * norm**2
    report(6, "hybrid stage errors add Pythagorean-style", ok)


def test_07_block_forward_equivalence(monkeypatch):
    ok = True
    rng = np.random.default_rng(7000)
    d, s, t = 3, 6, 5
    spec = ConvSpec(s, t, d, stride=2, pad=1, bias=rng.standard_normal(t))

    cp = CPModel(
        rng.standard_normal((d * d, 4)),
        rng.standard_normal((s, 4)),
        rng.standard_normal((t, 4)),
    )
    u, _ = np.linalg.qr(rng.standard_normal((s, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((t, 2)))
    hybrid = HybridModel(
        u, v,
        CPModel(
            rng.standard_normal((d * d, 3)),
            rng.standard_normal((3, 3)),
            rng.standard_normal((2, 3)),
        ),
    )
    svd_spec = ConvSpec(s, t, 1, bias=rng.standard_normal(t))
    m1x1 = rng.standard_normal((t, s))
    cases = [
        (emit_cpd_block(cp, spec), restore_kernel(cp.to_tensor(), d), spec),
        (emit_tkd_cpd_block(hybrid, spec), restore_kernel(hybrid.to_tensor(), d), spec),
        (
            emit_svd_block(fit(m1x1.T[None], "svd", min(s, t))[0], svd_spec),
            np.ascontiguousarray(m1x1.T[None, None]),
            svd_spec,
        ),
    ]
    for layers, kernel, sp in cases:
        for trial in range(5):
            x = rng.standard_normal((7, 8, s))
            ref = conv2d_reference(x, sp, kernel)
            got = compose_forward(layers, x)
            ok &= np.linalg.norm(got - ref) <= 1e-8 * (1 + np.linalg.norm(x))

    # inexact decomposition: the chain still realizes its own kernel
    noisy = rng.standard_normal((d * d, s, t))
    monkeypatch.setattr(cpd, "_MAX_SWEEPS", 100)
    model = cpd_als(noisy, 2).model
    layers = emit_cpd_block(model, spec)
    kernel = block_to_kernel(layers, "cpd")
    for trial in range(5):
        x = rng.standard_normal((6, 6, s))
        dev = np.linalg.norm(
            compose_forward(layers, x) - conv2d_reference(x, spec, kernel)
        )
        ok &= dev <= 1e-8 * (1 + np.linalg.norm(x))
    report(7, "emitted blocks reproduce the reference forward pass", ok)


def test_08_parameter_formulas():
    ok = True
    rng = np.random.default_rng(8000)
    for d, s, t, r in [(3, 64, 64, 100), (1, 8, 16, 4), (5, 12, 7, 3), (3, 16, 32, 9)]:
        m = CPModel(
            rng.standard_normal((d * d, r)),
            rng.standard_normal((s, r)),
            rng.standard_normal((t, r)),
        )
        layers = emit_cpd_block(m, ConvSpec(s, t, d))
        ok &= sum(l.weights.size for l in layers) == r * (d * d + s + t)
    for d, s, t, r1, r2, r in [
        (3, 64, 64, 16, 16, 64),
        (3, 16, 24, 4, 5, 6),
        (5, 10, 12, 3, 3, 4),
    ]:
        u, _ = np.linalg.qr(rng.standard_normal((s, r1)))
        v, _ = np.linalg.qr(rng.standard_normal((t, r2)))
        h = HybridModel(
            u, v,
            CPModel(
                rng.standard_normal((d * d, r)),
                rng.standard_normal((r1, r)),
                rng.standard_normal((r2, r)),
            ),
        )
        layers = emit_tkd_cpd_block(h, ConvSpec(s, t, d))
        outer = layers[0].weights.size + layers[-1].weights.size
        ok &= outer == r1 * s + r2 * t
        ok &= sum(l.weights.size for l in layers) == r1 * s + r2 * t + r * (
            d * d + r1 + r2
        )
    report(8, "emitted weight counts match the closed-form formulas", ok)


def test_09_rank_search_recovers_true_rank():
    ok = True
    for seed, true_rank in [(0, 3), (1, 5), (2, 8)]:
        rng = np.random.default_rng(9000 + seed)
        tensor, _ = random_cp_tensor(rng, (12, 14, 16), true_rank)
        result = binary_search_rank(tensor, "cpd", Evaluator(eps=1e-8), 1, 16)
        ok &= result.rank == true_rank
        ok &= result.met
        ok &= result.n_evals <= math.ceil(math.log2(16 - 1)) + 1
    report(9, "binary rank search returns the exact rank", ok)


def test_10_als_sanity(monkeypatch):
    ok = True
    monkeypatch.setattr(cpd, "_RESTARTS", 5)
    monkeypatch.setattr(cpd, "_MAX_SWEEPS", 2000)
    monkeypatch.setattr(cpd, "_TOL", 1e-14)
    for seed, rank in [(0, 2), (1, 4), (2, 5)]:
        rng = np.random.default_rng(10000 + seed)
        tensor, _ = random_cp_tensor(rng, (6, 7, 8), rank)
        start = time.monotonic()
        res = cpd_als(tensor, rank, seed=seed)
        elapsed = time.monotonic() - start
        ok &= res.rel_error <= 1e-6
        ok &= elapsed < 5.0
        errs = res.rel_errors
        ok &= all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    report(10, "ALS construct-then-recover within 1e-6, monotone sweeps", ok)
