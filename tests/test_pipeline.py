"""The one fit path: :func:`convfactor.pipeline.fit`."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hybrid_structured_tensor, random_cp_tensor
from convfactor import (
    ConvSpec,
    CPModel,
    Evaluator,
    binary_search_rank,
    cpd,
    cpd_als,
    emit_cpd_block,
    emit_tkd_cpd_block,
    epc,
    epc_correct,
    hybrid,
    pipeline,
    ranksearch,
    tkd_cpd_epc,
    to_equivalent_cp,
    tucker2,
    tucker2_bounded,
)
from convfactor.convblocks import block_factors
from convfactor.cpd import sign_components
from convfactor.errors import InfeasibleBoundError
from convfactor.pipeline import METHODS, decompose_to_block, fit
from convfactor.tensorops import _NORM_RANGE, _Checked, _finite_norm


@pytest.mark.parametrize("seed", [0, 4])
def test_cpd_fit_is_cpd_als(seed):
    # the solver settings have one source: fit adds nothing to cpd_als but
    # the sign rule
    rng = np.random.default_rng(7)
    t, _ = random_cp_tensor(rng, (9, 6, 5), 3)
    t += 0.05 * np.linalg.norm(t) * rng.standard_normal(t.shape) / np.sqrt(t.size)
    model, report = fit(t, "cpd", 4, seed=seed)
    res = cpd_als(t, 4, seed=seed)
    signed = sign_components(res.model)
    for got, want in ((model.A, signed.A), (model.B, signed.B),
                      (model.C, signed.C)):
        assert np.array_equal(got, want)
    assert report["rel_error"] == res.rel_error


@pytest.mark.parametrize("seed", [0, 4])
def test_cpd_epc_bound_ends_als(seed):
    # the bound goes to ALS as well as to EPC
    rng = np.random.default_rng(7)
    t, _ = random_cp_tensor(rng, (9, 6, 5), 3)
    t += 0.05 * np.linalg.norm(t) * rng.standard_normal(t.shape) / np.sqrt(t.size)
    delta_rel = 1.1 * cpd_als(t, 3, seed=seed).rel_error
    _, report = fit(t, "cpd-epc", 3, seed=seed, delta_rel=delta_rel)
    res = cpd_als(t, 3, seed=seed, delta=delta_rel * np.linalg.norm(t))
    assert res.stop == "bound"
    assert report["before"]["rel_error"] == res.rel_error
    assert report["rel_error"] <= delta_rel


@pytest.mark.parametrize("method, d, kwargs", [
    ("cpd", 3, {"delta_rel": 0.1}),
    ("svd", 1, {"delta_rel": 0.1}),
    ("cpd", 3, {"ranks": (2, 2)}),
    ("cpd-epc", 3, {"ranks": (2, 2)}),
    ("svd", 1, {"ranks": (2, 2)}),
    ("cpd", 3, {"theta": 0.5}),
    ("cpd-epc", 3, {"delta_rel": 0.5, "theta": 0.5}),
    ("tkd-cpd-epc", 3, {"ranks": (2, 2), "theta": 0.5}),
], ids=["cpd-delta", "svd-delta", "cpd-ranks", "cpd-epc-ranks", "svd-ranks",
        "cpd-theta", "cpd-epc-theta", "tkd-fixed-ranks-theta"])
def test_argument_the_method_ignores_rejected(method, d, kwargs):
    t = np.random.default_rng(8).standard_normal((d * d, 4, 5))
    with pytest.raises(ValueError, match="takes no"):
        fit(t, method, 2, **kwargs)


def test_unreachable_epc_bound_keeps_the_solvers_attributes():
    # the message speaks in --delta's units; the attributes stay EPC's
    # squared absolute residuals
    t = np.random.default_rng(0).standard_normal((9, 12, 10))
    with pytest.raises(InfeasibleBoundError, match="--delta 0.6") as info:
        fit(t, "cpd-epc", 6, delta_rel=0.6)
    e = info.value
    assert e.factor in ("A", "B", "C")
    assert e.bound == pytest.approx((0.6 * np.linalg.norm(t)) ** 2)
    assert e.min_residual > e.bound
    assert f"{np.sqrt(e.min_residual) / np.linalg.norm(t):.3g}" in str(e)


@pytest.mark.parametrize("method", ["cpd-epc", "tkd-cpd-epc"])
def test_infeasible_correction_without_delta_keeps_the_solvers_message(
        monkeypatch, method):
    # with no --delta there is nothing to restate; EPC's own message names
    # the factor
    def infeasible(tensor, model, delta=None):
        raise InfeasibleBoundError("the least-squares update of factor B cannot "
                                   "meet the bound", min_residual=2.0, bound=1.0,
                                   factor="B")

    monkeypatch.setattr(pipeline, "epc_correct", infeasible)
    monkeypatch.setattr(hybrid, "epc_correct", infeasible)
    t = np.random.default_rng(0).standard_normal((9, 12, 10))
    kwargs = {"ranks": (4, 4)} if method == "tkd-cpd-epc" else {}
    with pytest.raises(InfeasibleBoundError, match="^the least-squares update of factor B"):
        fit(t, method, 2, **kwargs)


@pytest.mark.parametrize("method, rank, kwargs, merged", [
    ("cpd", 2, {}, None),
    ("cpd-epc", 2, {"delta_rel": 0.3}, None),
    ("tkd-cpd-epc", 2, {"ranks": (3, 3)}, True),
    ("tkd-cpd-epc", 4, {"ranks": (2, 2)}, False),
    # 44 weights in either block: a tie ships the 3-layer one
    ("tkd-cpd-epc", 2, {"ranks": (2, 1)}, True),
    ("tkd-cpd-epc", 2, {"delta_rel": 0.15}, True),
], ids=["cpd", "cpd-epc", "tkd-merged", "tkd-unmerged", "tkd-tie", "tkd-delta"])
def test_rel_error_is_that_of_the_dense_model(method, rank, kwargs, merged):
    # fit sums the error slice by slice from the factors; the dense
    # difference is the oracle
    t = hybrid_structured_tensor(np.random.default_rng(9), (9, 7, 6), (4, 4), 3,
                                 noise=0.1)
    model, report = fit(t, method, rank, **kwargs)
    assert report.get("merged") is merged
    dense = np.linalg.norm(t - model.to_tensor()) / np.linalg.norm(t)
    assert dense > 1e-3
    assert report["rel_error"] == pytest.approx(dense, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), s=st.integers(1, 8), t=st.integers(1, 8),
       data=st.data())
def test_hybrid_ships_the_block_with_fewer_weights(d, s, t, data):
    # the 5-layer block and the 3-layer block of the equivalent CP realize
    # one kernel; the one with fewer weights ships, the 3-layer one on a tie
    r1, r2 = data.draw(st.integers(1, s)), data.draw(st.integers(1, t))
    rank = data.draw(st.integers(1, r1 * r2 + 1))
    tensor = np.random.default_rng(data.draw(st.integers(0, 2**16))).standard_normal(
        (d * d, s, t))
    spec = ConvSpec(s, t, d, pad=d // 2)
    block, report = decompose_to_block(tensor, "tkd-cpd-epc", rank, spec,
                                       ranks=(r1, r2))
    model = tkd_cpd_epc(tensor, None, rank, ranks=(r1, r2))
    five, three = model.param_count(), rank * (d * d + s + t)
    assert report["merged"] is (three <= five)
    assert block.kind == ("cpd" if three <= five else "tkd-cpd")
    assert block.metrics["params"] == min(five, three)
    shipped = block_factors(block.layers, block.kind)
    for kind, emit, m in (("tkd-cpd", emit_tkd_cpd_block, model),
                          ("cpd", emit_cpd_block, to_equivalent_cp(model))):
        factors = block_factors(emit(m, spec), kind)
        assert cpd.rel_error(tensor, factors) == pytest.approx(
            report["rel_error"], rel=1e-12, abs=1e-15)
        assert cpd.sensitivity(factors) == pytest.approx(
            cpd.sensitivity(shipped), rel=1e-12)


@pytest.mark.parametrize("kwargs, reached, allowed", [
    ({"delta_rel": 0.1}, "0.93", "0.1"),  # the core's CP fit
    ({"delta_rel": 0.01, "ranks": (1, 1)}, "0.963", "0.01"),  # the Tucker stage
], ids=["core", "tucker"])
def test_unreachable_hybrid_bound_is_restated_relative_to_the_norm(
        kwargs, reached, allowed):
    # the message speaks in --delta's units; the attributes stay the
    # hybrid's squared absolute residuals
    t = np.random.default_rng(0).standard_normal((9, 12, 10))
    norm_t = np.linalg.norm(t)
    with pytest.raises(InfeasibleBoundError) as info:
        fit(t, "tkd-cpd-epc", 2, **kwargs)
    e = info.value
    assert str(e).startswith(
        f"--delta {kwargs['delta_rel']:g} cannot be met (relative error "
        f"{reached} reached, {allowed} allowed): ")
    assert f"{np.sqrt(e.min_residual) / norm_t:.3g}" == reached
    assert f"{np.sqrt(e.bound) / norm_t:.3g}" == allowed


def noise_floor_kernel():
    """A rank-3 CP kernel (9 x 8 x 7) plus noise of relative norm 8e-6, the
    generator's fourth noise draw: its rank-3 fits end at a relative error
    of about 7.65e-6."""
    rng = np.random.default_rng(20)
    t = np.einsum("dr,sr,tr->dst", *(rng.standard_normal((n, 3)) for n in (9, 8, 7)))
    noise = [rng.standard_normal(t.shape) for _ in range(4)][-1]
    return t + 8e-6 * np.linalg.norm(t) * noise / np.linalg.norm(noise)


@pytest.mark.parametrize("method", ["cpd-epc", "tkd-cpd-epc"])
def test_delta_below_the_noise_floor_is_refused_by_both_methods(method):
    # EPC alone lets its exact-fit limit pass the bound by _QP_TOL ||T||^2;
    # --delta is met to 1e-9 relative by either method, or refused in its units
    t = noise_floor_kernel()
    with pytest.raises(InfeasibleBoundError, match=r"^--delta 1e-06 cannot be met "
                       r"\(relative error 7.65e-06 reached, 1e-06 allowed\)"):
        fit(t, method, 3, delta_rel=1e-6)
    _, report = fit(t, method, 3, delta_rel=1e-5)
    assert report["rel_error"] <= 1e-5


@pytest.mark.parametrize("method, rank, kwargs", [
    ("cpd", 3, {}),
    ("cpd-epc", 3, {"delta_rel": 0.2}),
    ("tkd-cpd-epc", 3, {"delta_rel": 0.2}),
    ("tkd-cpd-epc", 4, {"ranks": (2, 2)}),
    ("svd", 3, {}),
], ids=["cpd", "cpd-epc", "tkd-merged", "tkd-unmerged", "svd"])
def test_blocks_do_not_depend_on_the_seeds_lapack_signs(monkeypatch, method, rank,
                                                        kwargs):
    # ALS takes its restart-0 seed from eigh, and the svd method its pairs
    # from svd, whose signs LAPACK picks (and picks differently with the BLAS
    # thread count); flipping every other eigenvector and every other
    # singular pair must not change the emitted layers
    t = hybrid_structured_tensor(np.random.default_rng(3), (9, 7, 6), (4, 4), 3,
                                 noise=0.05)
    spec = ConvSpec(7, 6, 3, pad=1)
    if method == "svd":
        t, spec = t[:1], ConvSpec(7, 6, 1)
    ref, _ = decompose_to_block(t, method, rank, spec, **kwargs)
    eigh, svd = np.linalg.eigh, np.linalg.svd

    def flip(vecs):
        return vecs * np.where(np.arange(vecs.shape[1]) % 2, -1.0, 1.0)

    def flipped_eigh(a, *args, **kw):
        w, vecs = eigh(a, *args, **kw)
        return w, flip(vecs)

    def flipped_svd(a, *args, **kw):
        u, s, vt = svd(a, *args, **kw)
        return flip(u), s, flip(vt.T).T

    monkeypatch.setattr(np.linalg, "eigh", flipped_eigh)
    monkeypatch.setattr(np.linalg, "svd", flipped_svd)
    got, _ = decompose_to_block(t, method, rank, spec, **kwargs)
    assert got.kind == ref.kind
    for layer, want in zip(got.layers, ref.layers, strict=True):
        scale = np.max(np.abs(want.weights))
        assert np.max(np.abs(layer.weights - want.weights)) <= 1e-12 * scale


def test_delivered_cp_components_have_positive_peaks_in_b_and_c():
    t = hybrid_structured_tensor(np.random.default_rng(3), (9, 7, 6), (4, 4), 3,
                                 noise=0.05)
    for model in (fit(t, "cpd-epc", 3, delta_rel=0.2)[0],
                  fit(t, "tkd-cpd-epc", 4, ranks=(2, 2))[0].core_cp):
        for f in (model.B, model.C):
            assert np.all(f[np.argmax(np.abs(f), axis=0), np.arange(f.shape[1])] > 0)


def _epc(t, delta):
    return epc_correct(t, CPModel(*(np.ones((n, 2)) for n in t.shape)), delta=delta)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [
    lambda t: cpd_als(t, 2),
    lambda t: _epc(t, None),
    lambda t: _epc(t, 1.0),
    lambda t: tucker2_bounded(t, 1.0),
    lambda t: tkd_cpd_epc(t, 1.0, 2),
], ids=["cpd_als", "epc_correct", "epc_correct-delta", "tucker2_bounded",
        "tkd_cpd_epc"])
def test_non_finite_tensor_rejected_at_every_entry(entry, bad):
    # each entry checks the norm it computes anyway
    t = np.ones((1, 6, 5))
    t[0, 2, 3] = bad
    with pytest.raises(ValueError, match="not finite"):
        entry(t)


@pytest.mark.parametrize("shape", [(2, 0, 3), (2, 3, 0), (0, 3, 3), (0, 0, 5)])
@pytest.mark.parametrize("entry", [
    lambda t: cpd_als(t, 2),
    lambda t: _epc(t, None),
    lambda t: tucker2_bounded(t, 0.0),
    lambda t: tkd_cpd_epc(t, 0.0, 2),
    lambda t: binary_search_rank(t, "cpd", Evaluator(), 1, 2),
    *(lambda t, m=m: fit(t, m, 2) for m in METHODS),
], ids=["cpd_als", "epc_correct", "tucker2_bounded", "tkd_cpd_epc",
        "binary_search_rank", *(f"fit-{m}" for m in METHODS)])
def test_empty_mode_rejected_at_every_entry(entry, shape):
    # one error from the one input check, whichever extent is zero
    with pytest.raises(ValueError, match=r"^tensor of shape .* has an empty mode$"):
        entry(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_tensor(bad):
    # without the check the svd path returns a NaN model for an inf entry,
    # or with some LAPACK builds never returns: hence a subprocess with a
    # timeout
    code = """
import sys
import numpy as np
from convfactor.pipeline import fit
t = np.ones((1, 6, 5))
t[0, 2, 3] = float(sys.argv[1])
try:
    fit(t, "svd", 2)
except ValueError as e:
    print("ValueError:", e)
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, str(bad)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "ValueError:" in proc.stdout and "not finite" in proc.stdout


# one setting per method; the hybrid's core solvers take the core as a
# projection of the checked kernel and do not check its norm again
_SCALED_FITS = {"cpd": (9, {}), "cpd-epc": (9, {"delta_rel": 0.3}),
                "tkd-cpd-epc": (9, {"delta_rel": 0.3}), "svd": (1, {})}
# the powers of two inside the norm range: 2^k t has norm 2^k
_K_MIN = math.ceil(math.log2(_NORM_RANGE[0]))
_K_MAX = math.floor(math.log2(_NORM_RANGE[1]))


def _fit_outcome(t, method, kwargs):
    """(block kind, multilinear ranks, rel_error) of a fit, or its error's type."""
    try:
        _, report = fit(t, method, 3, **kwargs)
    except InfeasibleBoundError:
        return "infeasible", None, None
    return report["block"], report.get("ranks"), report["rel_error"]


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(k=st.integers(_K_MIN, _K_MAX), seed=st.integers(0, 2**16))
def test_fit_is_scale_free_across_the_norm_range(method, k, seed):
    # every tolerance is relative, so scaling by a power of two, which is
    # exact, moves no rank and no relative error; outside the range fit
    # raises instead of returning what roundoff and underflow leave
    d2, kwargs = _SCALED_FITS[method]
    t = hybrid_structured_tensor(np.random.default_rng(seed), (d2, 6, 5), (3, 3), 3,
                                 noise=0.1)
    t /= np.linalg.norm(t)
    want = _fit_outcome(t, method, kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _fit_outcome(2.0**k * t, method, kwargs)
    assert got[:2] == want[:2]
    if want[2] is not None:
        assert abs(got[2] - want[2]) <= 1e-10
    for outside in (_K_MIN - 1, _K_MAX + 1):
        with pytest.raises(ValueError, match="outside"):
            fit(2.0**outside * t, method, 3, **kwargs)


def test_hybrid_fits_an_in_range_kernel_whose_core_is_below_the_range():
    # at 2^-166 = 1.07e-50 the kernel is inside the range and its Tucker core,
    # of norm 5.3e-51, is not; the core is a projection of the checked kernel
    t = np.random.default_rng(0).standard_normal((9, 6, 5))
    t /= np.linalg.norm(t)
    _, want = fit(t, "tkd-cpd-epc", 12, delta_rel=0.9, theta=1.0)
    _, got = fit(2.0**-166 * t, "tkd-cpd-epc", 12, delta_rel=0.9, theta=1.0)
    assert want["ranks"] == got["ranks"] == (1, 2, 12)
    assert abs(got["rel_error"] - want["rel_error"]) <= 1e-10


@pytest.mark.parametrize("call", [
    lambda t: fit(t, "cpd", 2),
    lambda t: fit(t, "cpd-epc", 2, delta_rel=0.3),
    lambda t: fit(t, "tkd-cpd-epc", 2, delta_rel=0.3),
    lambda t: fit(t[:1], "svd", 2),
    lambda t: cpd_als(t, 2),
    lambda t: epc_correct(t, CPModel(*(np.ones((n, 2)) for n in t.shape)), delta=None),
    lambda t: tucker2_bounded(t, 0.3 * np.linalg.norm(t)),
    lambda t: tkd_cpd_epc(t, 0.3 * np.linalg.norm(t), 2),
    lambda t: binary_search_rank(t, "cpd-epc", Evaluator(eps=1e-8), 1, 8),
], ids=["fit-cpd", "fit-cpd-epc", "fit-tkd-cpd-epc", "fit-svd", "cpd_als",
        "epc_correct", "tucker2_bounded", "tkd_cpd_epc", "binary_search_rank"])
def test_one_input_check_per_call(monkeypatch, call):
    # each entry checks a plain array once and hands the checked pair on
    plain = []

    def spy(tensor):
        if not isinstance(tensor, _Checked):
            plain.append(np.shape(tensor))
        return _finite_norm(tensor)

    for module in (ranksearch, pipeline, hybrid, cpd, epc, tucker2):
        monkeypatch.setattr(module, "_finite_norm", spy)
    t = hybrid_structured_tensor(np.random.default_rng(2), (9, 6, 5), (3, 3), 3,
                                 noise=0.1)
    call(t)
    assert len(plain) == 1
