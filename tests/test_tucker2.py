import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import mode_product, random_tucker2_tensor, unfold
from convfactor import (
    build_q1,
    build_q2,
    core_closed_form,
    tucker2_bounded,
)
from convfactor import tucker2
from convfactor.errors import InfeasibleBoundError
from convfactor.tucker2 import (
    _ALTERNATIONS,
    _BLOCK,
    _cut,
    _leading_eigvecs,
    _leading_right_vecs,
    minimal_rank_eigvecs,
)
from convfactor.tensorops import _column_signs


def q1_loop(tensor, v):
    """Direct loop evaluation of the projected mode-1 Gram matrix (oracle)."""
    _, s, _ = tensor.shape
    r2 = v.shape[1]
    q = np.zeros((s, s))
    for i in range(s):
        for j in range(s):
            for r in range(r2):
                q[i, j] += np.dot(tensor[:, i, :] @ v[:, r], tensor[:, j, :] @ v[:, r])
    return q


def q2_loop(tensor, u):
    _, _, t = tensor.shape
    r1 = u.shape[1]
    q = np.zeros((t, t))
    for i in range(t):
        for j in range(t):
            for r in range(r1):
                q[i, j] += np.dot(
                    tensor[:, :, i] @ u[:, r], tensor[:, :, j] @ u[:, r]
                )
    return q


class TestGramMatrices:
    def test_q1_energy_identity(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((4, 3, 5))
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        assert np.trace(build_q1(t, v)) == pytest.approx(np.sum(t**2), rel=1e-10)

    def test_q2_energy_identity(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((4, 3, 5))
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert np.trace(build_q2(t, u)) == pytest.approx(np.sum(t**2), rel=1e-10)

    def test_zero_tensor(self):
        z = np.zeros((4, 3, 5))
        assert np.all(build_q1(z, np.eye(5)) == 0)
        assert np.all(build_q2(z, np.eye(3)) == 0)

    def test_q1_against_loop(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((4, 3, 5))
        v, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        assert np.max(np.abs(build_q1(t, v) - q1_loop(t, v))) < 1e-12

    def test_q1_single_column(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 3, 5))
        v = np.zeros((5, 1))
        v[0, 0] = 1.0
        assert np.max(np.abs(build_q1(t, v) - q1_loop(t, v))) < 1e-12

    def test_q2_against_loop(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((4, 3, 5))
        u, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        assert np.max(np.abs(build_q2(t, u) - q2_loop(t, u))) < 1e-12

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((4, 6, 5))
        q = build_q1(t, np.eye(5))
        assert np.array_equal(q, q.T)
        assert np.min(np.linalg.eigvalsh(q)) > -1e-10

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            build_q1(np.zeros((4, 3, 5)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            build_q2(np.zeros((4, 3, 5)), np.zeros((5, 2)))


def orthonormal_basis(rng, n, kind):
    """n x k orthonormal basis with k = 0, 1 or n columns."""
    k = {"empty": 0, "one": 1, "full": n}[kind]
    return np.linalg.qr(rng.standard_normal((n, k)))[0] if k else np.zeros((n, 0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)).filter(
        lambda d: d[1] != d[2]
    ),
    kind=st.sampled_from(["empty", "one", "full"]),
    seed=st.integers(0, 2**16),
)
def test_grams_equal_projected_unfolding_grams(dims, kind, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(dims)
    v = orthonormal_basis(rng, dims[2], kind)
    u = orthonormal_basis(rng, dims[1], kind)
    for got, proj, mode in (
        (build_q1(t, v), mode_product(t, v.T, 2), 1),
        (build_q2(t, u), mode_product(t, u.T, 1), 2),
    ):
        m = unfold(proj, mode)
        ref = m @ m.T
        assert got.shape == ref.shape == (dims[mode],) * 2
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestMinimalRankEigvecs:
    def test_forced_arithmetic(self):
        q = np.diag([5.0, 3.0, 2.0])
        basis, rank = minimal_rank_eigvecs(q, 8.0)
        assert rank == 2
        assert basis.shape == (3, 2)

    def test_zero_bound(self):
        basis, rank = minimal_rank_eigvecs(np.diag([3.0, 1.0]), 0.0)
        assert rank == 0
        assert basis.shape == (2, 0)

    def test_full_trace_bound_counts_nonzero(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((5, 3))
        q = m @ m.T  # rank 3 PSD
        w = np.sort(np.linalg.eigvalsh(q))[::-1]
        csum = np.cumsum(np.maximum(w, 0))
        expect = int(np.searchsorted(csum, np.trace(q) - 1e-12 * np.trace(q)) + 1)
        _, rank = minimal_rank_eigvecs(q, np.trace(q))
        assert rank == expect == 3

    def test_infeasible(self):
        with pytest.raises(InfeasibleBoundError):
            minimal_rank_eigvecs(np.diag([1.0, 1.0]), 2.5)

    def test_tie_with_cut_is_kept(self):
        # two eigenvalues reach the bound, but the second is tied with the third
        basis, rank = minimal_rank_eigvecs(np.diag([3.0, 2.0, 2.0, 1.0]), 4.0)
        assert rank == 3
        assert basis.shape == (4, 3)

    def test_orthonormal_output(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 6))
        q = m @ m.T
        basis, rank = minimal_rank_eigvecs(q, 0.5 * np.trace(q))
        assert np.max(np.abs(basis.T @ basis - np.eye(rank))) < 1e-10


class TestCoreClosedForm:
    def test_square_orthonormal_exact(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((4, 3, 5))
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        g = core_closed_form(t, u, v)
        recon = mode_product(mode_product(g, u, 1), v, 2)
        assert np.max(np.abs(recon - t)) < 1e-10

    def test_leading_identity_columns(self):
        t = np.random.default_rng(9).standard_normal((4, 3, 5))
        u = np.eye(3)[:, :2]
        v = np.eye(5)[:, :3]
        assert np.array_equal(core_closed_form(t, u, v), t[:, :2, :3])

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((4, 6, 5))
        u, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        g = core_closed_form(t, u, v)
        recon = mode_product(mode_product(g, u, 1), v, 2)
        lhs = np.sum((t - recon) ** 2)
        rhs = np.sum(t**2) - np.sum(g**2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_non_orthonormal_error(self):
        t = np.zeros((4, 3, 5))
        with pytest.raises(ValueError):
            core_closed_form(t, 2 * np.eye(3), np.eye(5))


class TestTucker2Bounded:
    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(11)
        t, _ = random_tucker2_tensor(rng, (9, 6, 7), (2, 3))
        model = tucker2_bounded(t, 0.0)
        assert model.ranks == (2, 3)
        rel = np.linalg.norm(t - model.to_tensor()) / np.linalg.norm(t)
        assert rel <= 1e-10

    def test_vacuous_bound_allows_minimal_or_empty_model(self):
        rng = np.random.default_rng(12)
        t = rng.standard_normal((4, 3, 5))
        model = tucker2_bounded(t, np.linalg.norm(t))
        # the energy bound is ~0 up to roundoff: rank 0 or 1 both qualify
        assert max(model.ranks) <= 1
        err = np.linalg.norm(t - model.to_tensor())
        assert err <= np.linalg.norm(t) * (1 + 1e-12)
        empty = tucker2_bounded(t, np.linalg.norm(t) * (1 + 1e-6))
        assert empty.ranks == (0, 0)

    @pytest.mark.parametrize("frac", [0.05, 0.1, 0.2])
    def test_bound_and_minimality(self, frac):
        rng = np.random.default_rng(13)
        t = rng.standard_normal((9, 12, 10))
        delta = frac * np.linalg.norm(t)
        model = tucker2_bounded(t, delta)
        err = np.linalg.norm(t - model.to_tensor())
        assert err <= delta + 1e-8 * np.linalg.norm(t)
        bound = np.sum(t**2) - delta**2
        # dropping the last kept eigenvector in either mode breaks the bound
        for q, rank in (
            (build_q1(t, model.V), model.ranks[0]),
            (build_q2(t, model.U), model.ranks[1]),
        ):
            w = np.sort(np.linalg.eigvalsh(q))[::-1]
            assert np.sum(w[: rank - 1]) < bound

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(14)
        t = rng.standard_normal((4, 8, 6))
        model = tucker2_bounded(t, 0.3 * np.linalg.norm(t))
        r1, r2 = model.ranks
        assert np.max(np.abs(model.U.T @ model.U - np.eye(r1))) < 1e-10
        assert np.max(np.abs(model.V.T @ model.V - np.eye(r2))) < 1e-10

    def test_history_errors_within_bound_and_params_monotone(self):
        rng = np.random.default_rng(15)
        t = rng.standard_normal((9, 14, 12))
        delta = 0.15 * np.linalg.norm(t)
        model = tucker2_bounded(t, delta)
        d2, s, tt = t.shape
        params = []
        stable_errors = []
        for rec in model.history:
            assert rec["sq_error"] <= delta**2 + 1e-8 * np.sum(t**2)
            r1, r2 = rec["ranks"]
            params.append(r1 * s + r2 * tt + r1 * r2 * d2)
            if rec["ranks"] == model.ranks:
                stable_errors.append(rec["sq_error"])
        assert all(params[i + 1] <= params[i] for i in range(1, len(params) - 1))
        # once the ranks settle, the alternation cannot increase the error
        assert all(
            stable_errors[i + 1] <= stable_errors[i] + 1e-8 * np.sum(t**2)
            for i in range(len(stable_errors) - 1)
        )

    def test_fixed_ranks_mode(self):
        rng = np.random.default_rng(16)
        t, _ = random_tucker2_tensor(rng, (9, 8, 7), (3, 2))
        model = tucker2_bounded(t, 0.0, ranks=(3, 2))
        assert model.ranks == (3, 2)
        assert np.linalg.norm(t - model.to_tensor()) <= 1e-10 * np.linalg.norm(t)

    def test_fixed_partial_ranks_pythagorean(self):
        rng = np.random.default_rng(18)
        clean, _ = random_tucker2_tensor(rng, (9, 8, 7), (3, 2))
        noise = rng.standard_normal(clean.shape)
        t = clean + 0.1 * np.linalg.norm(clean) * noise / np.linalg.norm(noise)
        model = tucker2_bounded(t, 0.0, ranks=(2, 2))
        assert model.ranks == (2, 2)
        assert [rec["step"] for rec in model.history] == ["U", "V", "U", "V"]
        sq_error = np.sum((t - model.to_tensor()) ** 2)
        expect = np.sum(t**2) - np.sum(model.G**2)
        assert sq_error == pytest.approx(expect, rel=1e-10)
        assert model.history[-1]["sq_error"] == pytest.approx(expect, rel=1e-10)

    def test_param_count_matches_objective(self):
        rng = np.random.default_rng(17)
        t = rng.standard_normal((4, 9, 8))
        model = tucker2_bounded(t, 0.2 * np.linalg.norm(t))
        r1, r2 = model.ranks
        assert model.param_count() == r1 * 9 + r2 * 8 + r1 * r2 * 4

    def test_errors(self):
        with pytest.raises(ValueError):
            tucker2_bounded(np.zeros((2, 2, 2)), -1.0)
        with pytest.raises(ValueError):
            tucker2_bounded(np.zeros((2, 2)), 0.0)

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            tucker2_bounded(np.ones((2, 3, 4)), float("nan"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(1, 5), st.integers(1, 8), st.integers(1, 8)),
    structure=st.floats(0.0, 1.0),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_bounded_pythagorean_identity(dims, structure, frac, seed):
    # low multilinear rank plus noise, so the bound selects varied ranks
    rng = np.random.default_rng(seed)
    ranks = (int(rng.integers(1, dims[1] + 1)), int(rng.integers(1, dims[2] + 1)))
    clean, _ = random_tucker2_tensor(rng, dims, ranks)
    t = structure * clean + (1 - structure) * rng.standard_normal(dims)
    norm2 = np.sum(t**2)
    delta = frac * np.sqrt(norm2)
    model = tucker2_bounded(t, delta)
    sq_error = np.sum((t - model.to_tensor()) ** 2)
    assert abs(sq_error - (norm2 - np.sum(model.G**2))) <= 1e-10 * max(norm2, 1e-300)
    assert sq_error <= delta**2 + 1e-10 * norm2


def hooi_oracle(tensor, delta, ranks=None):
    """The bounded solver with every step an ``eigh`` of the full projected
    Gram (``build_q1``/``build_q2``), starting from V = I.  Returns (U, V,
    history) with the solver's history records."""
    _, _, t = tensor.shape
    norm2 = float(np.linalg.norm(tensor)) ** 2  # the solver's, to the last bit
    bound = norm2 - delta**2
    history = []

    def step(q, label, other):
        w, vecs = np.linalg.eigh(q)
        fixed = None if ranks is None else ranks["UV".index(label)]
        rank, energy = _cut(w[::-1], bound, fixed)
        history.append({"step": label,
                        "ranks": (rank, other) if label == "U" else (other, rank),
                        "energy": energy, "sq_error": max(norm2 - energy, 0.0)})
        vecs = vecs[:, ::-1][:, :rank]
        return vecs * _column_signs(vecs)

    v = np.eye(t)
    for _ in range(_ALTERNATIONS):
        u = step(build_q1(tensor, v), "U", v.shape[1])
        v = step(build_q2(tensor, u), "V", u.shape[1])
    return u, v, history


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(1, 9), st.integers(1, 12), st.integers(1, 12)),
    frac=st.floats(0.0, 1.0),
    fixed=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_bounded_matches_full_gram_oracle(dims, frac, fixed, seed):
    # wide projected unfoldings take eigh of P P' and a QR, tall ones the
    # Gram: both must give the steps of eigh on the full Gram
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(dims)
    d2 = dims[0]
    ranks = None
    if fixed:
        ranks = (int(rng.integers(1, dims[1] + 1)), int(rng.integers(1, dims[2] + 1)))
    delta = frac * np.linalg.norm(t)
    u_ref, v_ref, hist_ref = hooi_oracle(t, delta, ranks)
    # a cut past a later step's row count keeps null-space vectors, which
    # no solver determines (see test_fixed_ranks_above_the_wide_side_kept)
    for rec in hist_ref[1:]:
        r1, r2 = rec["ranks"]
        kept, other = (r1, r2) if rec["step"] == "U" else (r2, r1)
        assume(kept <= d2 * other)
    model = tucker2_bounded(t, delta, ranks=ranks)
    assert [rec["ranks"] for rec in model.history] == [rec["ranks"] for rec in hist_ref]
    for got, want in zip(model.history, hist_ref):
        assert abs(got["energy"] - want["energy"]) <= 1e-12 * want["energy"]
    assert np.allclose(model.U, u_ref, rtol=0, atol=1e-8)
    assert np.allclose(model.V, v_ref, rtol=0, atol=1e-8)


def test_fixed_ranks_above_the_wide_side_kept():
    # the V-steps factor a 2 x 7 unfolding, yet 5 columns are asked for:
    # they come from the null space, through the complete QR
    rng = np.random.default_rng(0)
    t = rng.standard_normal((1, 6, 7))
    model = tucker2_bounded(t, 0.0, ranks=(2, 5))
    assert model.ranks == (2, 5)
    assert np.max(np.abs(model.V.T @ model.V - np.eye(5))) < 1e-12
    sq_error = np.sum((t - model.to_tensor()) ** 2)
    assert sq_error == pytest.approx(np.sum(t**2) - np.sum(model.G**2), rel=1e-10)


@pytest.mark.parametrize("dims, ranks, tall", [
    ((9, 12, 10), None, True),
    ((2, 12, 40), None, False),
    ((4, 12, 10), (2, 3), False),
], ids=["tall", "wide", "fixed"])
def test_core_is_the_closed_form_without_calling_it(monkeypatch, dims, ranks, tall):
    # the core is the last V-step's stack U' K(d) times V, the product
    # core_closed_form computes; the solver makes no extra pass for it
    rng = np.random.default_rng(0)
    t, _ = random_tucker2_tensor(rng, dims, (3, 3))
    t += 0.05 * np.linalg.norm(t) * rng.standard_normal(t.shape) / np.sqrt(t.size)
    calls = []
    monkeypatch.setattr(tucker2, "core_closed_form", lambda *args: calls.append(args))
    model = tucker2_bounded(t, 0.1 * np.linalg.norm(t), ranks=ranks)
    assert calls == []
    # the last V-step's stack has D2 R1 rows and T columns
    assert (dims[0] * model.ranks[0] >= dims[2]) is tall
    assert np.array_equal(model.G, core_closed_form(t, model.U, model.V))


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_wide_cut_sees_the_grams_n_eigenvalues(rows):
    # a bound within roundoff above ||P||^2 runs the cut past the m nonzero
    # eigenvalues: it keeps all n, as eigh of the n x n Gram does
    p = np.random.default_rng(rows).standard_normal((rows, 5))
    bound = np.sum(p**2) * (1 + 1e-11)
    basis, energy = _leading_right_vecs(p[None], bound)
    ref, ref_energy = _leading_eigvecs(p.T @ p, bound)
    assert basis.shape == ref.shape == (5, 5)
    assert np.max(np.abs(basis.T @ basis - np.eye(5))) < 1e-12
    assert energy == pytest.approx(ref_energy, rel=1e-12)


@pytest.mark.parametrize("rank", [6, 9], ids=["every-row", "past-m"])
@pytest.mark.parametrize("span", [1e12, 1e15])
def test_wide_step_keeps_a_wide_span_with_one_qr(monkeypatch, span, rank):
    # a 6 x 11 P whose singular values fall geometrically, so that the kept
    # eigenvalues of P P' span `span`: P' u of the smallest is about eps
    # times the largest off the exact direction, and the QR must still give
    # an orthonormal basis holding the reported energy, with no SVD
    rng = np.random.default_rng(5)
    sigma = span ** (-np.arange(6) / 10)
    u = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    v = np.linalg.qr(rng.standard_normal((11, 6)))[0]
    p = (u * sigma) @ v.T
    norm2 = np.sum(sigma**2)

    def no_svd(*args, **kwargs):
        raise AssertionError("a wide step took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    basis, energy = _leading_right_vecs(p[None], 0.0, rank)
    assert basis.shape == (11, rank)
    assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) < 1e-12
    assert abs(np.sum((p @ basis) ** 2) - energy) <= 1e-12 * norm2
    assert energy == pytest.approx(norm2, rel=1e-12)


@pytest.mark.parametrize("make", [
    lambda rng: rng.standard_normal((1, 9, 4)),                       # tall
    lambda rng: rng.standard_normal((1, 3, 8)),                       # wide
    lambda rng: rng.standard_normal((4, 3, 7)),                       # tall, 4 slices
    lambda rng: rng.standard_normal((3, 2, 9)),                       # wide, 3 slices
    lambda rng: np.swapaxes(rng.standard_normal((9, 6, 5)), 1, 2),    # strided view
    lambda rng: np.swapaxes(rng.standard_normal((2, 11, 3)), 1, 2),   # wide view
], ids=["tall", "wide", "tall-slices", "wide-slices", "view", "wide-view"])
@pytest.mark.parametrize("share", [0.5, 0.9])
def test_slice_stack_step_matches_the_stacked_grams_eigvecs(make, share):
    # the step reads P through its slices; the reference copies P out
    stack = make(np.random.default_rng(3))
    p = stack.reshape(-1, stack.shape[2])
    bound = share * np.sum(p**2)
    basis, energy = _leading_right_vecs(stack, bound)
    ref, ref_energy = _leading_eigvecs(p.T @ p, bound)
    assert basis.shape == ref.shape
    assert energy == pytest.approx(ref_energy, rel=1e-12)
    assert np.max(np.abs(basis @ basis.T - ref @ ref.T)) < 1e-10


@pytest.mark.parametrize("dims, delta_rel, ranks", [
    ((2, 12, 10), 0.3, None),      # tall first step, wide later ones
    ((1, 6, 7), 0.0, (2, 5)),      # wide steps completed by the complete QR
], ids=["bounded", "completed"])
def test_factors_do_not_depend_on_lapack_signs(monkeypatch, dims, delta_rel, ranks):
    t = np.random.default_rng(1).standard_normal(dims)
    delta = delta_rel * np.linalg.norm(t)
    ref = tucker2_bounded(t, delta, ranks=ranks)
    eigh = np.linalg.eigh

    def negated_eigh(a, *args, **kwargs):
        w, vecs = eigh(a, *args, **kwargs)
        return w, -vecs

    monkeypatch.setattr(np.linalg, "eigh", negated_eigh)
    flipped = tucker2_bounded(t, delta, ranks=ranks)
    for got, want in ((flipped.U, ref.U), (flipped.V, ref.V), (flipped.G, ref.G)):
        assert np.array_equal(got, want)


def channel_spectrum_tensor(rng, dims, sq_sigma, w=None):
    """Tensor whose mode-1 Gram (V = I) is exactly ``W diag(sq_sigma) W'``:
    slices ``K(d) = W diag(sigma) Z_d V'`` with ``[Z_1 ... Z_D]`` of
    orthonormal rows and W (random unless given), V orthonormal."""
    d2, s, t = dims
    r = len(sq_sigma)
    r2 = min(t, -(-r // d2) + 4)
    if w is None:
        w = np.linalg.qr(rng.standard_normal((s, r)))[0]
    v = np.linalg.qr(rng.standard_normal((t, r2)))[0]
    z = np.linalg.qr(rng.standard_normal((d2 * r2, r)))[0].T.reshape(r, d2, r2)
    sigma = np.sqrt(np.asarray(sq_sigma, dtype=np.float64))
    return np.einsum("sr,r,rdq,tq->dst", w, sigma, z, v)


def power_law_tensor(rng, dims, exponent=0.75):
    """Gaussian core with channel spectra ``i^-exponent`` on both modes: a
    slow spectrum, as in trained kernels."""
    d2, s, t = dims
    u = np.linalg.qr(rng.standard_normal((s, s)))[0] * np.arange(1, s + 1) ** -exponent
    v = np.linalg.qr(rng.standard_normal((t, t)))[0] * np.arange(1, t + 1) ** -exponent
    return u @ rng.standard_normal(dims) @ v.T


def spectrum_case(kind, rng, dims):
    """(tensor, delta) of one family of the block-path property."""
    if kind == "zero":
        return np.zeros(dims), float(rng.uniform(0, 1))
    if kind == "slow":
        t = power_law_tensor(rng, dims)
        return t, float(rng.uniform(0.1, 0.5)) * np.linalg.norm(t)
    if kind == "tie":
        # the cut falls on the first of two eigenvalues a relative gap apart
        k = int(rng.integers(2, 12))
        sq = np.sort(rng.uniform(1, 4, k + 8))[::-1]
        sq[k] = sq[k - 1] * (1 - rng.choice([0.0, 1e-14, 1e-9, 1e-6]))
        t = channel_spectrum_tensor(rng, dims, sq)
        bound = np.sum(sq[:k]) - 0.5 * sq[k - 1]
        return t, float(np.sqrt(np.sum(sq) - bound))
    ranks = (int(rng.integers(1, 21)), int(rng.integers(1, 21)))
    t, _ = random_tucker2_tensor(rng, dims, ranks)
    if kind == "noisy":
        noise = rng.standard_normal(dims)
        level = rng.choice([1e-3, 1e-2, 5e-2])
        t += level * np.linalg.norm(t) * noise / np.linalg.norm(noise)
    return t, float(rng.uniform(0.02, 0.5)) * np.linalg.norm(t)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["noisy", "exact", "tie", "slow", "zero"]),
    dims=st.tuples(st.integers(1, 4), st.integers(4 * _BLOCK, 4 * _BLOCK + 40),
                   st.integers(4 * _BLOCK, 4 * _BLOCK + 40)),
    seed=st.integers(0, 2**16),
)
def test_block_path_matches_full_gram_oracle(kind, dims, seed):
    # the first U-step's Gram is n x n with n >= 4 _BLOCK, so the block
    # iteration runs; certified or not, every step must be eigh's
    t, delta = spectrum_case(kind, np.random.default_rng(seed), dims)
    norm2 = np.sum(t**2)
    u_ref, v_ref, hist_ref = hooi_oracle(t, delta)
    model = tucker2_bounded(t, delta)
    assert [rec["ranks"] for rec in model.history] == [rec["ranks"] for rec in hist_ref]
    for got, want in zip(model.history, hist_ref):
        assert abs(got["energy"] - want["energy"]) <= 1e-12 * want["energy"]
        assert got["sq_error"] <= delta**2 + 1e-10 * norm2
    for got, want in ((model.U, u_ref), (model.V, v_ref)):
        assert np.max(np.abs(got @ got.T - want @ want.T), initial=0) <= 1e-10
        assert np.max(np.abs(got.T @ got - np.eye(got.shape[1])), initial=0) <= 1e-12


def eigh_sizes(monkeypatch):
    """Record the order of every matrix np.linalg.eigh factors."""
    sizes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


def test_low_rank_256_channel_kernel_takes_no_full_eigh(monkeypatch):
    # rank 12 plus 1% noise at 9 x 256 x 256: the first U-step is certified
    # from the block, and every later step is wide (m = 9 * 12 < 256)
    rng = np.random.default_rng(5)
    t, _ = random_tucker2_tensor(rng, (9, 256, 256), (12, 12))
    noise = rng.standard_normal(t.shape)
    t += 0.01 * np.linalg.norm(t) * noise / np.linalg.norm(noise)
    sizes = eigh_sizes(monkeypatch)
    model = tucker2_bounded(t, 0.05 * np.linalg.norm(t))
    assert model.ranks == (12, 12)
    assert sizes and max(sizes) < 256


@pytest.mark.parametrize("kind, certified", [
    ("noisy", True), ("exact", True), ("tie", False), ("slow", False),
])
def test_block_path_certifies_separated_cuts_only(monkeypatch, kind, certified):
    # a separated cut is certified; a tied or slowly decaying spectrum
    # takes the full eigh of the first U-step's 140 x 140 Gram
    dims = (3, 140, 150)
    t, delta = spectrum_case(kind, np.random.default_rng(1), dims)
    if kind == "tie":  # exactly tied
        sq = np.linspace(4, 1, 14)
        sq[6] = sq[5]
        t = channel_spectrum_tensor(np.random.default_rng(1), dims, sq)
        delta = np.sqrt(np.sum(sq[6:]) + 0.5 * sq[5])
    sizes = eigh_sizes(monkeypatch)
    tucker2_bounded(t, delta)
    assert (140 not in sizes) is certified


def test_block_start_blind_to_the_top_eigenvector_is_not_certified(monkeypatch):
    # the start columns (largest diagonal) lie in span(e_0 .. e_39), an
    # invariant subspace of the Gram, while the top eigenvector lives on
    # the other coordinates: the iteration converges, to the wrong
    # subspace, and only the energy left outside the block shows it
    n = 4 * _BLOCK
    w = np.zeros((n, 41))
    w[:40, :40] = np.eye(40)
    w[40:, 40] = 1 / np.sqrt(n - 40)
    sq = np.concatenate([np.linspace(9, 1, 40), [30.0]])
    t = channel_spectrum_tensor(np.random.default_rng(4), (3, n, n + 10), sq, w=w)
    delta = np.sqrt(0.3 * np.sum(sq))
    u_ref, _, hist_ref = hooi_oracle(t, delta)
    sizes = eigh_sizes(monkeypatch)
    model = tucker2_bounded(t, delta)
    assert n in sizes
    assert [rec["ranks"] for rec in model.history] == [rec["ranks"] for rec in hist_ref]
    assert np.max(np.abs(model.U @ model.U.T - u_ref @ u_ref.T)) <= 1e-10


def test_block_path_factors_do_not_depend_on_lapack_signs(monkeypatch):
    rng = np.random.default_rng(2)
    t, _ = random_tucker2_tensor(rng, (2, 4 * _BLOCK, 4 * _BLOCK + 8), (5, 6))
    t += 1e-3 * np.linalg.norm(t) * rng.standard_normal(t.shape) / np.sqrt(t.size)
    delta = 0.1 * np.linalg.norm(t)
    ref = tucker2_bounded(t, delta)
    eigh = np.linalg.eigh

    def negated_eigh(a, *args, **kwargs):
        w, vecs = eigh(a, *args, **kwargs)
        return w, -vecs

    monkeypatch.setattr(np.linalg, "eigh", negated_eigh)
    flipped = tucker2_bounded(t, delta)
    for got, want in ((flipped.U, ref.U), (flipped.V, ref.V), (flipped.G, ref.G)):
        assert np.array_equal(got, want)
