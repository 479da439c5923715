import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convfactor.ranksearch as rs
from conftest import random_cp_tensor
from convfactor import (
    ConvSpec,
    Evaluator,
    binary_search_rank,
    reshape_kernel,
    restore_kernel,
)
from convfactor.fileio import write_tensor
from convfactor.pipeline import decompose_to_block
from convfactor.ranksearch import EvaluatorError, _rank_floor, approx_error_proxy
from convfactor.tensorops import _finite_norm

# the searched tensor of the tests whose scores are faked: it only has to pass
# the search's input check
ZERO = np.zeros((2, 2, 2))


def patch_scores(monkeypatch, fn):
    calls = []

    def fake(tensor, method, rank, seed=0, ranks=None, theta=0.5):
        calls.append(rank)
        return fn(rank)

    monkeypatch.setattr(rs, "approx_error_proxy", fake)
    return calls


class TestBinarySearch:
    def test_forced_monotone_table(self, monkeypatch):
        table = {10: 0.5, 20: 0.2, 30: 0.05, 40: 0.01}

        def step(rank):
            keys = [k for k in table if k <= rank]
            return table[max(keys)] if keys else 1.0

        patch_scores(monkeypatch, step)
        result = binary_search_rank(ZERO, "cpd", Evaluator(eps=0.05), 10, 40)
        assert result.rank == 30
        assert result.met

    def test_eps_larger_than_everything(self, monkeypatch):
        patch_scores(monkeypatch, lambda r: 0.9)
        result = binary_search_rank(ZERO, "cpd", Evaluator(eps=1.0), 3, 17)
        assert result.rank == 3
        assert result.met

    def test_never_met_flag(self, monkeypatch):
        patch_scores(monkeypatch, lambda r: 1.0)
        result = binary_search_rank(ZERO, "cpd", Evaluator(eps=0.5), 1, 9)
        assert result.rank == 9
        assert not result.met

    def test_eval_budget(self, monkeypatch):
        calls = patch_scores(monkeypatch, lambda r: 1.0 / r)
        r_min, r_max = 1, 16
        binary_search_rank(ZERO, "cpd", Evaluator(eps=0.11), r_min, r_max)
        assert len(set(calls)) <= math.ceil(math.log2(r_max - r_min)) + 1
        # a one-rank range: the budget ceil(log2(1)) + 1 is the one evaluation
        calls.clear()
        result = binary_search_rank(ZERO, "cpd", Evaluator(eps=0.11), 7, 7)
        assert calls == [7] and result.n_evals == 1

    @pytest.mark.parametrize("threshold", [2, 5, 11, 13])
    def test_matches_linear_scan(self, monkeypatch, threshold):
        def step(rank):
            return 0.0 if rank >= threshold else 1.0

        patch_scores(monkeypatch, step)
        result = binary_search_rank(ZERO, "cpd", Evaluator(eps=0.5), 1, 13)
        linear = min(r for r in range(1, 14) if step(r) <= 0.5)
        assert result.rank == linear == threshold

    def test_construct_then_search_exact_rank(self):
        rng = np.random.default_rng(0)
        t, _ = random_cp_tensor(rng, (6, 7, 8), 5)
        result = binary_search_rank(t, "cpd", Evaluator(eps=1e-8), 1, 16)
        assert result.rank == 5
        assert result.met
        assert result.n_evals <= math.ceil(math.log2(15)) + 1

    def test_bad_range(self):
        with pytest.raises(ValueError):
            binary_search_rank(ZERO, "cpd", Evaluator(), 5, 4)

    def test_default_r_max_follows_fixed_ranks(self):
        # the 9 x 6 x 5 core has an exact CP of rank 30 = R1 R2, the default
        # r_max, as in `rank-search --ranks 6,5` without --rmax
        kernel = np.random.default_rng(0).standard_normal((3, 3, 12, 10))
        t = reshape_kernel(kernel)
        result = binary_search_rank(t, "tkd-cpd-epc", Evaluator(eps=0.1), 1,
                                    ranks=(6, 5))
        assert (result.rank, result.n_evals) == (30, 5)
        assert max(result.scores) == 30

    def test_default_r_max_is_the_full_cp_rank_bound(self, monkeypatch):
        # min(D^2 S, D^2 T, S T) of a 1 x 6 x 5 tensor is 5
        patch_scores(monkeypatch, lambda r: 1.0)
        result = binary_search_rank(np.zeros((1, 6, 5)), "cpd", Evaluator(), 1)
        assert not result.met and result.rank == 5


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_evaluator_rejects_non_positive_eps(eps):
    with pytest.raises(ValueError):
        Evaluator(eps=eps)


def test_empty_command_selects_the_proxy(monkeypatch):
    # rank-search --evaluator '' scores with the proxy, as with no command
    calls = patch_scores(monkeypatch, lambda r: 0.0 if r >= 3 else 1.0)
    result = binary_search_rank(ZERO, "cpd", Evaluator(eps=0.5, command=""), 1, 4)
    assert result.rank == 3 and calls


@pytest.mark.parametrize("command", ["python 'score.py", "   ", "\t\n"])
def test_evaluator_rejects_a_command_that_names_no_program(command):
    with pytest.raises(ValueError, match="^--evaluator"):
        Evaluator(command=command)


def orthogonal_cp_kernel(seed, channels=16, rank=8, decay=0.9, noise=0.02):
    """A (9, S, S) tensor of the rank-search-64 family: unit first-mode
    columns, orthonormal channel factors, weights decay**r, 2% noise."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((9, rank))
    a /= np.linalg.norm(a, axis=0)
    b, c = (np.linalg.qr(rng.standard_normal((channels, rank)))[0] for _ in range(2))
    t = np.einsum("ir,jr,kr->ijk", a * decay ** np.arange(rank), b, c)
    bump = rng.standard_normal(t.shape)
    return t + noise * np.linalg.norm(t) * bump / np.linalg.norm(bump)


@st.composite
def floor_problems(draw):
    """(tensor, method, ranks, eps): a small CP-plus-noise or Gaussian
    tensor, with every method the proxy scores."""
    method = draw(st.sampled_from(["cpd", "cpd-epc", "tkd-cpd-epc", "svd"]))
    d2 = 1 if method == "svd" else draw(st.integers(1, 9))
    s, t = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        tensor, _ = random_cp_tensor(rng, (d2, s, t), draw(st.integers(1, 6)))
        bump = rng.standard_normal(tensor.shape)
        noise = draw(st.sampled_from([0.0, 1e-3, 0.05]))
        tensor += noise * np.linalg.norm(tensor) * bump / np.linalg.norm(bump)
    else:
        tensor = rng.standard_normal((d2, s, t))
    ranks = None
    if method == "tkd-cpd-epc":
        ranks = (draw(st.integers(1, s)), draw(st.integers(1, t)))
    return tensor, method, ranks, draw(st.sampled_from([1e-6, 0.02, 0.1, 0.3]))


class TestRankFloor:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(problem=floor_problems())
    def test_no_rank_below_the_floor_meets_eps(self, problem):
        # a rank-R CP model's channel unfoldings have rank <= R: no fit at a
        # rank below the floor, of any method, gets within eps
        tensor, method, ranks, eps = problem
        floor = _rank_floor(_finite_norm(tensor), eps)
        assert 1 <= floor <= max(tensor.shape[1:])
        for rank in range(1, floor):
            assert approx_error_proxy(tensor, method, rank, ranks=ranks) > eps

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(r_min=st.integers(1, 20), width=st.integers(0, 25),
           scores=st.lists(st.floats(0.0, 1.0), min_size=50, max_size=50),
           eps=st.floats(0.01, 0.99), data=st.data())
    def test_matches_linear_scan_within_budget(self, r_min, width, scores, eps, data):
        # non-increasing faked scores, and any floor that rules out only
        # ranks that miss eps
        scores = sorted(scores, reverse=True)
        r_max = r_min + width
        first = next((r for r in range(1, 51) if scores[r - 1] <= eps), 51)
        floor = data.draw(st.integers(1, first))
        calls = []

        def fake(tensor, method, rank, seed=0, ranks=None):
            calls.append(rank)
            return scores[rank - 1]

        with mock.patch.object(rs, "approx_error_proxy", fake), \
                mock.patch.object(rs, "_rank_floor", lambda checked, eps: floor):
            result = binary_search_rank(ZERO, "cpd", Evaluator(eps=eps), r_min, r_max)
        linear = next((r for r in range(r_min, r_max + 1) if scores[r - 1] <= eps),
                      r_max)
        assert (result.rank, result.met) == (linear, scores[linear - 1] <= eps)
        assert result.floor == floor
        budget = math.ceil(math.log2(width + 1)) + 1
        assert len(calls) == len(set(calls)) <= budget

    @pytest.mark.parametrize("method", ["cpd", "cpd-epc"])
    def test_a_tight_floor_takes_one_evaluation(self, monkeypatch, method):
        # rank 8 over ranks 1 to 12: the spectra rule out ranks 1 to 7, and
        # rank 8 meets eps, so one fit decides; the search without the floor
        # scores 4 ranks to reach the same rank and score
        t = orthogonal_cp_kernel(0)
        result = binary_search_rank(t, method, Evaluator(eps=0.05), 1, 12)
        monkeypatch.setattr(rs, "_rank_floor", lambda checked, eps: 1)
        plain = binary_search_rank(t, method, Evaluator(eps=0.05), 1, 12)
        assert (result.floor, result.n_evals) == (8, 1)
        assert (result.rank, result.score, result.met) == (plain.rank, plain.score,
                                                           plain.met)
        assert plain.n_evals == 4

    def test_svd_floor_is_the_truncated_svd_rank(self):
        # on a 1x1 kernel the floor is exact: the smallest rank whose
        # truncated SVD is within eps, found in one evaluation
        rng = np.random.default_rng(3)
        t = rng.standard_normal((1, 12, 16)) * 0.7 ** np.arange(12)[:, None]
        sv = np.linalg.svd(t[0], compute_uv=False)
        tails = np.sqrt(np.cumsum(sv[::-1] ** 2)[::-1] / np.sum(sv**2))
        expected = next(r for r in range(1, 13) if r == 12 or tails[r] <= 0.05)
        result = binary_search_rank(t, "svd", Evaluator(eps=0.05), 1)
        assert (result.rank, result.floor, result.n_evals) == (expected, expected, 1)


class TestApproxErrorProxy:
    def test_exact_rank_reaches_zero(self):
        rng = np.random.default_rng(1)
        t, _ = random_cp_tensor(rng, (5, 6, 7), 3)
        assert approx_error_proxy(t, "cpd", 3) <= 1e-6
        assert approx_error_proxy(t, "cpd", 4) <= 1e-6

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            approx_error_proxy(np.zeros((2, 2, 2)), "cpd", 0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            approx_error_proxy(np.zeros((2, 2, 2)), "qr", 1)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((4, 5, 6))
        assert approx_error_proxy(t, "cpd", 2, seed=3) == approx_error_proxy(
            t, "cpd", 2, seed=3
        )

    def test_non_increasing_on_visited_ranks(self):
        rng = np.random.default_rng(3)
        t, _ = random_cp_tensor(rng, (6, 6, 6), 4)
        result = binary_search_rank(t, "cpd", Evaluator(eps=1e-8), 1, 8)
        visited = sorted(result.scores)
        vals = [result.scores[r] for r in visited]
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))

    @pytest.mark.parametrize("method", ["cpd-epc", "tkd-cpd-epc"])
    def test_corrected_methods_reach_exact_fit(self, method):
        rng = np.random.default_rng(4)
        t, _ = random_cp_tensor(rng, (5, 5, 5), 2)
        assert approx_error_proxy(t, method, 3) <= 1e-6

    @pytest.mark.parametrize(
        "method, d, ranks",
        [
            ("cpd", 3, None),
            ("cpd-epc", 3, None),
            ("tkd-cpd-epc", 3, (6, 6)),
            ("svd", 1, None),
        ],
    )
    def test_score_is_the_delivered_error(self, method, d, ranks):
        # rank 3 plus 2% noise, fitted at rank 6: an over-rank fit whose CP
        # restarts run to their sweep cap, so the random restarts decide
        # the error
        rng = np.random.default_rng(0)
        t, _ = random_cp_tensor(rng, (d * d, 8, 8), 3)
        bump = rng.standard_normal(t.shape)
        t += 0.02 * np.linalg.norm(t) * bump / np.linalg.norm(bump)
        score = approx_error_proxy(t, method, 6, seed=3, ranks=ranks)
        block, _ = decompose_to_block(
            t, method, 6, ConvSpec(8, 8, d), seed=3, ranks=ranks
        )
        assert score == block.metrics["rel_error"]


class TestExternalEvaluator:
    def make_kernel(self, tmp_path, rng):
        t, _ = random_cp_tensor(rng, (9, 5, 6), 3)
        path = tmp_path / "k.kten"
        write_tensor(path, restore_kernel(t, 3))
        return t, path

    def write_script(self, tmp_path, body):
        script = tmp_path / "score.py"
        script.write_text(body)
        return f"{sys.executable} {script}"

    def test_contract_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        t, kpath = self.make_kernel(tmp_path, rng)
        cmd = self.write_script(
            tmp_path,
            "import json, sys\n"
            "doc = json.load(open(sys.argv[1]))\n"
            "print(doc['metrics']['rel_error'])\n",
        )
        spec = ConvSpec(5, 6, 3)
        result = binary_search_rank(
            t,
            "cpd",
            Evaluator(eps=1e-8, command=cmd),
            1,
            8,
            kernel_path=kpath,
            conv_spec=spec,
        )
        assert result.rank == 3
        assert result.met

    def test_nonzero_exit_raises(self, tmp_path):
        rng = np.random.default_rng(6)
        t, kpath = self.make_kernel(tmp_path, rng)
        cmd = self.write_script(
            tmp_path, "import sys\nsys.stderr.write('boom')\nsys.exit(2)\n"
        )
        with pytest.raises(EvaluatorError) as e:
            binary_search_rank(
                t,
                "cpd",
                Evaluator(eps=1e-8, command=cmd),
                1,
                4,
                kernel_path=kpath,
                conv_spec=ConvSpec(5, 6, 3),
            )
        assert "boom" in e.value.captured

    @pytest.mark.parametrize("output", ["not a number", "nan", "inf", "-inf"])
    def test_unparsable_output_raises(self, tmp_path, output):
        # a score that is not finite breaks the contract too: --json would
        # print it as NaN or Infinity, which is not JSON
        rng = np.random.default_rng(7)
        t, kpath = self.make_kernel(tmp_path, rng)
        cmd = self.write_script(tmp_path, f"print({output!r})\n")
        with pytest.raises(EvaluatorError):
            binary_search_rank(
                t,
                "cpd",
                Evaluator(eps=1e-8, command=cmd),
                1,
                4,
                kernel_path=kpath,
                conv_spec=ConvSpec(5, 6, 3),
            )

    def test_missing_context_rejected(self):
        with pytest.raises(ValueError):
            binary_search_rank(
                np.zeros((2, 2, 2)),
                "cpd",
                Evaluator(eps=1.0, command="true"),
                1,
                2,
            )
