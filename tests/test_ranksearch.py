import math
import sys

import numpy as np
import pytest

import convfactor.ranksearch as rs
from conftest import random_cp_tensor
from convfactor import ConvSpec, Evaluator, EvaluatorError, approx_error_proxy
from convfactor import binary_search_rank, decompose_to_block, restore_kernel
from convfactor import write_tensor


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
        result = binary_search_rank(None, "cpd", Evaluator(eps=0.05), 10, 40)
        assert result.rank == 30
        assert result.met

    def test_eps_larger_than_everything(self, monkeypatch):
        patch_scores(monkeypatch, lambda r: 0.9)
        result = binary_search_rank(None, "cpd", Evaluator(eps=1.0), 3, 17)
        assert result.rank == 3
        assert result.met

    def test_never_met_flag(self, monkeypatch):
        patch_scores(monkeypatch, lambda r: 1.0)
        result = binary_search_rank(None, "cpd", Evaluator(eps=0.5), 1, 9)
        assert result.rank == 9
        assert not result.met

    def test_eval_budget(self, monkeypatch):
        calls = patch_scores(monkeypatch, lambda r: 1.0 / r)
        r_min, r_max = 1, 16
        binary_search_rank(None, "cpd", Evaluator(eps=0.11), r_min, r_max)
        assert len(set(calls)) <= math.ceil(math.log2(r_max - r_min)) + 1

    @pytest.mark.parametrize("threshold", [2, 5, 11, 13])
    def test_matches_linear_scan(self, monkeypatch, threshold):
        def step(rank):
            return 0.0 if rank >= threshold else 1.0

        patch_scores(monkeypatch, step)
        result = binary_search_rank(None, "cpd", Evaluator(eps=0.5), 1, 13)
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
            binary_search_rank(None, "cpd", Evaluator(), 5, 4)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan])
def test_evaluator_rejects_non_positive_eps(eps):
    with pytest.raises(ValueError):
        Evaluator(eps=eps)


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
        # rank 3 plus 2% noise, fitted at rank 6: there the mixed and the
        # random ALS init reach different errors
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
            Evaluator(kind="external-command", eps=1e-8, command=cmd),
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
                Evaluator(kind="external-command", eps=1e-8, command=cmd),
                1,
                4,
                kernel_path=kpath,
                conv_spec=ConvSpec(5, 6, 3),
            )
        assert "boom" in e.value.captured

    def test_unparsable_output_raises(self, tmp_path):
        rng = np.random.default_rng(7)
        t, kpath = self.make_kernel(tmp_path, rng)
        cmd = self.write_script(tmp_path, "print('not a number')\n")
        with pytest.raises(EvaluatorError):
            binary_search_rank(
                t,
                "cpd",
                Evaluator(kind="external-command", eps=1e-8, command=cmd),
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
                Evaluator(kind="external-command", eps=1.0, command="true"),
                1,
                2,
            )
