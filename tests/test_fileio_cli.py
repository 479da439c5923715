import contextlib
import dataclasses
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import degenerate_pair, hybrid_structured_tensor, random_cp_tensor
from convfactor import (
    ConvSpec,
    CPModel,
    compose_forward,
    conv2d_reference,
    count_params_flops,
    emit_cpd_block,
    monte_carlo_sensitivity,
    reshape_kernel,
    restore_kernel,
    sensitivity,
)
from convfactor import cli, convblocks, cpd, epc, hybrid, pipeline, ranksearch, tucker2
from convfactor.cli import main
from convfactor.convblocks import block_factors, block_to_kernel
from convfactor.cpd import balance_components, rel_error
from convfactor.errors import InfeasibleBoundError, TensorFileError
from convfactor.fileio import (
    MAGIC,
    Block,
    read_block,
    read_tensor,
    read_tensor_matrices,
    write_block,
    write_tensor,
)
from convfactor.pipeline import METHODS, decompose_to_block, fit
from convfactor.tensorops import _Checked, _finite_norm

SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def make_kernel_file(tmp_path, rng, dims=(9, 5, 6), rank=3, name="k.kten"):
    t, _ = random_cp_tensor(rng, dims, rank)
    d = int(np.sqrt(dims[0]))
    path = tmp_path / name
    write_tensor(path, restore_kernel(t, d))
    return path


class TestTensorFile:
    def test_roundtrip_f64_bitwise(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((3, 4, 5))
        path = tmp_path / "t.kten"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)
        write_tensor(path, back)
        assert np.array_equal(read_tensor(path), arr)

    def test_roundtrip_f32(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((2, 3)).astype(np.float32)
        path = tmp_path / "t.kten"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.kten"
        path.write_bytes(b"NOPE!\n{}")
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        arr = np.zeros((4, 4))
        path = tmp_path / "t.kten"
        write_tensor(path, arr)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TensorFileError):
            read_tensor(path)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matrices_are_the_slices_of_the_tensor(self, tmp_path, dtype):
        arr = np.random.default_rng(2).standard_normal((3, 2, 4, 5)).astype(dtype)
        path = tmp_path / "t.kten"
        write_tensor(path, arr)
        shape, matrices = read_tensor_matrices(path)
        assert shape == (3, 2, 4, 5)
        got = list(matrices)
        assert len(got) == 6
        for m, want in zip(got, arr.reshape(6, 4, 5)):
            assert m.dtype == dtype
            assert np.array_equal(m, want)

    def test_matrices_of_a_truncated_payload(self, tmp_path):
        path = tmp_path / "t.kten"
        write_tensor(path, np.zeros((2, 4, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TensorFileError, match="payload is 248 bytes, expected 256"):
            read_tensor_matrices(path)
        # a file cut short after the check fails when the cut is reached
        path.write_bytes(data)
        _, matrices = read_tensor_matrices(path)
        path.write_bytes(data[:-8])
        assert next(matrices).shape == (4, 4)
        with pytest.raises(TensorFileError, match="payload ends early"):
            next(matrices)

    def test_matrices_need_order_two(self, tmp_path):
        path = tmp_path / "t.kten"
        write_tensor(path, np.zeros(4))
        with pytest.raises(TensorFileError, match="order >= 2"):
            read_tensor_matrices(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.kten"
        path.write_bytes(b"KTEN1\nnot json\n")
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TensorFileError):
            read_tensor(tmp_path / "absent.kten")

    @pytest.mark.parametrize(
        "header, payload",
        [
            (b"[1, 2]", b""),  # not a JSON object
            (b'{"dtype": "f64", "shape": [-1, 0]}', b""),
            (b'{"dtype": "f64", "shape": [1.5, 2]}', bytes(16)),
            (b'{"dtype": ["f64"], "shape": [1]}', bytes(8)),
            (b"\xff\xfe{}", b""),
        ],
    )
    def test_malformed_header_exits_2(self, tmp_path, capsys, header, payload):
        path = tmp_path / "t.kten"
        path.write_bytes(b"KTEN1\n" + header + b"\n" + payload)
        with pytest.raises(TensorFileError):
            read_tensor(path)
        code = main([
            "decompose", "--input", str(path), "--method", "cpd",
            "--rank", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, payload",
        [
            # numpy rejects these shapes only when the array is built
            (b'{"dtype": "f64", "shape": [0, 9223372036854775808]}', b""),
            (b'{"dtype": "f64", "shape": [' + b", ".join([b"1"] * 65) + b"]}",
             bytes(8)),
            # nested past the JSON decoder's recursion limit
            (b"[" * 100_000, b""),
        ],
        ids=["extent-2**63", "65-dims", "deep-nesting"],
    )
    def test_unsupported_shape_or_nesting_exits_2(self, tmp_path, capsys, header,
                                                  payload):
        path = tmp_path / "t.kten"
        path.write_bytes(MAGIC + header + b"\n" + payload)
        with pytest.raises(TensorFileError):
            read_tensor(path)
        code = main([
            "decompose", "--input", str(path), "--method", "cpd",
            "--rank", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_extents = st.sampled_from([0, 1, 2, 2**63]) | st.integers(-(2**70), 2**70)
_headers = st.fixed_dictionaries({
    "dtype": st.sampled_from(["f32", "f64"]) | _json_values,
    "shape": st.lists(_extents, max_size=6)
    | st.lists(st.sampled_from([0, 1]), min_size=65, max_size=70)  # numpy allows 64
    | _json_values,
}, optional={"order": st.sampled_from(["C", "F"]) | _json_values}) | _json_values


def _claimed_payload(header):
    """Zero bytes of the size the header claims, when that is small."""
    if not isinstance(header, dict):
        return b""
    itemsize = 4 if header.get("dtype") == "f32" else 8
    shape = header.get("shape")
    if not isinstance(shape, list) or not all(type(n) is int for n in shape):
        return b""
    size = itemsize * int(np.prod([abs(n) for n in shape], dtype=object))
    return bytes(size) if size <= 4096 else b""


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=_headers, payload=st.none() | st.binary(max_size=64),
       mutation=st.none() | st.tuples(
           st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)),
                    max_size=4),
           st.none() | st.integers(0, 200)))
def test_fuzzed_kten_raises_only_tensor_file_error(tmp_path, header, payload,
                                                    mutation):
    # payload None: the size the header claims; a mutation flips bytes
    # anywhere in the file and may truncate it
    if payload is None:
        payload = _claimed_payload(header)
    data = bytearray(MAGIC + json.dumps(header).encode() + b"\n" + payload)
    if mutation is not None:
        flips, cut = mutation
        for pos, byte in flips:
            if pos < len(data):
                data[pos] = byte
        if cut is not None:
            del data[cut:]
    path = tmp_path / "fuzz.kten"
    path.write_bytes(bytes(data))
    try:
        arr = read_tensor(path)
    except TensorFileError:
        return
    assert isinstance(arr, np.ndarray)


class TestBlockFile:
    def make_block(self, rng):
        m = CPModel(
            rng.standard_normal((9, 3)),
            rng.standard_normal((5, 3)),
            rng.standard_normal((6, 3)),
        )
        spec = ConvSpec(5, 6, 3, stride=1, pad=1, bias=rng.standard_normal(6))
        layers = emit_cpd_block(m, spec)
        params, flops = count_params_flops(layers, (8, 8))
        metrics = {
            "rel_error": 0.0,
            "sensitivity": 1.0,
            "intensity": 1.0,
            "params": params,
            "flops": flops,
            "input_hw": [8, 8],
        }
        return Block("cpd", spec, layers, metrics)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        block = self.make_block(rng)
        path = write_block(tmp_path / "blk", block)
        back = read_block(path)
        assert back.kind == "cpd"
        assert len(back.layers) == 3
        for l1, l2 in zip(block.layers, back.layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert l1.groups == l2.groups and l1.stride == l2.stride
        assert back.metrics["params"] == block.metrics["params"]

    def test_params_flops_recomputation_matches(self, tmp_path):
        rng = np.random.default_rng(3)
        block = self.make_block(rng)
        back = read_block(write_block(tmp_path / "blk", block))
        params, flops = count_params_flops(back.layers, back.metrics["input_hw"])
        assert params == back.metrics["params"]
        assert flops == back.metrics["flops"]

    def test_missing_weights_file(self, tmp_path):
        rng = np.random.default_rng(4)
        path = write_block(tmp_path / "blk", self.make_block(rng))
        (tmp_path / "blk" / "layer_01.kten").unlink()
        with pytest.raises(TensorFileError):
            read_block(path)

    def test_layer_kind_key_ignored(self, tmp_path):
        # files written before layers lost their "kind" field still load
        rng = np.random.default_rng(6)
        block = self.make_block(rng)
        path = write_block(tmp_path / "blk", block)
        doc = json.loads(path.read_text())
        assert all("kind" not in layer for layer in doc["layers"])
        for layer in doc["layers"]:
            layer["kind"] = "conv2d"
        path.write_text(json.dumps(doc))
        back = read_block(path)
        for l1, l2 in zip(block.layers, back.layers):
            assert np.array_equal(l1.weights, l2.weights)

    def test_broken_chain_detected(self, tmp_path):
        rng = np.random.default_rng(5)
        path = write_block(tmp_path / "blk", self.make_block(rng))
        doc = json.loads(path.read_text())
        doc["layers"][1]["in"] = 99
        doc["layers"][1]["groups"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(TensorFileError):
            read_block(path)


class TestCliDecompose:
    def test_cpd_roundtrip(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        kpath = make_kernel_file(tmp_path, rng)
        out = tmp_path / "blk"
        code = main([
            "decompose", "--input", str(kpath), "--method", "cpd",
            "--rank", "3", "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "rel_error" in text
        block = read_block(out / "block.json")
        assert block.kind == "cpd"
        assert block.metrics["rel_error"] <= 1e-8

    def test_svd_on_spatial_kernel_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        kpath = make_kernel_file(tmp_path, rng)
        code = main([
            "decompose", "--input", str(kpath), "--method", "svd",
            "--rank", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "1x1" in capsys.readouterr().err

    def test_svd_rank_above_the_matrix_rank_exits_1(self, tmp_path, capsys):
        kpath = make_kernel_file(tmp_path, np.random.default_rng(8), dims=(1, 5, 4))
        code = main([
            "decompose", "--input", str(kpath), "--method", "svd",
            "--rank", "5", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "rank must lie in [1, 4]" in capsys.readouterr().err

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.kten"
        bad.write_bytes(b"garbage")
        code = main([
            "decompose", "--input", str(bad), "--method", "cpd",
            "--rank", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_epc_report_shows_before_after(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        t, _ = degenerate_pair(rng, (9, 5, 6))
        kpath = tmp_path / "k.kten"
        write_tensor(kpath, restore_kernel(t, 3))
        code = main([
            "decompose", "--input", str(kpath), "--method", "cpd-epc",
            "--rank", "2", "--out", str(tmp_path / "blk"),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "before EPC" in text and "after  EPC" in text

    def test_deterministic_given_seed(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        kpath = make_kernel_file(tmp_path, rng)
        for d in ("b1", "b2"):
            assert main([
                "decompose", "--input", str(kpath), "--method", "cpd",
                "--rank", "2", "--seed", "5", "--out", str(tmp_path / d),
            ]) == 0
        j1 = (tmp_path / "b1" / "block.json").read_bytes()
        j2 = (tmp_path / "b2" / "block.json").read_bytes()
        assert j1 == j2
        w1 = (tmp_path / "b1" / "layer_00.kten").read_bytes()
        w2 = (tmp_path / "b2" / "layer_00.kten").read_bytes()
        assert w1 == w2

    def test_rank1_kernel_reported_exact(self, tmp_path, capsys):
        rng = np.random.default_rng(19)
        kpath = make_kernel_file(tmp_path, rng, rank=1)
        out = tmp_path / "blk"
        assert main([
            "decompose", "--input", str(kpath), "--method", "cpd",
            "--rank", "1", "--out", str(out),
        ]) == 0
        assert read_block(out / "block.json").metrics["rel_error"] <= 1e-8

    def test_out_naming_a_file_exits_1_without_traceback(self, tmp_path):
        rng = np.random.default_rng(29)
        kpath = make_kernel_file(tmp_path, rng)
        out = tmp_path / "taken"
        out.write_text("")
        proc = subprocess.run(
            [sys.executable, "-m", "convfactor.cli", "decompose", "--input",
             str(kpath), "--method", "cpd", "--rank", "2", "--out", str(out)],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_failed_rename_exits_1_and_leaves_no_temporary(self, tmp_path, capsys):
        # the block file's final rename fails when its name is a directory
        kpath = make_kernel_file(tmp_path, np.random.default_rng(30))
        out = tmp_path / "out"
        (out / "block.json").mkdir(parents=True)
        assert main([
            "decompose", "--input", str(kpath), "--method", "cpd", "--rank", "2",
            "--out", str(out),
        ]) == 1
        assert "error:" in capsys.readouterr().err
        assert list(out.glob(".tmp-kten-*")) == []

    def test_unreachable_delta_is_reported_in_the_flags_units(self, tmp_path):
        kpath = tmp_path / "k.kten"
        write_tensor(kpath, np.random.default_rng(0).standard_normal((3, 3, 12, 10)))
        proc = subprocess.run(
            [sys.executable, "-m", "convfactor.cli", "decompose", "--input",
             str(kpath), "--method", "cpd-epc", "--rank", "6", "--delta", "0.6",
             "--out", str(tmp_path / "o")],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        # the bound fails at factor A, whose best update leaves 0.805 of ||T||
        assert "--delta 0.6" in proc.stderr
        assert "0.805" in proc.stderr
        assert "factor A" in proc.stderr

    def test_unreachable_hybrid_delta_is_reported_in_the_flags_units(
            self, tmp_path, capsys):
        kpath = tmp_path / "k.kten"
        write_tensor(kpath, np.random.default_rng(0).standard_normal((3, 3, 12, 10)))
        code = main([
            "decompose", "--input", str(kpath), "--method", "tkd-cpd-epc",
            "--rank", "2", "--delta", "0.1", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        # the core budget is 0.1 of ||T|| (the Tucker stage is exact here) and
        # the rank-2 core fit leaves 0.93 of ||T||
        assert capsys.readouterr().err == (
            "error: --delta 0.1 cannot be met (relative error 0.93 reached, "
            "0.1 allowed): CP rank 2 cannot meet the core budget; raise the "
            "rank or give the Tucker stage a smaller share (theta)\n"
        )

    def test_tkd_requires_delta_or_ranks(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        kpath = make_kernel_file(tmp_path, rng)
        code = main([
            "decompose", "--input", str(kpath), "--method", "tkd-cpd-epc",
            "--rank", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 1


class TestCliVerify:
    def decompose(self, tmp_path, rng, method="cpd", rank=3, extra=()):
        kpath = make_kernel_file(tmp_path, rng)
        out = tmp_path / "blk"
        assert main([
            "decompose", "--input", str(kpath), "--method", method,
            "--rank", str(rank), "--out", str(out), *extra,
        ]) == 0
        return kpath, out / "block.json"

    def test_exact_block_verifies(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        kpath, bpath = self.decompose(tmp_path, rng)
        code = main([
            "verify", "--block", str(bpath), "--input", str(kpath),
            "--trials", "3",
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_tampered_weights_fail(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        kpath, bpath = self.decompose(tmp_path, rng)
        wfile = bpath.parent / "layer_01.kten"
        arr = read_tensor(wfile)
        write_tensor(wfile, arr + 0.5)
        code = main([
            "verify", "--block", str(bpath), "--input", str(kpath),
            "--trials", "2",
        ])
        assert code != 0

    def test_zero_trials_vacuous(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        kpath, bpath = self.decompose(tmp_path, rng)
        code = main([
            "verify", "--block", str(bpath), "--input", str(kpath),
            "--trials", "0",
        ])
        assert code == 0
        assert "trials: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name, layer", [("layer_02_bias.kten", "layers[2] bias"),
                                             ("layer_01.kten", "layers[1] weights")])
    def test_non_finite_block_tensor_exits_2(self, tmp_path, capsys, name, layer, bad):
        # read_block rejects it: a NaN bias passed every recomputed metric and
        # the forward trials' max(), and an inf weight raised a numpy warning
        rng = np.random.default_rng(15)
        t, _ = random_cp_tensor(rng, (9, 8, 6), 3)
        kpath = tmp_path / "k.kten"
        write_tensor(kpath, restore_kernel(t, 3))
        spec = ConvSpec(8, 6, 3, bias=rng.standard_normal(6))
        block, _ = decompose_to_block(t, "cpd", 3, spec)
        bpath = write_block(tmp_path / "blk", block)
        path = bpath.parent / name
        arr = read_tensor(path)
        arr.flat[1] = bad
        write_tensor(path, arr)
        assert main(["verify", "--block", str(bpath), "--input", str(kpath)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bpath}: {layer} hold non-finite values\n"
        assert captured.out == ""

    @pytest.mark.parametrize("scale", [1e300, 1e160])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_block_weights_outside_the_norm_range_exit_2(self, tmp_path, capsys, index,
                                                         scale):
        # finite weights whose squares overflow ended verify in a numpy
        # overflow warning from cpd.sensitivity; read_block holds each layer
        # to a kernel's norm rule
        kpath = make_kernel_file(tmp_path, np.random.default_rng(16), dims=(9, 8, 6))
        out = tmp_path / "blk"
        assert main(["decompose", "--input", str(kpath), "--method", "cpd",
                     "--rank", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        path = out / f"layer_{index:02d}.kten"
        write_tensor(path, scale * read_tensor(path))
        bpath = out / "block.json"
        assert main(["verify", "--block", str(bpath), "--input", str(kpath)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {bpath}: layers[{index}] weights: tensor norm ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "unparsable"])
    def test_unreadable_block_file_exits_2(self, tmp_path, capsys, text):
        kpath = make_kernel_file(tmp_path, np.random.default_rng(14))
        bpath = tmp_path / "block.json"
        if text is not None:
            bpath.write_text(text)
        assert main(["verify", "--block", str(bpath), "--input", str(kpath)]) == 2
        assert f"error: {bpath}: " in capsys.readouterr().err

    def test_negative_trials_rejected_before_any_file_is_read(
            self, tmp_path, capsys):
        code = main([
            "verify", "--block", str(tmp_path / "missing" / "block.json"),
            "--input", str(tmp_path / "missing.kten"), "--trials", "-1",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: trials must be >= 0\n"

    def test_negative_seed_rejected_before_any_file_is_read(
            self, tmp_path, capsys):
        code = main([
            "verify", "--block", str(tmp_path / "missing" / "block.json"),
            "--input", str(tmp_path / "missing.kten"), "--seed", "-1",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"

    def test_hw_the_block_cannot_take_rejected_before_the_kernel_is_read(
            self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        kpath, bpath = self.decompose(tmp_path, rng)
        kpath.unlink()
        code = main([
            "verify", "--block", str(bpath), "--input", str(kpath),
            "--hw", "2,2",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: kernel 3x3 with stride 1, pad 0 does not fit a 2x2 input\n")

    @pytest.mark.parametrize("method, dims, rank, kwargs, kind", [
        ("cpd", (9, 5, 6), 2, {}, "cpd"),
        ("tkd-cpd-epc", (9, 5, 6), 4, {"ranks": (2, 2)}, "tkd-cpd"),
        ("svd", (1, 5, 6), 2, {}, "svd"),
    ])
    def test_rel_error_of_the_taps_is_the_dense_difference_and_the_recorded_one(
            self, method, dims, rank, kwargs, kind):
        # what verify computes: the block's factors against the kernel's
        # taps, with no copy of the kernel
        rng = np.random.default_rng(16)
        t, _ = random_cp_tensor(rng, dims, 3)
        d = int(np.sqrt(dims[0]))
        kernel = restore_kernel(t, d)
        block, _ = decompose_to_block(t, method, rank, ConvSpec(5, 6, d), **kwargs)
        assert block.kind == kind
        rel = rel_error(reshape_kernel(kernel), block_factors(block.layers, block.kind))
        equivalent = block_to_kernel(block.layers, block.kind)
        dense = np.linalg.norm(equivalent - kernel) / np.linalg.norm(kernel)
        assert dense > 1e-3
        assert rel == pytest.approx(dense, rel=1e-12)
        assert rel == pytest.approx(block.metrics["rel_error"], rel=1e-12)

    @pytest.mark.parametrize("dims", [(9, 6, 5), (9, 5, 7), (1, 5, 6)])
    def test_kernel_not_of_the_blocks_shape_exits_2(self, tmp_path, capsys, dims):
        rng = np.random.default_rng(18)
        _, bpath = self.decompose(tmp_path, rng)
        other = make_kernel_file(tmp_path, rng, dims=dims, name="other.kten")
        capsys.readouterr()
        code = main(["verify", "--block", str(bpath), "--input", str(other)])
        assert code == 2
        assert "the block's spec (3, 3, 5, 6)" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ("truncate", "payload is 2152 bytes, expected 2160"),
        ("order-3", "expected a D x D x S x T kernel, got shape (9, 5, 6)"),
    ])
    def test_kernel_read_tap_by_tap_is_checked_first(self, tmp_path, capsys,
                                                       edit, message):
        rng = np.random.default_rng(19)
        kpath, bpath = self.decompose(tmp_path, rng)
        if edit == "truncate":
            kpath.write_bytes(kpath.read_bytes()[:-8])
        else:
            write_tensor(kpath, reshape_kernel(read_tensor(kpath)))
        capsys.readouterr()
        code = main(["verify", "--block", str(bpath), "--input", str(kpath)])
        out, err = capsys.readouterr()
        assert code == 2
        assert message in err
        assert out == ""

    def test_broken_chain_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        kpath, bpath = self.decompose(tmp_path, rng)
        doc = json.loads(bpath.read_text())
        doc["layers"][1]["in"] = 99
        bpath.write_text(json.dumps(doc))
        code = main([
            "verify", "--block", str(bpath), "--input", str(kpath),
        ])
        assert code == 2

    # one rule checks every recorded metric; the sensitivity cases keep
    # their bare ids
    @pytest.mark.parametrize("key, edit", [
        pytest.param("sensitivity", "raise", id="raise"),
        pytest.param("sensitivity", "nan", id="nan"),
        pytest.param("sensitivity", "text", id="text"),
        pytest.param("sensitivity", "remove", id="remove"),
        pytest.param("rel_error", "x", id="rel_error-x"),
        pytest.param("rel_error", "inf", id="rel_error-inf"),
        pytest.param("rel_error", 10**400, id="rel_error-beyond-float"),
        pytest.param("intensity", "raise", id="intensity-raise"),
        pytest.param("intensity", "remove", id="intensity-remove"),
        pytest.param("params", "x", id="params-x"),
        pytest.param("flops", "raise", id="flops-raise"),
    ])
    def test_recorded_sensitivity_checked(self, tmp_path, capsys, key, edit):
        rng = np.random.default_rng(25)
        kpath, bpath = self.decompose(tmp_path, rng)
        doc = json.loads(bpath.read_text())
        if edit == "remove":
            del doc["metrics"][key]
        else:
            recorded = doc["metrics"][key]
            doc["metrics"][key] = {
                "raise": recorded * 1.001, "nan": float("nan"), "text": "low",
                "inf": float("inf"),
            }.get(edit, edit)
        bpath.write_text(json.dumps(doc))
        code = main([
            "verify", "--block", str(bpath), "--input", str(kpath),
            "--trials", "1",
        ])
        assert code == 1
        assert f"{key} mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("hw", ["ab", [16], [16, 0], [16.0, 16], None])
    def test_malformed_input_hw_exits_2(self, tmp_path, capsys, hw):
        rng = np.random.default_rng(27)
        kpath, bpath = self.decompose(tmp_path, rng)
        doc = json.loads(bpath.read_text())
        doc["metrics"]["input_hw"] = hw
        bpath.write_text(json.dumps(doc))
        code = main(["verify", "--block", str(bpath), "--input", str(kpath)])
        assert code == 2
        assert "input_hw" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["in_channels", "out_channels", "kernel_size", "stride", "pad"])
    def test_spec_disagreeing_with_layers_exits_2(self, tmp_path, capsys, key):
        rng = np.random.default_rng(30)
        kpath, bpath = self.decompose(tmp_path, rng)
        doc = json.loads(bpath.read_text())
        doc["spec"][key] += 1
        bpath.write_text(json.dumps(doc))
        for trials in ("0", "1"):
            code = main(["verify", "--block", str(bpath), "--input", str(kpath),
                         "--trials", trials])
            assert code == 2
            assert "spec" in capsys.readouterr().err

    def test_metrics_not_an_object_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(28)
        kpath, bpath = self.decompose(tmp_path, rng)
        doc = json.loads(bpath.read_text())
        doc["metrics"] = 5
        bpath.write_text(json.dumps(doc))
        code = main(["verify", "--block", str(bpath), "--input", str(kpath)])
        assert code == 2
        assert "metrics" in capsys.readouterr().err

    # 1.0 and true compare equal to 1 in Python, yet break shapes and
    # slices; a one-entry kernel breaks indexing and a zero groups or
    # stride divides by zero
    @pytest.mark.parametrize("path, value", [
        (("layers", 1, "stride"), 1.0),
        (("spec", "in_channels"), 5.0),
        (("layers", 0, "groups"), True),
        (("layers", 0, "kernel"), [1.0, 1]),
        (("layers", 0, "kernel"), [1]),
        (("layers", 0, "groups"), 0),
        (("layers", 1, "stride"), 0),
    ], ids=["stride-float", "in_channels-float", "groups-bool", "kernel-float",
            "kernel-one-entry", "groups-zero", "stride-zero"])
    def test_malformed_integer_field_exits_2(self, tmp_path, capsys, path, value):
        rng = np.random.default_rng(31)
        kpath, bpath = self.decompose(tmp_path, rng)
        doc = json.loads(bpath.read_text())
        *parents, key = path
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = value
        bpath.write_text(json.dumps(doc))
        code = main(["verify", "--block", str(bpath), "--input", str(kpath),
                     "--trials", "1"])
        assert code == 2
        assert "invalid block document" in capsys.readouterr().err

    def test_hybrid_block_verifies(self, tmp_path, capsys):
        rng = np.random.default_rng(15)
        kpath, bpath = self.decompose(
            tmp_path, rng, method="tkd-cpd-epc", rank=4, extra=("--delta", "0.05")
        )
        code = main([
            "verify", "--block", str(bpath), "--input", str(kpath),
            "--trials", "2",
        ])
        assert code == 0

    # a 3x3 kernel whose taps are scaled 1 to 9, as in the CI entry-point
    # steps: a block that reads its taps in another order does not match it
    ASYMMETRIC = ("cpd", ("--rank", "4")), ("tkd-cpd-epc", ("--ranks", "4,4",
                                                             "--rank", "6"))

    def strided_block(self, tmp_path, method, extra):
        rng = np.random.default_rng(34)
        taps = np.arange(1.0, 10.0).reshape(3, 3, 1, 1)
        kpath = tmp_path / "k.kten"
        write_tensor(kpath, taps * rng.standard_normal((3, 3, 5, 6)))
        out = tmp_path / "blk"
        assert main(["decompose", "--input", str(kpath), "--method", method,
                     *extra, "--stride", "2", "--pad", "1", "--out", str(out)]) == 0
        return kpath, out / "block.json"

    @staticmethod
    def move_to(bpath, field, target):
        """Move the depthwise layer's `field` to layer `target` and record the
        flops of the edited chain, so no metric check fails."""
        doc = json.loads(bpath.read_text())
        layers = doc["layers"]
        depthwise = next(l for l in layers if l["kernel"] == [3, 3])
        layers[target][field], depthwise[field] = (depthwise[field],
                                                   layers[target][field])
        bpath.write_text(json.dumps(doc))
        block = read_block(bpath)
        doc["metrics"]["flops"] = count_params_flops(block.layers, (56, 56))[1]
        bpath.write_text(json.dumps(doc))
        return block

    @pytest.mark.parametrize("trials", ["0", "5"])
    @pytest.mark.parametrize("method, extra", ASYMMETRIC, ids=["cpd", "tkd-cpd"])
    def test_chain_of_another_output_size_fails_before_any_trial(
            self, tmp_path, capsys, method, extra, trials):
        kpath, bpath = self.strided_block(tmp_path, method, extra)
        # the pad on the last 1x1 layer: 9x9 -> 4x4 -> 6x6, the conv's 5x5
        self.move_to(bpath, "pad", -1)
        capsys.readouterr()
        code = main(["verify", "--block", str(bpath), "--input", str(kpath),
                     "--hw", "9,9", "--trials", trials])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ("FAIL: layer chain output 6x6 on a 9x9 input, "
                       "the block's conv 5x5\n")
        assert out.endswith("verify: FAILED\n")
        assert "trials:" not in out

    @pytest.mark.parametrize("method, extra", ASYMMETRIC, ids=["cpd", "tkd-cpd"])
    def test_forward_check_catches_transposed_depthwise_taps(
            self, tmp_path, capsys, monkeypatch, method, extra):
        # the factors, and so every metric, are right; only the layer
        # forward reads the depthwise taps as (j, i)
        kpath, bpath = self.strided_block(tmp_path, method, extra)
        depthwise = next(l for l in read_block(bpath).layers if l.groups > 1)
        assert not np.allclose(depthwise.weights, depthwise.weights.swapaxes(2, 3))
        layer_forward = convblocks.layer_forward

        def transposed_taps(x, layer):
            if layer.groups > 1:
                layer = dataclasses.replace(layer,
                                            weights=layer.weights.swapaxes(2, 3))
            return layer_forward(x, layer)

        monkeypatch.setattr(convblocks, "layer_forward", transposed_taps)
        capsys.readouterr()
        code = main(["verify", "--block", str(bpath), "--input", str(kpath)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("FAIL: forward deviation ")
        assert err.count("FAIL") == 1
        assert out.endswith("verify: FAILED\n")

    def test_forward_check_catches_the_stride_on_the_first_layer(
            self, tmp_path, capsys):
        # same output size and metrics, another conv; the deviation is the
        # one against the dense kernel the block realizes
        kpath, bpath = self.strided_block(tmp_path, *self.ASYMMETRIC[0])
        block = self.move_to(bpath, "stride", 0)
        capsys.readouterr()
        code = main(["verify", "--block", str(bpath), "--input", str(kpath)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("FAIL: forward deviation ")
        assert err.count("FAIL") == 1
        dense = block_to_kernel(block.layers, block.kind)
        rng = np.random.default_rng(0)
        want = 0.0
        for _ in range(5):
            x = rng.standard_normal((16, 16, 5))
            ref = conv2d_reference(x, block.spec, dense)
            diff = compose_forward(block.layers, x) - ref
            want = max(want, np.linalg.norm(diff) / np.linalg.norm(ref))
        got = float(out.split("max forward deviation: ")[1].split()[0])
        assert got == pytest.approx(want, rel=1e-6)
        assert want > 1.0

    @pytest.mark.parametrize("stride, pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize("method, dims, rank, kwargs, kind", [
        ("cpd", (9, 5, 6), 2, {}, "cpd"),
        ("cpd", (9, 5, 6), 8, {}, "cpd"),  # over-rank: R > S, T
        ("tkd-cpd-epc", (9, 5, 6), 4, {"ranks": (2, 2)}, "tkd-cpd"),
        ("svd", (1, 5, 6), 2, {}, "svd"),
    ], ids=["cpd", "cpd-over-rank", "tkd-cpd", "svd"])
    def test_reference_is_the_dense_conv_without_the_dense_kernel(
            self, tmp_path, capsys, monkeypatch, method, dims, rank, kwargs,
            kind, stride, pad):
        # a chain replaced by the dense kernel's conv deviates from verify's
        # reference by roundoff alone, and verify never builds that kernel
        rng = np.random.default_rng(35)
        t, _ = random_cp_tensor(rng, dims, 3)
        d = int(np.sqrt(dims[0]))
        write_tensor(tmp_path / "k.kten", restore_kernel(t, d))
        spec = ConvSpec(5, 6, d, stride=stride, pad=pad, bias=rng.standard_normal(6))
        block, _ = decompose_to_block(t, method, rank, spec, **kwargs)
        assert block.kind == kind
        write_block(tmp_path / "blk", block)
        dense = block_to_kernel(block.layers, block.kind)
        built = []

        def spy(*args):
            built.append(args)
            return block_to_kernel(*args)

        monkeypatch.setattr(cli, "block_to_kernel", spy)
        monkeypatch.setattr(convblocks, "block_to_kernel", spy)
        monkeypatch.setattr(cli, "compose_forward",
                            lambda layers, x: conv2d_reference(x, spec, dense))
        code = main(["verify", "--block", str(tmp_path / "blk" / "block.json"),
                     "--input", str(tmp_path / "k.kten"), "--hw", "7,6"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert float(out.split("max forward deviation: ")[1].split()[0]) < 1e-12
        assert built == []


class TestPeakMemory:
    """Traced peak of 256-channel jobs, in units of the kernel's bytes.
    Every job holds one kernel-sized array at a time.  ``decompose`` holds
    the kernel, whose (D^2, S, T) tensor is a view of it: its check is one
    norm, with no boolean copy; the Tucker-2 steps read it through its
    slices, the first summing its S x S Gram in place, one slice's product
    at a time, and the core is the last step's small projection times V;
    the CP solvers read it through views, and every error check sums over
    its slices in row blocks of 256 KB.  So the hybrid's peak is the kernel,
    its Gram and one slice-sized product, 1 + 2/9 kernels.  ``verify`` holds
    no kernel-sized array: it reads the kernel one tap at a time for
    ``rel_error`` and runs its forward trials in the block's factor basis,
    so it never builds the dense kernel the block realizes.  Copying an
    unfolding, forming a kernel-sized difference or holding two dense
    kernels takes a job to about 2 kernels or more."""

    BOUND = 1.6

    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("peak")
        t = hybrid_structured_tensor(np.random.default_rng(0), (9, 256, 256),
                                     (8, 8), 4, noise=0.01)
        kernel = restore_kernel(t, 3)
        write_tensor(tmp / "k.kten", kernel)
        rng = np.random.default_rng(1)
        t, _ = random_cp_tensor(rng, (9, 256, 256), 8)
        t += 0.02 * np.linalg.norm(t) * rng.standard_normal(t.shape) / np.sqrt(t.size)
        write_tensor(tmp / "cp.kten", restore_kernel(t, 3))
        del t
        cp_job = ["decompose", "--input", str(tmp / "cp.kten"), "--rank", "8",
                  "--pad", "1", "--method"]
        peaks = {}
        for name, argv in (
            ("decompose", ["decompose", "--input", str(tmp / "k.kten"), "--method",
                           "tkd-cpd-epc", "--rank", "4", "--delta", "0.05",
                           "--pad", "1", "--out", str(tmp / "blk")]),
            ("verify", ["verify", "--block", str(tmp / "blk" / "block.json"),
                        "--input", str(tmp / "k.kten"), "--hw", "8,8"]),
            ("decompose-cpd", cp_job + ["cpd", "--out", str(tmp / "cpd")]),
            ("decompose-cpd-epc", cp_job + ["cpd-epc", "--delta", "0.05",
                                            "--out", str(tmp / "epc")]),
        ):
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0, out.getvalue()
            if name == "verify":
                assert "verify: OK" in out.getvalue()
            peaks[name] = peak / kernel.nbytes
        return peaks

    @pytest.mark.parametrize("command", ["decompose", "verify", "decompose-cpd",
                                         "decompose-cpd-epc"])
    def test_at_most_two_kernels_alive(self, peaks, command):
        assert peaks[command] < self.BOUND

    def test_hybrid_decompose_holds_the_kernel_its_gram_and_one_product(self, peaks):
        # a second slice-sized array, such as the sum of the Gram and a
        # product, or a slice's residual next to them, adds 1/9 of a kernel
        assert peaks["decompose"] < 1 + 2.5 / 9

    def test_verify_holds_no_kernel_sized_array(self, peaks):
        # a tap, its difference from the model and the trials' arrays; the
        # whole kernel or the block's dense kernel would add one kernel
        assert peaks["verify"] < 0.6


class TestCliRankSearch:
    def test_finds_exact_rank(self, tmp_path, capsys):
        rng = np.random.default_rng(16)
        kpath = make_kernel_file(tmp_path, rng, rank=4)
        code = main([
            "rank-search", "--input", str(kpath), "--method", "cpd",
            "--eps", "1e-8", "--rmax", "16", "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 4
        assert doc["met"] is True

    def test_eps_met_at_rmin(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        kpath = make_kernel_file(tmp_path, rng, rank=2)
        code = main([
            "rank-search", "--input", str(kpath), "--method", "cpd",
            "--eps", "1.0", "--rmin", "1", "--rmax", "8",
        ])
        assert code == 0
        assert "rank=1" in capsys.readouterr().out

    @pytest.mark.parametrize("evaluator", ["false", "/nonexistent/cmd"])
    def test_bad_evaluator_exits_3(self, tmp_path, capsys, evaluator):
        rng = np.random.default_rng(18)
        kpath = make_kernel_file(tmp_path, rng)
        code = main([
            "rank-search", "--input", str(kpath), "--method", "cpd",
            "--eps", "1e-8", "--rmax", "4", "--evaluator", evaluator,
        ])
        assert code == 3

    @pytest.mark.parametrize("evaluator", ["python 'score.py", "   "],
                             ids=["unclosed-quote", "blank"])
    def test_malformed_evaluator_exits_1_before_any_fit(self, tmp_path, capsys,
                                                        monkeypatch, evaluator):
        # a command that does not split, or names no program, is an invalid
        # argument value: no rank is fitted and no block is run as a program
        kpath = make_kernel_file(tmp_path, np.random.default_rng(18))
        fits = []
        for module in (pipeline, ranksearch):
            monkeypatch.setattr(module, "fit",
                                lambda *a, **k: fits.append(1) or fit(*a, **k))
        code = main([
            "rank-search", "--input", str(kpath), "--method", "cpd",
            "--eps", "0.5", "--rmax", "4", "--evaluator", evaluator,
        ])
        err = capsys.readouterr().err
        assert (code, fits) == (1, [])
        assert err.startswith("error: --evaluator") and err.count("\n") == 1

    def test_json_reports_the_rank_floor(self, tmp_path, capsys):
        # an exact rank-3 kernel: the spectra rule out ranks 1 and 2, and an
        # external score has no floor
        kpath = make_kernel_file(tmp_path, np.random.default_rng(18))
        script = tmp_path / "score.py"
        script.write_text("print(0.25)\n")
        docs = []
        for evaluator in ([], ["--evaluator", f"{sys.executable} {script}"]):
            assert main(["rank-search", "--input", str(kpath), "--method", "cpd",
                         "--eps", "1e-6", "--rmax", "4", "--json", *evaluator]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert [d["floor"] for d in docs] == [3, None]
        assert (docs[0]["rank"], docs[0]["evaluations"]) == (3, 1)

    @pytest.mark.parametrize("escape", [shlex.quote, lambda p: p.replace(" ", "\\ ")],
                             ids=["quoted", "backslash"])
    def test_evaluator_path_with_a_space(self, tmp_path, capsys, escape):
        # the command splits into words as a shell would
        kpath = make_kernel_file(tmp_path, np.random.default_rng(18))
        script = tmp_path / "a b" / "score.py"
        script.parent.mkdir()
        script.write_text("print(0.25)\n")
        code = main([
            "rank-search", "--input", str(kpath), "--method", "cpd",
            "--eps", "0.5", "--rmax", "4", "--json",
            "--evaluator", f"{shlex.quote(sys.executable)} {escape(str(script))}",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["rank"], doc["score"], doc["met"]) == (1, 0.25, True)

    def test_external_evaluator_tkd_without_ranks(self, tmp_path, capsys):
        # the multilinear ranks default to (S, T) for both evaluators
        rng = np.random.default_rng(20)
        kpath = make_kernel_file(tmp_path, rng, dims=(9, 6, 6), rank=2)
        script = tmp_path / "score.py"
        script.write_text(
            "import json, sys\n"
            "print(json.load(open(sys.argv[1]))['metrics']['rel_error'])\n"
        )
        code = main([
            "rank-search", "--input", str(kpath), "--method", "tkd-cpd-epc",
            "--eps", "1e-6", "--rmax", "4", "--json",
            "--evaluator", f"{sys.executable} {script}",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 2 and doc["met"] is True

    def test_default_rmax_follows_fixed_ranks(self, tmp_path, capsys):
        # a 9 x 6 x 5 core has an exact CP of rank 30, so no larger rank
        # needs scoring when none meets eps
        kpath = tmp_path / "k.kten"
        write_tensor(kpath, np.random.default_rng(0).standard_normal((3, 3, 12, 10)))
        code = main([
            "rank-search", "--input", str(kpath), "--method", "tkd-cpd-epc",
            "--ranks", "6,5", "--eps", "0.1", "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] <= 30 and doc["evaluations"] <= 6

    def test_svd_searchable_on_1x1(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        kpath = make_kernel_file(tmp_path, rng, dims=(1, 6, 7), rank=3)
        code = main([
            "rank-search", "--input", str(kpath), "--method", "svd",
            "--eps", "1e-10", "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 3


@pytest.mark.parametrize("method, shape, rank, extra, kind, n_layers", [
    ("cpd", (3, 3, 6, 5), 3, (), "cpd", 3),
    ("cpd-epc", (3, 3, 6, 5), 3, (), "cpd", 3),
    ("tkd-cpd-epc", (3, 3, 6, 5), 3, ("--ranks", "4,4"), "cpd", 3),
    ("tkd-cpd-epc", (3, 3, 6, 5), 4, ("--ranks", "2,2"), "tkd-cpd", 5),
    ("svd", (1, 1, 6, 5), 3, (), "svd", 2),
], ids=["cpd", "cpd-epc", "tkd-cpd-epc-merged", "tkd-cpd-epc-5-layer", "svd"])
def test_recorded_sensitivity_is_that_of_the_shipped_layers(
    tmp_path, capsys, method, shape, rank, extra, kind, n_layers
):
    kpath = tmp_path / "k.kten"
    write_tensor(kpath, np.random.default_rng(26).standard_normal(shape))
    out = tmp_path / "blk"
    assert main([
        "decompose", "--input", str(kpath), "--method", method,
        "--rank", str(rank), "--out", str(out), *extra,
    ]) == 0
    block = read_block(out / "block.json")
    assert block.kind == kind and len(block.layers) == n_layers
    shipped = block_factors(block.layers, kind)
    recorded = block.metrics["sensitivity"]
    assert recorded == pytest.approx(sensitivity(shipped), rel=1e-12)
    assert monte_carlo_sensitivity(shipped) == pytest.approx(recorded, rel=0.02)
    if method == "cpd":
        # the fit's own model, at its minimum-sensitivity scaling
        model, _ = fit(reshape_kernel(read_tensor(kpath)), "cpd", rank)
        assert recorded == pytest.approx(
            sensitivity(balance_components(model)), rel=1e-12
        )


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=st.integers(1, 3), s=st.integers(1, 8), t=st.integers(1, 8),
       stride=st.integers(1, 2), pad=st.integers(0, 1), data=st.data())
def test_any_kernel_through_decompose_and_verify(tmp_path, capsys, d, s, t, stride,
                                                  pad, data):
    # a valid combination of method, rank and options ships a block that
    # verifies and records fit's rel_error; a hybrid ships its block with
    # fewer weights.  A --delta is met, or refused with exit 1.  The kernel
    # is scaled by 2^k, its norm kept inside _NORM_RANGE, and a second
    # decompose of it writes the same bytes
    method = data.draw(st.sampled_from([m for m in METHODS if m != "svd" or d == 1]))
    kwargs = {}
    if method == "tkd-cpd-epc":
        kwargs["ranks"] = data.draw(st.none() | st.tuples(st.integers(1, s),
                                                          st.integers(1, t)))
        if kwargs["ranks"] is None:
            kwargs["theta"] = data.draw(st.none() | st.sampled_from([0.1, 0.5, 1.0]))
    if method in ("cpd-epc", "tkd-cpd-epc"):
        deltas = st.sampled_from([0.2, 0.5, 0.9])
        # free hybrid ranks need a budget
        free = method == "tkd-cpd-epc" and kwargs["ranks"] is None
        kwargs["delta_rel"] = data.draw(deltas if free else st.none() | deltas)
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    rank = data.draw(st.integers(1, min(s, t) if method == "svd" else 8))
    kpath = tmp_path / "k.kten"
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    # a Gaussian kernel of 1 to 576 entries has a norm in [1e-4, 30] but for
    # odds below 1e-4, so a scale within 2^±150 keeps it inside _NORM_RANGE
    scale = 2.0 ** data.draw(st.integers(-150, 150))
    write_tensor(kpath, scale * rng.standard_normal((d, d, s, t)))
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    options = {"ranks": lambda v: f"{v[0]},{v[1]}", "theta": str, "delta_rel": str}
    argv = [f"--{k.removesuffix('_rel')}={options[k](v)}" for k, v in kwargs.items()]
    capsys.readouterr()

    def decompose(out):
        return main([
            "decompose", "--input", str(kpath), "--method", method,
            "--rank", str(rank), "--stride", str(stride), "--pad", str(pad),
            "--out", str(out), *argv,
        ])

    code = decompose(out)
    tensor = reshape_kernel(read_tensor(kpath))
    if code == 1 and "delta_rel" in kwargs:
        assert capsys.readouterr().err.startswith("error: --delta")
        with pytest.raises(InfeasibleBoundError):
            fit(tensor, method, rank, **kwargs)
        return
    assert code == 0
    again = Path(tempfile.mkdtemp(dir=tmp_path))
    assert decompose(again) == 0
    assert ({p.name: p.read_bytes() for p in out.iterdir()}
            == {p.name: p.read_bytes() for p in again.iterdir()})
    block = read_block(out / "block.json")
    _, report = fit(tensor, method, rank, **kwargs)
    assert block.metrics["rel_error"] == report["rel_error"]
    if "delta_rel" in kwargs:
        assert report["rel_error"] <= kwargs["delta_rel"] * (1 + 1e-9)
    if method == "tkd-cpd-epc":
        r1, r2, r = report["ranks"]
        five, three = r1 * s + r2 * t + r * (d * d + r1 + r2), r * (d * d + s + t)
        assert block.kind == ("cpd" if three <= five else "tkd-cpd")
        assert block.metrics["params"] == min(five, three)
    capsys.readouterr()
    assert main(["verify", "--block", str(out / "block.json"),
                 "--input", str(kpath)]) == 0
    assert "verify: OK" in capsys.readouterr().out


# method, kernel shape, rank and options of the blocks the mutation
# property copies, one per block kind
_PRISTINE = {
    "cpd": ("cpd", (3, 3, 6, 5), 3, ()),
    "tkd-cpd": ("tkd-cpd-epc", (3, 3, 6, 5), 4, ("--ranks", "2,2")),
    "svd": ("svd", (1, 1, 6, 5), 3, ()),
}


@pytest.fixture(scope="module")
def pristine_blocks(tmp_path_factory):
    """(kernel path, block directory) of a decomposed kernel, per block kind."""
    root = tmp_path_factory.mktemp("pristine")
    blocks = {}
    for kind, (method, shape, rank, extra) in _PRISTINE.items():
        kpath = root / f"{kind}.kten"
        write_tensor(kpath, np.random.default_rng(27).standard_normal(shape))
        out = root / kind
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["decompose", "--input", str(kpath), "--method", method,
                         "--rank", str(rank), "--out", str(out), *extra]) == 0
        assert read_block(out / "block.json").kind == kind
        blocks[kind] = kpath, out
    return blocks


def _mutate(data, out):
    """Make one drawn change to the block in `out` that verify must catch."""
    bpath = out / "block.json"
    doc = json.loads(bpath.read_text())
    layers = doc["layers"]
    what = data.draw(st.sampled_from(["weight", "metric", "integer", "truncate"]))
    if what == "weight":
        # the largest entry of a layer, scaled toward zero or overflow
        path = out / data.draw(st.sampled_from([layer["weights"] for layer in layers]))
        w = read_tensor(path)
        w.flat[np.argmax(np.abs(w))] *= data.draw(
            st.sampled_from([-1.0, 0.0, 1e-3, 2.0, 1e3, 1e160, 1e300]))
        write_tensor(path, w)
        return
    if what == "truncate":
        # block.json ends in "}\n", so no shorter prefix of it is a document
        path = out / data.draw(st.sampled_from(
            ["block.json", *(layer["weights"] for layer in layers)]))
        raw = path.read_bytes()
        path.write_bytes(raw[:-data.draw(st.integers(2, len(raw)))])
        return
    if what == "metric":
        metrics = doc["metrics"]
        key = data.draw(st.sampled_from(
            ["rel_error", "sensitivity", "intensity", "params", "flops"]))
        if type(metrics[key]) is int:
            metrics[key] = data.draw(st.sampled_from(
                [metrics[key] + 1, metrics[key] - 1, float(metrics[key]), True]))
        else:  # well beyond verify's 1e-8 + 1e-6 relative
            metrics[key] = metrics[key] * (1 + 1e-3) + 1e-3
    else:  # an integer field of the spec or a layer, made a float or a bool
        owner = data.draw(st.sampled_from([doc["spec"], *layers]))
        if owner is doc["spec"]:
            key = data.draw(st.sampled_from(
                ["in_channels", "out_channels", "kernel_size", "stride", "pad"]))
        else:
            key = data.draw(st.sampled_from(["in", "out", "groups", "stride", "pad",
                                             "kernel"]))
            if key == "kernel":
                owner, key = owner["kernel"], data.draw(st.integers(0, 1))
        owner[key] = data.draw(st.sampled_from([float, bool]))(owner[key])
    bpath.write_text(json.dumps(doc))


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(_PRISTINE)), data=st.data())
def test_a_mutated_block_fails_verify(tmp_path, capsys, pristine_blocks, kind,
                                      data):
    # one changed field of block.json or number in a layer file: verify
    # reports it with exit 1 or 2, raises nothing and warns nothing
    kpath, pristine = pristine_blocks[kind]
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "blk"
    shutil.copytree(pristine, out)
    _mutate(data, out)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--block", str(out / "block.json"),
                     "--input", str(kpath)])
    captured = capsys.readouterr()
    assert code in (1, 2)
    assert ("verify: FAILED" in captured.out if code == 1
            else captured.err.startswith("error: "))


class TestDegenerateKernels:
    def decompose_and_verify(self, tmp_path, capsys, kernel, delta, extra=()):
        kpath = tmp_path / "k.kten"
        write_tensor(kpath, kernel)
        out = tmp_path / "blk"
        assert main([
            "decompose", "--input", str(kpath), "--method", "tkd-cpd-epc",
            "--rank", "3", "--delta", str(delta), "--out", str(out), *extra,
        ]) == 0
        assert read_block(out / "block.json").metrics["rel_error"] <= delta
        capsys.readouterr()
        assert main([
            "verify", "--block", str(out / "block.json"), "--input", str(kpath),
            "--trials", "2",
        ]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_zero_kernel_tkd(self, tmp_path, capsys):
        # the Tucker bound is vacuous on a zero kernel; the core keeps one
        # component per mode and gets the zero model
        self.decompose_and_verify(tmp_path, capsys, np.zeros((3, 3, 5, 6)), 0.1)

    def test_whole_budget_to_tucker_stage(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        kernel = rng.standard_normal((3, 3, 5, 6))
        self.decompose_and_verify(
            tmp_path, capsys, kernel, 1.0, extra=("--theta", "1")
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("command", ["decompose", "rank-search", "verify"])
    def test_non_finite_kernel_exits_2(self, tmp_path, capsys, command, bad):
        rng = np.random.default_rng(23)
        good = make_kernel_file(tmp_path, rng, name="good.kten")
        kernel = read_tensor(good)
        kernel[1, 2, 0, 3] = bad
        kpath = tmp_path / "bad.kten"
        write_tensor(kpath, kernel)
        if command == "decompose":
            args = ["--method", "tkd-cpd-epc", "--rank", "2", "--delta", "0.1",
                    "--out", str(tmp_path / "o")]
        elif command == "rank-search":
            args = ["--method", "cpd", "--eps", "0.1", "--rmax", "4"]
        else:
            out = tmp_path / "blk"
            assert main([
                "decompose", "--input", str(good), "--method", "cpd",
                "--rank", "3", "--out", str(out),
            ]) == 0
            args = ["--block", str(out / "block.json")]
        assert main([command, "--input", str(kpath), *args]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method, extra", [
        ("cpd", []),
        ("cpd-epc", ["--delta", "0.3"]),
        ("tkd-cpd-epc", ["--delta", "0.3"]),
    ])
    def test_decompose_checks_a_finite_kernel_in_one_pass(self, tmp_path, monkeypatch,
                                                          method, extra):
        # the norm decides; np.isfinite scans the kernel only when the norm
        # is not finite, and the checked pair goes on to the solvers
        kpath = make_kernel_file(tmp_path, np.random.default_rng(25), dims=(9, 6, 5))
        plain = []

        def spy(tensor):
            if not isinstance(tensor, _Checked):
                plain.append(np.shape(tensor))
            return _finite_norm(tensor)

        for module in (cli, pipeline, hybrid, cpd, epc, tucker2):
            monkeypatch.setattr(module, "_finite_norm", spy)
        sizes = []
        isfinite = np.isfinite

        def sized(x, *args, **kwargs):
            sizes.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", sized)
        assert main(["decompose", "--input", str(kpath), "--method", method,
                     "--rank", "3", *extra, "--out", str(tmp_path / "o")]) == 0
        assert plain == [(9, 6, 5)]
        assert max(sizes, default=0) <= 6 * 5

    @pytest.mark.parametrize("method", ["cpd", "cpd-epc", "tkd-cpd-epc"])
    def test_rank_search_checks_the_kernel_once(self, tmp_path, monkeypatch, capsys,
                                                method):
        # the command's checked pair goes on to every evaluation
        kpath = make_kernel_file(tmp_path, np.random.default_rng(25), dims=(9, 6, 5))
        plain = []

        def spy(tensor):
            if not isinstance(tensor, _Checked):
                plain.append(np.shape(tensor))
            return _finite_norm(tensor)

        for module in (cli, ranksearch, pipeline, hybrid, cpd, epc, tucker2):
            monkeypatch.setattr(module, "_finite_norm", spy)
        assert main(["rank-search", "--input", str(kpath), "--method", method,
                     "--eps", "1e-8", "--rmax", "8", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["evaluations"] > 1
        assert plain == [(9, 6, 5)]

    @pytest.mark.parametrize("scaled", ["every tap", "one tap"])
    def test_verify_of_a_kernel_whose_norm_overflows_exits_1(self, tmp_path, capsys,
                                                             scaled):
        # every tap's norm finite and their sum of squares not, or one tap's
        # own norm overflowing: verify reports what decompose does for the
        # file, not a nan rel_error or a message of its own
        rng = np.random.default_rng(26)
        good = make_kernel_file(tmp_path, rng, dims=(9, 8, 6), name="good.kten")
        out = tmp_path / "blk"
        assert main(["decompose", "--input", str(good), "--method", "cpd",
                     "--rank", "3", "--out", str(out)]) == 0
        kernel = read_tensor(good)
        if scaled == "every tap":
            kernel *= 0.7e154 / np.linalg.norm(kernel, axis=(2, 3), keepdims=True)
        else:
            kernel[1, 2] *= 1e200
        huge = tmp_path / "huge.kten"
        write_tensor(huge, kernel)
        capsys.readouterr()
        for args in (["decompose", "--method", "cpd", "--rank", "3",
                      "--out", str(tmp_path / "o")],
                     ["verify", "--block", str(out / "block.json")]):
            assert main([*args, "--input", str(huge)]) == 1
            captured = capsys.readouterr()
            assert captured.err == ("error: tensor norm is not finite "
                                    "(nan, inf or overflow)\n")
            assert captured.out == ""

    def test_verify_checks_the_kernel_in_one_pass(self, tmp_path, monkeypatch, capsys):
        # rel_error's norm of the kernel is verify's check: no (S, T) tap gets
        # a norm or an np.isfinite scan of its own
        kpath = make_kernel_file(tmp_path, np.random.default_rng(27), dims=(9, 8, 6))
        out = tmp_path / "blk"
        assert main(["decompose", "--input", str(kpath), "--method", "cpd",
                     "--rank", "3", "--out", str(out)]) == 0
        shapes = []
        for module, name in ((np, "isfinite"), (np.linalg, "norm")):
            def spy(x, *args, real=getattr(module, name), **kwargs):
                shapes.append(np.shape(x))
                return real(x, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        capsys.readouterr()
        assert main(["verify", "--block", str(out / "block.json"), "--input",
                     str(kpath), "--trials", "0"]) == 0
        assert "verify: OK" in capsys.readouterr().out
        assert (8, 6) not in shapes


class TestCliArgumentValues:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("args")
        kpath = make_kernel_file(tmp, np.random.default_rng(24))
        assert main([
            "decompose", "--input", str(kpath), "--method", "cpd", "--rank", "2",
            "--out", str(tmp / "blk"),
        ]) == 0
        return tmp, kpath, tmp / "blk" / "block.json"

    @pytest.mark.parametrize("argv", [
        ["decompose", "--method", "cpd", "--rank", "2", "--stride", "0"],
        ["decompose", "--method", "cpd", "--rank", "2", "--pad", "-1"],
        ["decompose", "--method", "cpd-epc", "--rank", "2", "--delta", "nan"],
        # arguments the method would ignore
        ["decompose", "--method", "cpd", "--rank", "2", "--delta", "0.01"],
        ["decompose", "--method", "cpd", "--rank", "2", "--ranks", "2,2"],
        ["decompose", "--method", "cpd-epc", "--rank", "2", "--ranks", "2,2"],
        ["decompose", "--method", "tkd-cpd-epc", "--rank", "2", "--delta", "0.1",
         "--theta", "1.5"],
        ["decompose", "--method", "cpd", "--rank", "2", "--theta", "0.5"],
        ["decompose", "--method", "tkd-cpd-epc", "--rank", "2", "--ranks", "2,2",
         "--theta", "0.1"],
        # the Tucker stage alone is over the budget
        ["decompose", "--method", "tkd-cpd-epc", "--rank", "2", "--delta", "0.01",
         "--ranks", "1,1"],
        ["decompose", "--method", "tkd-cpd-epc", "--rank", "2", "--ranks", "0,2"],
        ["rank-search", "--method", "cpd", "--eps", "0.1", "--ranks", "2,2"],
        ["rank-search", "--method", "cpd", "--eps", "0"],
        ["rank-search", "--method", "cpd", "--eps", "nan"],
        ["rank-search", "--method", "cpd", "--eps", "0.1", "--stride", "0"],
        ["verify", "--hw", "0,0"],
        ["verify", "--seed", "-1"],
        ["verify", "--trials", "-1"],
        # usage errors, which argparse exits 2 for
        ["decompose", "--method", "cpd", "--rank", "abc"],
        ["decompose", "--method", "cpd", "--rank", "2", "--hw", "5"],
        ["decompose", "--method", "bogus", "--rank", "2"],
        ["verify", "--trials", "x"],
        # ranks numpy refuses to allocate for
        ["decompose", "--method", "cpd", "--rank", str(10**15)],
        ["decompose", "--method", "tkd-cpd-epc", "--rank", str(10**15), "--delta",
         "0.5"],
        ["rank-search", "--method", "cpd-epc", "--eps", "0.1", "--rmax", str(10**15)],
    ], ids=" ".join)
    def test_exits_1_without_traceback(self, files, argv):
        tmp, kpath, block = files
        extra = {"decompose": ["--out", str(tmp / "o")],
                 "rank-search": ["--rmax", "3"],
                 "verify": ["--block", str(block)]}[argv[0]]
        # the extra arguments go first, so a flag in `argv` overrides them
        proc = subprocess.run(
            [sys.executable, "-m", "convfactor.cli", argv[0], *extra, *argv[1:],
             "--input", str(kpath)],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("delta", ["-0.1", "1.5", "inf", "nan"])
    @pytest.mark.parametrize("method", ["cpd-epc", "tkd-cpd-epc"])
    def test_delta_outside_the_unit_interval_exits_1(self, files, capsys, method,
                                                     delta):
        # both bounded methods take one domain for --delta; past 1, cpd-epc
        # shipped the zero model while tkd-cpd-epc raised
        tmp, kpath, _ = files
        with pytest.raises(ValueError, match=r"^--delta must lie in \[0, 1\]"):
            fit(reshape_kernel(read_tensor(kpath)), method, 2, delta_rel=float(delta))
        assert main(["decompose", "--input", str(kpath), "--method", method,
                     "--rank", "2", "--delta", delta, "--out", str(tmp / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: --delta must lie in [0, 1]")

    @pytest.mark.parametrize("scale", [1e-200, 1e-60, 1e60, 1e200])
    @pytest.mark.parametrize("argv", [
        ["decompose", "--method", "cpd-epc", "--rank", "2", "--delta", "0.5"],
        ["decompose", "--method", "tkd-cpd-epc", "--rank", "2", "--delta", "0.5"],
        ["rank-search", "--method", "cpd", "--eps", "0.1"],
    ], ids=" ".join)
    def test_kernel_outside_the_norm_range_exits_1(self, files, capsys, scale, argv):
        # at 1e-200 the norm underflows to 0, and the solvers would ship a
        # zero model; outside the range their tolerances no longer scale.  At
        # 1e200 every entry is finite but the norm overflows, with no warning
        tmp, kpath, _ = files
        scaled = tmp / f"scaled-{scale:g}.kten"
        write_tensor(scaled, scale * read_tensor(kpath))
        extra = ["--out", str(tmp / "o")] if argv[0] == "decompose" else []
        assert main([*argv, *extra, "--input", str(scaled)]) == 1
        assert capsys.readouterr().err.startswith("error: tensor norm ")


def test_cli_import_loads_no_scipy():
    # importing scipy.linalg would add about 0.4 s to every CLI start
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, convfactor.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
