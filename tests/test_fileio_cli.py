import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import degenerate_pair, random_cp_tensor
from convfactor import (
    Block,
    ConvSpec,
    CPModel,
    TensorFileError,
    count_params_flops,
    emit_cpd_block,
    read_block,
    read_tensor,
    restore_kernel,
    write_block,
    write_tensor,
)
from convfactor.cli import main
from convfactor.fileio import MAGIC

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

    def test_bad_evaluator_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(18)
        kpath = make_kernel_file(tmp_path, rng)
        code = main([
            "rank-search", "--input", str(kpath), "--method", "cpd",
            "--eps", "1e-8", "--rmax", "4", "--evaluator", "false",
        ])
        assert code == 3

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

    def test_svd_searchable_on_1x1(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        kpath = make_kernel_file(tmp_path, rng, dims=(1, 6, 7), rank=3)
        code = main([
            "rank-search", "--input", str(kpath), "--method", "svd",
            "--eps", "1e-10", "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 3


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
        ["rank-search", "--method", "cpd", "--eps", "0"],
        ["rank-search", "--method", "cpd", "--eps", "nan"],
        ["rank-search", "--method", "cpd", "--eps", "0.1", "--stride", "0"],
        ["verify", "--hw", "0,0"],
        ["verify", "--seed", "-1"],
    ], ids=" ".join)
    def test_exits_1_without_traceback(self, files, argv):
        tmp, kpath, block = files
        extra = {"decompose": ["--out", str(tmp / "o")],
                 "rank-search": ["--rmax", "3"],
                 "verify": ["--block", str(block)]}[argv[0]]
        proc = subprocess.run(
            [sys.executable, "-m", "convfactor.cli", *argv, "--input", str(kpath),
             *extra],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr


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
