"""Names that code outside the package relies on must keep resolving."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import convfactor

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_trace_targets_resolve():
    # the span tracer wraps these names with setattr(getattr(...)); a
    # missing one makes `benchmarks/run.py --trace 1` fail at install time
    spec = importlib.util.spec_from_file_location(
        "convfactor_bench_tracing", ROOT / "benchmarks" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_readme_quick_start_imports_resolve():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    names = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "convfactor"
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(convfactor, n)] == []


def test_block_format_layers_import_no_pipeline_module():
    # the block format, the CP model and the tensor kernels sit below the
    # pipelines that use them; imports inside function bodies count too
    upper = {"hybrid", "pipeline", "ranksearch", "cli"}
    for name in ("convblocks", "cpd", "tensorops"):
        tree = ast.parse((ROOT / "src" / "convfactor" / f"{name}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imported.update(alias.name.split("."))
        assert imported & upper == set(), name


def test_cli_commands_leave_exit_codes_to_main():
    # main alone maps an exception to an exit code; the commands raise
    tree = ast.parse((ROOT / "src" / "convfactor" / "cli.py").read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert {c.name for c in commands} == {"cmd_decompose", "cmd_rank_search",
                                          "cmd_verify"}
    for command in commands:
        for node in ast.walk(command):
            assert not isinstance(node, ast.Try), command.name
            assert not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "_fail"), command.name


def test_package_never_imports_scipy(tmp_path):
    # numpy alone does the package's linear algebra: on a 2-core Linux host,
    # `import scipy.linalg` after `import convfactor.cli` raised a process's
    # ru_maxrss from 26.9-29.1 MB to 55.2-55.8 MB, and a prototype whose
    # Tucker-2 first step called scipy.linalg.eigh read 89.0 MB tkd-512
    # peak_rss_mb against 71.0 MB.  The decompose runs the hybrid on a
    # low-rank 3x3x136x130 kernel, so the Tucker-2 block iteration and wide
    # steps run.
    code = """
import sys
import numpy as np
import convfactor.cli
from convfactor.fileio import write_tensor
rng = np.random.default_rng(0)
f = [rng.standard_normal((n, 6)) for n in (9, 136, 130)]
k = np.einsum("dr,sr,tr->dst", *f).reshape(3, 3, 136, 130)
k += 0.01 * np.linalg.norm(k) * rng.standard_normal(k.shape) / np.sqrt(k.size)
write_tensor(sys.argv[1], k)
code = convfactor.cli.main(["decompose", "--input", sys.argv[1], "--method",
                            "tkd-cpd-epc", "--rank", "6", "--delta", "0.1",
                            "--out", sys.argv[2]])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "k.kten"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 []"
