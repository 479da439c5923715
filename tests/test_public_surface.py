"""Names that code outside the package relies on must keep resolving."""

import ast
import importlib
import importlib.util
import re
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
