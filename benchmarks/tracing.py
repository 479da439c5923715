"""Span tracing of the convfactor layers, installed from outside the package.

Modules import functions by name, so each wrapper is installed on the name
in the *calling* module (``convfactor.pipeline.cpd_als``, not
``convfactor.cpd.cpd_als``).  A span records its name, start, end, parent
and a few counts taken from the call's arguments or return value.  Spans
stay in memory; :meth:`Tracer.dump` writes them out and
:func:`layer_metrics` turns them into the per-layer metrics.
"""

import functools
import importlib
import json
import math
import time


def _als_counts(args, result):
    return {"converged": bool(result.converged)}


def _epc_counts(args, result):
    _, trace = result
    return {"sweeps": len(trace) - 1, "ss_ratio": trace[-1]["ss"] / trace[0]["ss"]}


def _nbytes_of_result(args, result):
    return {"bytes": int(result.nbytes)}


def _nbytes_of_array_arg(args, result):
    return {"bytes": int(args[1].nbytes)}


def _tucker_counts(args, result):
    return {"steps": len(result.history)}


def _hybrid_counts(args, result):
    return {"core_size": result.core_cp.A.shape[0] * result.U.shape[1]
            * result.V.shape[1]}


def _forward_flops(args, result):
    from convfactor.convblocks import count_params_flops

    layers, x = args[0], args[1]
    return {"flops": count_params_flops(layers, x.shape[:2])[1]}


def _search_counts(args, result):
    return {"evals": int(result.n_evals)}


# (calling module, attribute, span name, counts taken from the call)
TARGETS = [
    ("convfactor.cli", "cmd_decompose", "cli.decompose", None),
    ("convfactor.cli", "cmd_verify", "cli.verify", None),
    ("convfactor.cli", "cmd_rank_search", "cli.rank_search", None),
    ("convfactor.cli", "decompose_to_block", "pipeline.decompose_to_block", None),
    ("convfactor.pipeline", "cpd_als", "cpd.als", _als_counts),
    ("convfactor.hybrid", "cpd_als", "cpd.als", _als_counts),
    ("convfactor.ranksearch", "cpd_als", "cpd.als", _als_counts),
    ("convfactor.cpd", "khatri_rao", "tensorops.khatri_rao", _nbytes_of_result),
    ("convfactor.epc", "khatri_rao", "tensorops.khatri_rao", _nbytes_of_result),
    ("convfactor.cpd", "reconstruct_cp", "tensorops.reconstruct", None),
    ("convfactor.convblocks", "reconstruct_cp", "tensorops.reconstruct", None),
    ("convfactor.pipeline", "epc_correct", "epc.correct", _epc_counts),
    ("convfactor.hybrid", "epc_correct", "epc.correct", _epc_counts),
    ("convfactor.ranksearch", "epc_correct", "epc.correct", _epc_counts),
    ("convfactor.epc", "spherical_qp", "epc.qp", None),
    ("convfactor.hybrid", "tucker2_bounded", "tucker2.bounded", _tucker_counts),
    ("convfactor.tucker2", "build_q1", "tucker2.gram", None),
    ("convfactor.tucker2", "build_q2", "tucker2.gram", None),
    ("convfactor.tucker2", "minimal_rank_eigvecs", "tucker2.eig", None),
    ("convfactor.tucker2", "_eigh_desc", "tucker2.eig", None),
    ("convfactor.tucker2", "core_closed_form", "tucker2.core", None),
    ("convfactor.pipeline", "tkd_cpd_epc", "hybrid.tkd_cpd_epc", _hybrid_counts),
    ("convfactor.pipeline", "emit_cpd_block", "convblocks.emit", None),
    ("convfactor.pipeline", "emit_tkd_cpd_block", "convblocks.emit", None),
    ("convfactor.cli", "compose_forward", "convblocks.forward", _forward_flops),
    ("convfactor.convblocks", "layer_forward", "convblocks.layer", None),
    ("convfactor.cli", "conv2d_reference", "convblocks.reference", None),
    ("convfactor.cli", "block_to_kernel", "convblocks.to_kernel", None),
    ("convfactor.fileio", "read_tensor", "fileio.read", _nbytes_of_result),
    ("convfactor.fileio", "read_block", "fileio.read", None),
    ("convfactor.fileio", "write_tensor", "fileio.write", _nbytes_of_array_arg),
    ("convfactor.fileio", "write_block", "fileio.write", None),
    ("convfactor.cli", "binary_search_rank", "ranksearch.search", _search_counts),
    ("convfactor.ranksearch", "approx_error_proxy", "ranksearch.proxy", None),
]


class Tracer:
    """In-memory span recorder; spans are dicts with name/start/end/parent."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span.update(counts(args, result))
            return result

        return traced

    def install(self):
        """Wrap every target for the rest of the process's life."""
        for module_name, attr, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), counts))

    def problems(self):
        """Spans left open, or (except the roots) without a valid parent."""
        bad = []
        for i, span in enumerate(self.spans):
            if span["end"] is None:
                bad.append(f"span {i} ({span['name']}) never closed")
            parent = span["parent"]
            if span["name"] == "pass":
                if parent is not None:
                    bad.append(f"root span {i} has a parent")
            elif parent is None or not 0 <= parent < i:
                bad.append(f"span {i} ({span['name']}) has no parent")
        return bad

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _duration(span):
    return span["end"] - span["start"]


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def ancestors(span):
        while span["parent"] is not None:
            span = spans[span["parent"]]
            yield span

    def named(name):
        # outermost spans only, so a function calling its own kind counts once
        return [s for s in spans if s["name"] == name
                and all(a["name"] != name for a in ancestors(s))]

    def total(name):
        return sum(_duration(s) for s in named(name))

    def self_time(name):
        return sum(_duration(s) - sum(_duration(c) for c in children[i])
                   for i, s in enumerate(spans) if s["name"] == name)

    def count(name, key=None):
        found = named(name)
        return len(found) if key is None else sum(s[key] for s in found)

    als = named("cpd.als")
    als_s = total("cpd.als")
    sweeps = sum(1 for s in spans if s["name"] == "tensorops.khatri_rao"
                 and spans[s["parent"]]["name"] == "cpd.als") / 3
    epc = named("epc.correct")
    proxy_epc = [s for s in epc
                 if any(a["name"] == "ranksearch.proxy" for a in ancestors(s))]
    return {
        "cli.decompose_s": (total("cli.decompose"), "s"),
        "cli.verify_s": (total("cli.verify"), "s"),
        "cli.rank_search_s": (total("cli.rank_search"), "s"),
        "pipeline.self_s": (self_time("pipeline.decompose_to_block"), "s"),
        "cpd.als_s": (als_s, "s"),
        "cpd.als_calls": (len(als), "count"),
        "cpd.sweeps": (sweeps, "count"),
        "cpd.ms_per_sweep": (1e3 * als_s / sweeps if sweeps else 0.0, "ms"),
        "cpd.converged_ratio": (
            sum(s["converged"] for s in als) / len(als) if als else 0.0, "1"),
        "tensorops.khatri_rao_s": (total("tensorops.khatri_rao"), "s"),
        "tensorops.khatri_rao_calls": (count("tensorops.khatri_rao"), "count"),
        "tensorops.khatri_rao_mb": (
            count("tensorops.khatri_rao", "bytes") / 1e6, "MB"),
        "tensorops.reconstruct_s": (total("tensorops.reconstruct"), "s"),
        "epc.correct_s": (total("epc.correct"), "s"),
        "epc.sweeps": (count("epc.correct", "sweeps"), "count"),
        "epc.qp_s": (total("epc.qp"), "s"),
        "epc.qp_calls": (count("epc.qp"), "count"),
        "epc.self_s": (self_time("epc.correct"), "s"),
        "epc.ss_ratio": (
            math.exp(sum(math.log(s["ss_ratio"]) for s in epc) / len(epc))
            if epc else 0.0, "1"),
        "tucker2.bounded_s": (total("tucker2.bounded"), "s"),
        "tucker2.gram_s": (total("tucker2.gram"), "s"),
        "tucker2.eig_s": (total("tucker2.eig"), "s"),
        "tucker2.core_s": (total("tucker2.core"), "s"),
        "tucker2.steps": (count("tucker2.bounded", "steps"), "count"),
        "hybrid.self_s": (self_time("hybrid.tkd_cpd_epc"), "s"),
        "hybrid.core_size": (count("hybrid.tkd_cpd_epc", "core_size"), "count"),
        "convblocks.emit_s": (total("convblocks.emit"), "s"),
        "convblocks.forward_s": (total("convblocks.forward"), "s"),
        "convblocks.layer_calls": (count("convblocks.layer"), "count"),
        "convblocks.reference_s": (total("convblocks.reference"), "s"),
        "convblocks.to_kernel_s": (total("convblocks.to_kernel"), "s"),
        "convblocks.forward_gflop": (
            count("convblocks.forward", "flops") / 1e9, "GFLOP"),
        "fileio.read_s": (total("fileio.read"), "s"),
        "fileio.write_s": (total("fileio.write"), "s"),
        "fileio.read_mb": (
            sum(s.get("bytes", 0) for s in spans if s["name"] == "fileio.read")
            / 1e6, "MB"),
        "fileio.write_mb": (
            sum(s.get("bytes", 0) for s in spans if s["name"] == "fileio.write")
            / 1e6, "MB"),
        "ranksearch.proxy_s": (total("ranksearch.proxy"), "s"),
        "ranksearch.evals": (count("ranksearch.search", "evals"), "count"),
        "ranksearch.epc_s": (sum(_duration(s) for s in proxy_epc), "s"),
        "trace.spans": (len(spans), "count"),
    }
